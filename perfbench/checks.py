"""Output checks for one benchmark pass.

Each check reads the files a pass left in its directory and compares them
with a property the method must have, or with a quantity computed here from
the scene file alone: grid nodes, initial-set membership, obstacle signed
distances and multilinear interpolation.  Nothing here imports
reachverify, so a fault in the program cannot hide in the check.

``check_pass`` returns, for every operation, the list of checks it failed.
"""

from __future__ import annotations

import itertools
import json
import os

import numpy as np


class Grid:
    def __init__(self, doc: dict):
        self.lo = np.asarray(doc["lo"], dtype=float)
        self.hi = np.asarray(doc["hi"], dtype=float)
        self.counts = tuple(int(c) for c in doc["counts"])
        self.spacing = (self.hi - self.lo) / (np.asarray(self.counts) - 1)
        self.size = int(np.prod(self.counts))

    def points(self) -> np.ndarray:
        """Node coordinates, ``(size, dims)`` in C order."""
        axes = [np.linspace(self.lo[i], self.hi[i], c) for i, c in enumerate(self.counts)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def signed_distance(prim: dict, pts: np.ndarray) -> np.ndarray:
    """Exact signed distance to a scene primitive, negative inside."""
    c = np.asarray(prim["center"], dtype=float)
    if prim["kind"] == "ball":
        return np.linalg.norm(pts - c, axis=-1) - prim["radius"]
    if prim["kind"] == "box":
        q = np.abs(pts - c) - np.asarray(prim["half_widths"], dtype=float)
        return np.linalg.norm(np.maximum(q, 0.0), axis=-1) + np.minimum(q.max(axis=-1), 0.0)
    if prim["kind"] == "cylinder":
        delta = pts - c
        ax = prim["axis_index"]
        d_r = np.linalg.norm(np.delete(delta, ax, axis=-1), axis=-1) - prim["radius"]
        d_a = np.abs(delta[:, ax]) - prim["half_height"]
        outside = np.hypot(np.maximum(d_r, 0.0), np.maximum(d_a, 0.0))
        return outside + np.minimum(np.maximum(d_r, d_a), 0.0)
    raise ValueError(f"unknown primitive kind {prim['kind']!r}")


def union_distance(prims, pts) -> np.ndarray:
    return np.min([signed_distance(p, pts) for p in prims], axis=0)


def interpolate(values: np.ndarray, grid: Grid, pts: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of node values (C order) at ``pts``."""
    field = values.reshape(grid.counts)
    rel = (pts - grid.lo) / grid.spacing
    base = np.clip(np.floor(rel).astype(int), 0, np.asarray(grid.counts) - 2)
    frac = rel - base
    out = np.zeros(len(pts))
    for corner in itertools.product((0, 1), repeat=len(grid.counts)):
        w = np.prod([frac[:, i] if b else 1.0 - frac[:, i] for i, b in enumerate(corner)], axis=0)
        out += w * field[tuple(base[:, i] + b for i, b in enumerate(corner))]
    return out


def read_table(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_node_column(path, grid: Grid) -> np.ndarray:
    """Last column of a per-node CSV, after checking its index columns."""
    table = read_table(path)
    idx = np.indices(grid.counts).reshape(len(grid.counts), -1).T
    if table.shape[0] != grid.size or not np.array_equal(table[:, :len(grid.counts)], idx):
        raise ValueError(f"{path}: rows do not list the grid nodes in order")
    return table[:, -1]


def count_lines(path) -> int:
    with open(path, "rb") as fh:
        return fh.read().count(b"\n")


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def slice_tag(z: float) -> str:
    """File-name tag of a z slice, as ``export-plots`` writes it."""
    return "z" + repr(float(z)).replace(".", "p").replace("-", "m")


def expected_snapshots(steps: int, stride: int) -> int:
    # The seed field, every stride-th step, and the last step if off-stride.
    return 1 + steps // stride + (1 if steps % stride else 0)


class _Result:
    def __init__(self, operations):
        self.failures = {op: [] for op in operations}

    def require(self, op: str, ok, what: str) -> None:
        if not ok:
            self.failures[op].append(what)


def _tube_snapshots(res, op, tube_dir, grid, stride) -> list:
    """Snapshot value arrays of one exported tube, checked to be nested."""
    manifest = load_json(os.path.join(tube_dir, "manifest.json"))
    entries = manifest["snapshots"]
    name = os.path.basename(tube_dir)
    res.require(op, len(entries) == expected_snapshots(manifest["steps_taken"], stride),
                f"{name}: snapshot count does not match steps and stride")
    fields = [read_node_column(os.path.join(tube_dir, e["file"]), grid) for e in entries]
    masks = [f <= 0.0 for f in fields]
    res.require(op, all(not np.any(a & ~b) for a, b in zip(masks, masks[1:])),
                f"{name}: snapshot masks are not nested")
    return fields


def _within_one_cell(starts, union_vals, grid) -> bool:
    """Whether every start lies within one cell diagonal of a tube node."""
    if not len(starts):
        return True
    inside = grid.points()[union_vals <= 0.0]
    diag = float(np.linalg.norm(grid.spacing))
    return len(inside) > 0 and all(
        np.min(np.linalg.norm(inside - s, axis=1)) <= diag for s in starts)


def _guarded(res, op, fn, *args):
    """Run one operation's checks; a missing or unreadable file fails it."""
    try:
        return fn(*args)
    except (OSError, ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
        res.failures[op].append(f"unreadable output: {exc}")
        return None


def check_pass(pass_dir, wl, codes: dict, operations) -> dict:
    """Failed checks of one pass, by operation."""
    res = _Result(operations)
    for op in operations:
        res.require(op, codes.get(op) == 0, f"exit code {codes.get(op)}")
    scene = load_json(os.path.join(pass_dir, "scene.json"))
    grid = Grid(scene["grid"])
    pts = grid.points()
    initial = union_distance(scene["initial_set"], pts) <= 0.0
    obstacle_sd = [signed_distance(p, pts) for p in scene["obstacles"]]
    stride = wl.solver["snapshot_stride"]
    d = lambda *p: os.path.join(pass_dir, *p)  # noqa: E731

    def train():
        for it in load_json(d("train", "log.json"))["iterations"]:
            res.require("train", it["validation_error"] < it["baseline_error"],
                        "validation error not below the baseline error")

    def oracle():
        gt = read_table(d("oracle", "ground_truth.csv"))
        doc = load_json(d("oracle", "oracle_manifest.json"))
        res.require("oracle", len(gt) == wl.oracle["num_samples"], "wrong sample count")
        res.require("oracle", np.all(union_distance(scene["initial_set"], gt[:, :-1]) <= 1e-12),
                    "a start lies outside the initial set")
        res.require("oracle", doc["safe_fraction"] == float(np.mean(gt[:, -1] == 1)),
                    "safe_fraction does not match the flags")
        return gt

    def verify(oracle_gt):
        report = load_json(d("verify", "report.json"))
        final = _tube_snapshots(res, "verify", d("verify", "frt"), grid, stride)[-1]
        flags = [bool(np.any((final <= 0.0) & (sd <= 0.0))) for sd in obstacle_sd]
        res.require("verify", report["frt_intersects_obstacle"] == flags,
                    "per-obstacle flags differ from the final forward tube")
        res.require("verify", (report["verdict"] == "unsafe") == any(flags),
                    "verdict does not follow the per-obstacle flags")
        if oracle_gt is not None and np.any(oracle_gt[:, -1] == 0):
            res.require("verify", report["verdict"] == "unsafe",
                        "verify says safe but oracle found unsafe starts")

    def safe_set(oracle_gt):
        report = load_json(d("safeset", "report.json"))
        finals = [_tube_snapshots(res, "safe-set", d("safeset", f"brt_obstacle_{i}"),
                                  grid, stride)[-1] for i in range(len(obstacle_sd))]
        union = read_node_column(d("safeset", "brt_union.csv"), grid)
        res.require("safe-set", np.array_equal(union, np.min(finals, axis=0)),
                    "brt_union is not the pointwise minimum of the final tubes")
        res.require("safe-set", report["obstacle_reaches_initial"]
                    == [bool(np.any((f <= 0.0) & initial)) for f in finals],
                    "per-obstacle reach flags differ from the final tubes")
        masks = {k: read_node_column(d("safeset", f"{k}_mask.csv"), grid) == 1
                 for k in ("safe", "unsafe", "initial")}
        safe, unsafe = masks["safe"], masks["unsafe"]
        res.require("safe-set", np.array_equal(masks["initial"], initial),
                    "initial mask differs from the scene's initial set")
        res.require("safe-set",
                    not np.any(safe & unsafe) and np.array_equal(safe | unsafe, initial),
                    "safe and unsafe masks do not partition the initial set")
        res.require("safe-set", np.array_equal(unsafe, (union <= 0.0) & initial),
                    "unsafe mask is not (brt_union <= 0) within the initial set")
        res.require("safe-set", report["safe_fraction"] == int(safe.sum()) / int(initial.sum()),
                    "safe_fraction is not the ratio of the mask counts")
        verdict = ("completely_safe" if not unsafe.any() else
                   "completely_unsafe" if not safe.any() else "partially_safe")
        res.require("safe-set", report["verdict"] == verdict, "verdict does not follow the masks")
        if oracle_gt is not None:
            bad = oracle_gt[oracle_gt[:, -1] == 0, :-1]
            res.require("safe-set", np.all(interpolate(union, grid, bad) <= 0.0),
                        "the union tube calls an oracle-unsafe start safe")
        mc = read_table(d("safeset", "ground_truth.csv"))
        called_safe = interpolate(union, grid, mc[:, :-1]) > 0.0
        missed = mc[called_safe & (mc[:, -1] == 0), :-1]
        res.require("safe-set", _within_one_cell(missed, union, grid),
                    "an MC-unsafe start called safe lies beyond one cell of the tube")

    def export_plots():
        expected = {}
        for run in ("verify", "safeset"):
            rows = {}
            for entry in sorted(os.listdir(d(run))):
                manifest = d(run, entry, "manifest.json")
                if not os.path.isfile(manifest):
                    continue
                n_snap = len(load_json(manifest)["snapshots"])
                for k in range(n_snap):
                    if wl.z_slices:
                        for z in wl.z_slices:
                            rows[f"{entry}_{k:04d}_{slice_tag(z)}.csv"] = (
                                grid.counts[0] * grid.counts[1] + 1)
                    else:
                        rows[f"{entry}_{k:04d}.csv"] = grid.size + 1
            geometry = ([f"geometry_{slice_tag(z)}.csv" for z in wl.z_slices]
                        if wl.z_slices else ["geometry.csv"])
            extra = geometry + (["scatter.csv"] if run == "safeset" else [])
            found = sorted(os.listdir(d(run, "slices")))
            res.require("export-plots", found == sorted([*rows, *extra]),
                        f"{run}/slices holds an unexpected set of files")
            res.require("export-plots", all(count_lines(d(run, "slices", f)) == n
                                            for f, n in rows.items() if f in found),
                        f"{run}/slices: a slice has the wrong number of rows")

    _guarded(res, "train", train)
    oracle_gt = _guarded(res, "oracle", oracle)
    _guarded(res, "verify", verify, oracle_gt)
    _guarded(res, "safe-set", safe_set, oracle_gt)
    _guarded(res, "export-plots", export_plots)
    return res.failures


def operation_of(relpath: str) -> str:
    """The operation that wrote a file of a pass directory."""
    parts = relpath.split(os.sep)
    if len(parts) > 1 and parts[1] == "slices":
        return "export-plots"
    return {"train": "train", "verify": "verify", "safeset": "safe-set",
            "oracle": "oracle"}.get(parts[0], "train")
