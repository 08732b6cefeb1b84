"""Scene descriptions and file formats.

A scene bundles the grid with the initial, goal, and obstacle shape sets.
Scenes, disturbance bounds, models, and reports are JSON; fields, masks,
datasets, and Monte-Carlo samples are CSV with one row per node or sample.
All writers format floats with ``repr``, the shortest exact decimal form,
so identical inputs produce byte-identical files.

Two ready-made navigation scenes ship with the package: a planar indoor
scene (circular start and goal regions, two rectangular obstacles) and a
spatial urban scene (cuboid start and goal regions, two vertical cylinder
obstacles).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .geometry import (
    AxisBox,
    AxisCylinder,
    Ball,
    Grid,
    ScalarField,
    ShapeSet,
    build_grid,
)
from .solver import SolverConfig, TubeResult

__all__ = [
    "Scene",
    "land_scene",
    "air_scene",
    "primitive_to_dict",
    "primitive_from_dict",
    "save_scene",
    "load_scene",
    "field_to_csv",
    "field_from_csv",
    "export_tube",
    "load_tube_manifest",
    "mask_to_csv",
    "file_sha256",
]


@dataclass(frozen=True)
class Scene:
    grid: Grid
    initial_set: ShapeSet
    goal_set: ShapeSet
    obstacles: ShapeSet


def land_scene(counts=(101, 101)) -> Scene:
    """Planar navigation: start circle at the origin, goal circle across
    the room, two axis-aligned rectangular obstacles between them."""
    grid = build_grid([-1.0, -1.0], [8.0, 6.0], counts)
    initial = ShapeSet((Ball([0.0, 0.0], 0.7),))
    goal = ShapeSet((Ball([6.0, 4.5], 0.5),))
    obstacles = ShapeSet(
        (
            AxisBox([1.5, 4.5], [0.75, 0.75]),
            AxisBox([4.0, 1.5], [0.75, 0.75]),
        )
    )
    return Scene(grid, initial, goal, obstacles)


def air_scene(counts=(71, 71, 71)) -> Scene:
    """Spatial navigation: cuboid start near the ground, elevated cuboid
    goal, two vertical cylinder obstacles; everything strictly inside the
    grid box."""
    grid = build_grid([-1.0, -1.0, -1.0], [7.0, 6.0, 6.0], counts)
    initial = ShapeSet((AxisBox([0.0, 0.0, 0.0], [0.5, 0.5, 0.5]),))
    goal = ShapeSet((AxisBox([3.8, 4.5, 4.5], [0.5, 0.5, 0.5]),))
    obstacles = ShapeSet(
        (
            AxisCylinder([2.0, 4.0, 2.9], 0.5, axis_index=2, half_height=2.9),
            AxisCylinder([4.0, 3.0, 2.9], 0.5, axis_index=2, half_height=2.9),
        )
    )
    return Scene(grid, initial, goal, obstacles)


# ---------------------------------------------------------------------------
# JSON encoding
# ---------------------------------------------------------------------------

def primitive_to_dict(prim) -> dict:
    if isinstance(prim, Ball):
        return {"kind": "ball", "center": prim.center.tolist(), "radius": prim.radius}
    if isinstance(prim, AxisBox):
        return {
            "kind": "box",
            "center": prim.center.tolist(),
            "half_widths": prim.half_widths.tolist(),
        }
    if isinstance(prim, AxisCylinder):
        return {
            "kind": "cylinder",
            "center": prim.center.tolist(),
            "radius": prim.radius,
            "axis_index": prim.axis_index,
            "half_height": prim.half_height,
        }
    raise ValueError(f"unknown primitive type {type(prim).__name__}")


def primitive_from_dict(d: dict):
    kind = d.get("kind")
    if kind == "ball":
        return Ball(d["center"], float(d["radius"]))
    if kind == "box":
        return AxisBox(d["center"], d["half_widths"])
    if kind == "cylinder":
        return AxisCylinder(
            d["center"], float(d["radius"]), int(d["axis_index"]), float(d["half_height"])
        )
    raise ValueError(f"unknown primitive kind {kind!r}")


def _shapes_to_list(shapes: ShapeSet) -> list:
    return [primitive_to_dict(p) for p in shapes.primitives]


def _shapes_from_list(items) -> ShapeSet:
    return ShapeSet(tuple(primitive_from_dict(d) for d in items))


def scene_to_dict(scene: Scene) -> dict:
    return {
        "grid": {
            "lo": scene.grid.lo.tolist(),
            "hi": scene.grid.hi.tolist(),
            "counts": list(scene.grid.counts),
        },
        "initial_set": _shapes_to_list(scene.initial_set),
        "goal_set": _shapes_to_list(scene.goal_set),
        "obstacles": _shapes_to_list(scene.obstacles),
    }


def scene_from_dict(doc: dict) -> Scene:
    g = doc["grid"]
    return Scene(
        grid=build_grid(g["lo"], g["hi"], g["counts"]),
        initial_set=_shapes_from_list(doc["initial_set"]),
        goal_set=_shapes_from_list(doc["goal_set"]),
        obstacles=_shapes_from_list(doc["obstacles"]),
    )


def policy_to_dict(policy) -> dict:
    """Inline JSON form for the non-network policy kinds."""
    from .dynamics import ConstantPolicy, TabulatedPolicy

    if isinstance(policy, ConstantPolicy):
        return {
            "kind": "constant",
            "action": policy.action.tolist(),
            "action_lo": policy.bounds.lo.tolist(),
            "action_hi": policy.bounds.hi.tolist(),
        }
    if isinstance(policy, TabulatedPolicy):
        return {
            "kind": "tabulated",
            "grid": {
                "lo": policy.grid.lo.tolist(),
                "hi": policy.grid.hi.tolist(),
                "counts": list(policy.grid.counts),
            },
            "table": policy.table.tolist(),
            "action_lo": policy.bounds.lo.tolist(),
            "action_hi": policy.bounds.hi.tolist(),
        }
    raise ValueError(f"cannot inline policy of type {type(policy).__name__}; "
                     "network policies use the model file format")


def policy_from_dict(d: dict):
    from .dynamics import ActionBounds, ConstantPolicy, TabulatedPolicy

    bounds = ActionBounds(d["action_lo"], d["action_hi"])
    kind = d.get("kind")
    if kind == "constant":
        return ConstantPolicy(d["action"], bounds)
    if kind == "tabulated":
        g = d["grid"]
        grid = build_grid(g["lo"], g["hi"], g["counts"])
        import numpy as _np

        return TabulatedPolicy(grid, _np.asarray(d["table"], dtype=float), bounds)
    raise ValueError(f"unknown policy kind {kind!r}")


def save_scene(scene: Scene, path) -> None:
    with open(path, "w") as fh:
        json.dump(scene_to_dict(scene), fh, indent=2)


def load_scene(path) -> Scene:
    try:
        with open(path) as fh:
            return scene_from_dict(json.load(fh))
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed scene file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# CSV field export
# ---------------------------------------------------------------------------

# Rows formatted and written per chunk: enough that the per-chunk numpy
# calls cost nothing, few enough that a chunk's strings stay under a MB.
_CHUNK_ROWS = 2048


def _write_node_rows(path, grid: Grid, last_name: str, last, fmt) -> None:
    """One row per node in C order: index coordinates, physical
    coordinates, then ``fmt`` of the node's entry of the flat ``last``.

    Each axis's index and coordinate text is formatted once per call and
    looked up per node, so every row is the ``str`` / ``repr`` text the
    per-row form ``",".join(...)`` would give, byte for byte.
    """
    n = grid.dims
    header = [f"i{k}" for k in range(n)] + [f"x{k}" for k in range(n)] + [last_name]
    index_text = [list(map(str, range(c))) for c in grid.counts]
    coord_text = [list(map(repr, grid.axis_coords(k).tolist())) for k in range(n)]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, grid.num_nodes, _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, grid.num_nodes)
            idx = [i.tolist() for i in np.unravel_index(np.arange(start, stop), grid.counts)]
            cols = [map(index_text[k].__getitem__, idx[k]) for k in range(n)]
            cols += [map(coord_text[k].__getitem__, idx[k]) for k in range(n)]
            cols.append(map(fmt, last[start:stop].tolist()))
            fh.write("\n".join(map(",".join, zip(*cols))) + "\n")


def field_to_csv(field: ScalarField, path) -> None:
    """One row per node: index coordinates, physical coordinates, value."""
    _write_node_rows(path, field.grid, "value", field.values.ravel(), repr)


def field_from_csv(path, grid: Grid, time_tag: float = 0.0) -> ScalarField:
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n = grid.dims
    if raw.shape[1] != 2 * n + 1:
        raise ValueError(f"field file has {raw.shape[1]} columns, expected {2 * n + 1}")
    idx = raw[:, :n].astype(int)
    values = np.empty(grid.counts)
    values[tuple(idx.T)] = raw[:, -1]
    return ScalarField(grid, values, time_tag)


def mask_to_csv(grid: Grid, mask: np.ndarray, path) -> None:
    """One row per node: index coordinates, physical coordinates, 0/1 flag."""
    _write_node_rows(path, grid, "inside", mask.ravel().astype(int), str)


# ---------------------------------------------------------------------------
# Tube export
# ---------------------------------------------------------------------------

def _config_to_dict(config: SolverConfig) -> dict:
    return {
        "horizon": config.horizon,
        "cfl_factor": config.cfl_factor,
        "snapshot_stride": config.snapshot_stride,
        "convergence_eps": config.convergence_eps,
    }


def export_tube(tube: TubeResult, out_dir, prefix: str = "snapshot"):
    """Write one CSV per snapshot plus a JSON manifest.

    Returns the manifest path.  The manifest records snapshot times, the
    grid, the solver configuration with the tube's direction, and the
    per-file names in order.
    """
    import os

    os.makedirs(out_dir, exist_ok=True)
    files = []
    for k, (t, fld) in enumerate(tube.snapshots):
        name = f"{prefix}_{k:04d}.csv"
        field_to_csv(fld, os.path.join(out_dir, name))
        files.append({"time": t, "file": name})
    manifest = {
        "times": [t for t, _ in tube.snapshots],
        "grid": {
            "lo": tube.grid.lo.tolist(),
            "hi": tube.grid.hi.tolist(),
            "counts": list(tube.grid.counts),
        },
        "config": {**_config_to_dict(tube.config), "direction": tube.direction},
        "steps_taken": tube.steps_taken,
        "max_abs_hamiltonian": tube.max_abs_h,
        "converged_early": tube.converged_early,
        "snapshots": files,
    }
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest_path


def load_tube_manifest(manifest_path):
    """Read back a tube export: the grid and the time-ordered fields."""
    import os

    with open(manifest_path) as fh:
        manifest = json.load(fh)
    g = manifest["grid"]
    grid = build_grid(g["lo"], g["hi"], g["counts"])
    base = os.path.dirname(manifest_path)
    snapshots = [
        (entry["time"], field_from_csv(os.path.join(base, entry["file"]), grid, entry["time"]))
        for entry in manifest["snapshots"]
    ]
    return grid, snapshots, manifest


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
