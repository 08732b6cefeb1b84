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
import os
from dataclasses import asdict, dataclass

import numpy as np

from .dynamics import ActionBounds, ConstantPolicy, TabulatedPolicy
from .geometry import (
    AxisBox,
    AxisCylinder,
    Ball,
    Grid,
    ScalarField,
    ShapeSet,
    build_grid,
)
from .nn import json_value, write_csv
from .solver import TubeResult

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
    """The primitive a :func:`primitive_to_dict` entry describes; a value
    of the wrong type is a ValueError naming its key."""
    kind = d.get("kind")
    if kind not in ("ball", "box", "cylinder"):
        raise ValueError(f"unknown primitive kind {kind!r}")
    floats = tuple[float, ...]
    center = json_value(floats, d["center"], "center")
    if kind == "box":
        return AxisBox(center, json_value(floats, d["half_widths"], "half_widths"))
    radius = json_value(float, d["radius"], "radius")
    if kind == "ball":
        return Ball(center, radius)
    return AxisCylinder(center, radius, json_value(int, d["axis_index"], "axis_index"),
                        json_value(float, d["half_height"], "half_height"))


def _shapes_to_list(shapes: ShapeSet) -> list:
    return [primitive_to_dict(p) for p in shapes.primitives]


def _shapes_from_list(items) -> ShapeSet:
    return ShapeSet(tuple(primitive_from_dict(d) for d in items))


def _grid_to_dict(grid: Grid) -> dict:
    return {"lo": grid.lo.tolist(), "hi": grid.hi.tolist(), "counts": list(grid.counts)}


def _grid_from_dict(g) -> Grid:
    g = json_value(dict, g, "grid")
    return build_grid(json_value(tuple[float, ...], g["lo"], "grid.lo"),
                      json_value(tuple[float, ...], g["hi"], "grid.hi"),
                      json_value(tuple[int, ...], g["counts"], "grid.counts"))


def scene_to_dict(scene: Scene) -> dict:
    return {
        "grid": _grid_to_dict(scene.grid),
        "initial_set": _shapes_to_list(scene.initial_set),
        "goal_set": _shapes_to_list(scene.goal_set),
        "obstacles": _shapes_to_list(scene.obstacles),
    }


def scene_from_dict(doc: dict) -> Scene:
    return Scene(
        grid=_grid_from_dict(doc["grid"]),
        initial_set=_shapes_from_list(doc["initial_set"]),
        goal_set=_shapes_from_list(doc["goal_set"]),
        obstacles=_shapes_from_list(doc["obstacles"]),
    )


def policy_to_dict(policy) -> dict:
    """Inline JSON form for the non-network policy kinds."""
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
            "grid": _grid_to_dict(policy.grid),
            "table": policy.table.tolist(),
            "action_lo": policy.bounds.lo.tolist(),
            "action_hi": policy.bounds.hi.tolist(),
        }
    raise ValueError(f"cannot inline policy of type {type(policy).__name__}; "
                     "network policies use the model file format")


def policy_from_dict(d: dict):
    """The policy of a :func:`policy_to_dict` object, its values type-checked."""
    floats = tuple[float, ...]
    bounds = ActionBounds(json_value(floats, d["action_lo"], "action_lo"),
                          json_value(floats, d["action_hi"], "action_hi"))
    kind = json_value(str, d.get("kind"), "kind")
    if kind == "constant":
        return ConstantPolicy(json_value(floats, d["action"], "action"), bounds)
    if kind == "tabulated":
        grid = _grid_from_dict(d["grid"])
        table = float  # nested one level per grid axis, then the action
        for _ in range(grid.dims + 1):
            table = tuple[table, ...]
        return TabulatedPolicy(grid, json_value(table, d["table"], "table"), bounds)
    raise ValueError(f"unknown policy kind {kind!r}")


def save_scene(scene: Scene, path) -> None:
    with open(path, "w") as fh:
        json.dump(scene_to_dict(scene), fh, indent=2)


def load_scene(path) -> Scene:
    try:
        with open(path) as fh:
            return scene_from_dict(json.load(fh))
    except (ValueError, KeyError, TypeError) as exc:
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

    def chunks():
        for start in range(0, grid.num_nodes, _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, grid.num_nodes)
            idx = [i.tolist() for i in np.unravel_index(np.arange(start, stop), grid.counts)]
            cols = [map(index_text[k].__getitem__, idx[k]) for k in range(n)]
            cols += [map(coord_text[k].__getitem__, idx[k]) for k in range(n)]
            cols.append(map(fmt, last[start:stop].tolist()))
            yield cols

    write_csv(path, header, chunks())


def field_to_csv(field: ScalarField, path) -> None:
    """One row per node: index coordinates, physical coordinates, value."""
    _write_node_rows(path, field.grid, "value", field.values.ravel(), repr)


def field_from_csv(path, grid: Grid, time_tag: float = 0.0) -> ScalarField:
    """Read a :func:`field_to_csv` file back; only the index and value
    columns are parsed."""
    n = grid.dims
    with open(path) as fh:
        columns = fh.readline().count(",") + 1
        if columns != 2 * n + 1:
            raise ValueError(f"field file has {columns} columns, expected {2 * n + 1}")
        raw = np.loadtxt(fh, delimiter=",", ndmin=2, usecols=(*range(n), 2 * n))
    if raw.shape[0] != grid.num_nodes:
        raise ValueError(f"field file has {raw.shape[0]} rows, expected {grid.num_nodes}")
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

def export_tube(tube: TubeResult, out_dir, prefix: str = "snapshot"):
    """Write one CSV per snapshot plus a JSON manifest.

    Returns the manifest path.  The manifest records snapshot times, the
    grid, the solver configuration with the tube's direction, and the
    per-file names in order.
    """
    os.makedirs(out_dir, exist_ok=True)
    files = []
    for k, (t, fld) in enumerate(tube.snapshots):
        name = f"{prefix}_{k:04d}.csv"
        field_to_csv(fld, os.path.join(out_dir, name))
        files.append({"time": t, "file": name})
    manifest = {
        "times": [t for t, _ in tube.snapshots],
        "grid": _grid_to_dict(tube.grid),
        "config": {**asdict(tube.config), "direction": tube.direction},
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
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    try:
        grid = _grid_from_dict(manifest["grid"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed tube manifest {manifest_path}: {exc}") from exc
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
