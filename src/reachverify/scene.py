"""Scene descriptions and file formats.

A scene bundles the grid with the initial, goal, and obstacle shape sets.
Scenes, disturbance bounds, models, and reports are JSON; fields, masks,
datasets, and Monte-Carlo samples are CSV with one row per node or sample.
Fields and masks are stored as each node's index columns and its value;
only the plot slices of ``export-plots`` add the node coordinates.
All writers format floats with ``repr``, the shortest exact decimal form,
so identical inputs produce byte-identical files.

Two ready-made navigation scenes ship with the package: a planar indoor
scene (circular start and goal regions, two rectangular obstacles) and a
spatial urban scene (cuboid start and goal regions, two vertical cylinder
obstacles).
"""

from __future__ import annotations

import hashlib
import itertools
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
    "read_store_text",
    "slices_to_csv",
    "tube_snapshot_files",
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


def primitive_from_dict(d, key: str = "shape"):
    """The primitive a :func:`primitive_to_dict` entry describes; an entry
    that is not an object, or a value of the wrong type, is a ValueError
    naming ``key`` and the value's key."""
    d = json_value(dict, d, key)
    kind = d.get("kind")
    if kind not in ("ball", "box", "cylinder"):
        raise ValueError(f"{key}: unknown primitive kind {kind!r}")
    floats = tuple[float, ...]
    center = json_value(floats, d["center"], f"{key}.center")
    if kind == "box":
        return AxisBox(center, json_value(floats, d["half_widths"], f"{key}.half_widths"))
    radius = json_value(float, d["radius"], f"{key}.radius")
    if kind == "ball":
        return Ball(center, radius)
    return AxisCylinder(center, radius, json_value(int, d["axis_index"], f"{key}.axis_index"),
                        json_value(float, d["half_height"], f"{key}.half_height"))


def _shapes_to_list(shapes: ShapeSet) -> list:
    return [primitive_to_dict(p) for p in shapes.primitives]


def _shapes_from_list(items, key: str) -> ShapeSet:
    items = json_value(list, items, key)
    return ShapeSet(tuple(primitive_from_dict(d, f"{key}[{i}]") for i, d in enumerate(items)))


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
        initial_set=_shapes_from_list(doc["initial_set"], "initial_set"),
        goal_set=_shapes_from_list(doc["goal_set"], "goal_set"),
        obstacles=_shapes_from_list(doc["obstacles"], "obstacles"),
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

# Rows formatted and written per chunk, and characters read per block:
# enough that the per-chunk numpy and list calls cost nothing, few enough
# that a chunk's strings stay under a MB.
_CHUNK_ROWS = 2048
_CHUNK_BYTES = 1 << 16


def _node_cells(tables, counts, start: int, stop: int) -> list:
    """Cell text of nodes ``start..stop-1`` (C order), one list per table:
    table ``k``, an object array, maps a node's index on axis ``k mod n``
    to its cell text."""
    idx = np.unravel_index(np.arange(start, stop), counts)
    return [t[idx[k % len(counts)]].tolist() for k, t in enumerate(tables)]


def _index_tables(grid: Grid) -> list:
    return [np.array([str(i) for i in range(c)], dtype=object) for c in grid.counts]


def _write_node_rows(path, grid: Grid, last_name: str, last_text) -> None:
    """One row per node in C order: the index columns, then
    ``last_text(start, stop)``, the last cell's text for the nodes
    ``start..stop-1``.

    Each axis's index text is formatted once per call and looked up per
    node, so every row is the text the per-row form ``",".join(...)``
    would give, byte for byte.
    """
    tables = _index_tables(grid)

    def chunks():
        for start in range(0, grid.num_nodes, _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, grid.num_nodes)
            yield [*_node_cells(tables, grid.counts, start, stop), last_text(start, stop)]

    write_csv(path, [f"i{k}" for k in range(grid.dims)] + [last_name], chunks())


def field_to_csv(field: ScalarField, path) -> None:
    """The store format: one row per node in C order, its index columns
    ``i0..i{n-1}``, then its ``value``."""
    flat = field.values.ravel()
    _write_node_rows(path, field.grid, "value", lambda a, b: map(repr, flat[a:b].tolist()))


def _line_blocks(fh):
    """The text of ``fh`` in blocks of about ``_CHUNK_BYTES`` characters,
    each block whole lines ending in a line end."""
    rest = ""
    for more in iter(lambda: fh.read(_CHUNK_BYTES), ""):
        cut = more.rfind("\n") + 1
        if cut:
            yield rest + more[:cut]
            rest = more[cut:]
        else:
            rest += more
    if rest:
        yield rest + "\n"


def _block_values(path, block: str, grid: Grid, tables, start: int) -> list:
    """The value cells of the rows of ``block``, which must be the nodes
    ``start, start + 1, ...`` in C order, each its index cells as
    ``tables`` gives them, then one value cell; else a ValueError."""
    n, rows = grid.dims, block.count("\n")
    if start + rows > grid.num_nodes:
        raise ValueError(f"{path} has more than {grid.num_nodes} rows")
    # Each row becomes its n + 1 cells and a "\n" marker cell, so one
    # split checks every row's cell count.
    cells = block[:-1].replace("\n", ",\n,").split(",")
    if not (len(cells) == (n + 2) * rows - 1
            and cells[n + 1::n + 2] == ["\n"] * (rows - 1)
            and all(cells[k::n + 2] == col for k, col in
                    enumerate(_node_cells(tables, grid.counts, start, start + rows)))):
        names = ",".join([f"i{k}" for k in range(n)] + ["value"])
        raise ValueError(f"{path}: rows {start}..{start + rows - 1} do not list the grid "
                         f"nodes in C order, one {names} row each")
    return cells[n::n + 2]


def read_store_text(path, grid: Grid):
    """The value text of a :func:`field_to_csv` file, one list per block of
    rows, in node order.

    The header must be ``i0..i{n-1},value``, and the rows must list every
    node of ``grid`` once, in C order, with its index text as written;
    anything else (a missing, repeated, negative or out-of-range index, a
    row with a cell too many or too few) is a ValueError naming the file.
    """
    n = grid.dims
    expected = [f"i{k}" for k in range(n)] + ["value"]
    tables = _index_tables(grid)
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header != expected:
            raise ValueError(f"{path} has {len(header)} columns {','.join(header)}, "
                             f"expected {n + 1}: {','.join(expected)}")
        start = 0
        for block in _line_blocks(fh):
            values = _block_values(path, block, grid, tables, start)
            start += len(values)
            yield values
    if start < grid.num_nodes:
        raise ValueError(f"{path} has {start} rows, expected {grid.num_nodes}")


def field_from_csv(path, grid: Grid, time_tag: float = 0.0) -> ScalarField:
    """Read a :func:`field_to_csv` file back, checked by :func:`read_store_text`."""
    text = itertools.chain.from_iterable(read_store_text(path, grid))
    return ScalarField(grid, np.fromiter(map(float, text), float).reshape(grid.counts), time_tag)


def mask_to_csv(grid: Grid, mask: np.ndarray, path) -> None:
    """The store format with a 0/1 flag: index columns, then ``inside``."""
    flags = mask.ravel().astype(int)
    _write_node_rows(path, grid, "inside", lambda a, b: map(str, flags[a:b].tolist()))


def slices_to_csv(grid: Grid, slices) -> None:
    """Plot slices of the 2-D ``grid``: for each ``(path, value_text)`` of
    ``slices``, one row per node in C order, its index columns, its
    coordinates ``x0,x1``, then ``value_text[node]``.

    The row text before the value is formatted once for all the slices,
    from each axis's index and ``repr`` coordinate text.
    """
    n = grid.dims
    tables = _index_tables(grid) + [np.array(list(map(repr, grid.axis_coords(k).tolist())),
                                             dtype=object) for k in range(n)]
    rows = list(map(",".join, zip(*_node_cells(tables, grid.counts, 0, grid.num_nodes))))
    header = [f"i{k}" for k in range(n)] + [f"x{k}" for k in range(n)] + ["value"]
    for path, text in slices:
        write_csv(path, header, ([rows[a:a + _CHUNK_ROWS], text[a:a + _CHUNK_ROWS]]
                                 for a in range(0, grid.num_nodes, _CHUNK_ROWS)))


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


def tube_snapshot_files(manifest_path):
    """The grid, the ``(time, csv path)`` of each snapshot and the manifest
    of a tube export.  A snapshot's ``time`` must be a number and its
    ``file`` the bare name of a file in the manifest's directory."""
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    base = os.path.dirname(manifest_path)
    try:
        grid = _grid_from_dict(manifest["grid"])
        files = []
        for k, entry in enumerate(json_value(list, manifest["snapshots"], "snapshots")):
            key = f"snapshots[{k}]"
            entry = json_value(dict, entry, key)
            name = json_value(str, entry["file"], f"{key}.file")
            if name in ("", ".", "..") or os.path.basename(name) != name:
                raise ValueError(f"{key}.file must name a file in the tube directory, "
                                 f"not {json.dumps(name)}")
            files.append((json_value(float, entry["time"], f"{key}.time"),
                          os.path.join(base, name)))
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed tube manifest {manifest_path}: {exc}") from exc
    return grid, files, manifest


def load_tube_manifest(manifest_path):
    """Read back a tube export: the grid and the time-ordered fields."""
    grid, files, manifest = tube_snapshot_files(manifest_path)
    return grid, [(t, field_from_csv(path, grid, t)) for t, path in files], manifest


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
