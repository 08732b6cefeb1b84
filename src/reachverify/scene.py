"""Scene descriptions and file formats.

A scene bundles the grid with the initial, goal, and obstacle shape sets.
Scenes, disturbance bounds, models, and reports are JSON; fields, masks,
datasets, and Monte-Carlo samples are CSV with one row per node or sample.
Fields and masks are stored as each node's index columns and its value;
the plot slices of ``export-plots`` hold each node's coordinates and its
value instead, the node given by the row's position.
Floats are written in the shortest decimal form that parses back to the
same value: a field's values (every tube snapshot, and ``brt_union.csv``),
which must be float32s, in float32's shortest form, at most 9 significant
digits, and every other float in ``repr``, the double's.  A plot slice's
coordinates are the float32 form of the node coordinates, or, on an axis
whose nodes float32 cannot tell apart or hold, their ``repr``.  Identical
inputs therefore produce byte-identical files.

A tube directory holds one store CSV per snapshot and a ``manifest.json``.
:class:`TubeWriter` is the one writer of it: passed to ``solve_frt`` /
``solve_brt`` as their snapshot sink, it writes each snapshot the moment
the solve takes it, so no snapshot stays in memory; :func:`export_tube`
feeds it the snapshots of an in-memory tube.  The files are staged in a
hidden sibling directory that replaces the tube directory only once the
manifest is written, so a failed solve leaves no tube directory.

Two ready-made navigation scenes ship with the package: a planar indoor
scene (circular start and goal regions, two rectangular obstacles) and a
spatial urban scene (cuboid start and goal regions, two vertical cylinder
obstacles).
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import shutil
from dataclasses import asdict, dataclass

import numpy as np

from .dynamics import ActionBounds, ConstantPolicy
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
    "TubeWriter",
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
    "replace_dir",
    "slice_row_prefixes",
    "staging_dir",
    "store_to_slices",
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


def policy_from_dict(d: dict):
    """The policy of an inline policy object, its values type-checked; the
    one inline kind is ``{"kind": "constant", "action", "action_lo",
    "action_hi"}``, and network policies are model files."""
    floats = tuple[float, ...]
    bounds = ActionBounds(json_value(floats, d["action_lo"], "action_lo"),
                          json_value(floats, d["action_hi"], "action_hi"))
    kind = json_value(str, d.get("kind"), "kind")
    if kind == "constant":
        return ConstantPolicy(json_value(floats, d["action"], "action"), bounds)
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
# that a chunk's strings stay under a MB.  Float32 text passes through a
# ``<U32`` array, 128 bytes a row: at 2048 rows a chunk, a streamed 45^3
# solve peaked 0.1 MB above its workspace and two fields.  A block's cells
# cost memory by the row, and float32 rows are about 17 characters, so a
# block of 32 KB holds fewer rows than one of 64 KB did in ``repr`` text.
_CHUNK_ROWS = 1024
_CHUNK_BYTES = 1 << 15


def _node_cells(tables, counts, start: int, stop: int) -> list:
    """Cell text of nodes ``start..stop-1`` (C order), one list per table:
    table ``k``, an object array, maps a node's index on axis ``k`` to its
    cell text."""
    idx = np.unravel_index(np.arange(start, stop), counts)
    return [t[i].tolist() for t, i in zip(tables, idx)]


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


# The value column of a field store, whose values are float32 text.
_F32_COLUMN = "value_f32"


def _float32_text(values) -> list:
    """The shortest text of each float32 of ``values`` (Steele & White's
    unique form, as numpy prints it), whatever numpy's print options: under
    ``legacy="1.13"`` numpy would print 123456.7 as 123457.0."""
    with np.printoptions(legacy=False):
        return values.astype(np.float32).astype(str).tolist()


def field_to_csv(field: ScalarField, path) -> None:
    """The store format: one row per node in C order, its index columns
    ``i0..i{n-1}``, then its value under ``value_f32``: the shortest text
    of the value's float32, which reads back to the same bits
    (:func:`field_from_csv`).  The text is made one chunk of rows at a
    time.

    Every value must be a float32, as every tube value is; a field with a
    value float32 cannot hold exactly is a ValueError, and no file is
    written.
    """
    flat = field.values.ravel()
    chunks = (flat[a:a + _CHUNK_ROWS] for a in range(0, flat.size, _CHUNK_ROWS))
    with np.errstate(over="ignore"):
        if not all(np.array_equal(c.astype(np.float32), c) for c in chunks):
            raise ValueError(f"{path}: the field has a value float32 cannot hold exactly")
    _write_node_rows(path, field.grid, _F32_COLUMN, lambda a, b: _float32_text(flat[a:b]))


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
        names = ",".join([f"i{k}" for k in range(n)] + [_F32_COLUMN])
        raise ValueError(f"{path}: rows {start}..{start + rows - 1} do not list the grid "
                         f"nodes in C order, one {names} row each")
    return cells[n::n + 2]


def _store_blocks(fh, path, grid: Grid):
    """The value text of the store file ``fh``, block by block, after
    checking its header: anything but ``i0..i{n-1},value_f32`` is a
    ValueError naming the file."""
    names = [f"i{k}" for k in range(grid.dims)] + [_F32_COLUMN]
    header = fh.readline().rstrip("\n").split(",")
    if header != names:
        raise ValueError(f"{path} has {len(header)} columns {','.join(header)}, "
                         f"expected {len(names)}: {','.join(names)}")
    tables = _index_tables(grid)
    start = 0
    for block in _line_blocks(fh):
        values = _block_values(path, block, grid, tables, start)
        start += len(values)
        yield values
    if start < grid.num_nodes:
        raise ValueError(f"{path} has {start} rows, expected {grid.num_nodes}")


def read_store_text(path, grid: Grid):
    """The value text of a :func:`field_to_csv` file, one list per block of
    rows, in node order.

    The header must be ``i0..i{n-1},value_f32``, and the rows must list
    every node of ``grid`` once, in C order, with its index text as
    written; anything else (a missing, repeated, negative or out-of-range
    index, a row with a cell too many or too few) is a ValueError naming
    the file.
    """
    with open(path) as fh:
        yield from _store_blocks(fh, path, grid)


def field_from_csv(path, grid: Grid, time_tag: float = 0.0) -> ScalarField:
    """Read a :func:`field_to_csv` file back, checked as by
    :func:`read_store_text`.  The values are rounded to float32 once
    parsed, which gives back the stored float32 exactly, and widened to
    doubles."""
    with open(path) as fh:
        text = itertools.chain.from_iterable(_store_blocks(fh, path, grid))
        values = np.fromiter(map(float, text), float).reshape(grid.counts)
    values[...] = values.astype(np.float32)
    return ScalarField(grid, values, time_tag, copy=False)


# A mask flag's text, looked up by the flag.
_FLAG_TEXT = np.array(["0", "1"], dtype=object)


def mask_to_csv(grid: Grid, mask: np.ndarray, path) -> None:
    """The store format with a 0/1 flag: index columns, then ``inside``."""
    flags = mask.ravel().astype(np.intp)
    _write_node_rows(path, grid, "inside", lambda a, b: _FLAG_TEXT[flags[a:b]].tolist())


def _coordinate_table(coords: np.ndarray) -> np.ndarray:
    """The text of each node coordinate of one axis: float32's shortest
    form, as the stores write values, unless two nodes of the axis would
    then read alike or one would overflow float32; then each coordinate's
    ``repr``."""
    with np.errstate(over="ignore"):
        narrow = coords.astype(np.float32)
    text = _float32_text(narrow)
    if len(set(text)) < len(text) or not np.isfinite(narrow).all():
        text = list(map(repr, coords.tolist()))
    return np.array(text, dtype=object)


def slice_row_prefixes(grid: Grid) -> list:
    """The text before the value of each plot-slice row of the 2-D ``grid``,
    in C order: the node's coordinates ``x0,x1``.

    A coordinate is written in the shortest text of its float32, the form
    of the values beside it, so ``-0.9299999999999999`` reads ``-0.93``.
    An axis on which float32 cannot tell two nodes apart, or cannot hold a
    coordinate, keeps the double's ``repr`` for all its nodes, so no two
    rows share a prefix.  Row ``r`` is node ``(r // n1, r % n1)`` of the
    grid; its exact coordinates are that node's on the run's grid.
    """
    tables = [_coordinate_table(grid.axis_coords(k)) for k in range(grid.dims)]
    return list(map(",".join, zip(*_node_cells(tables, grid.counts, 0, grid.num_nodes))))


def store_to_slices(path, grid: Grid, planes, out_paths, prefixes) -> None:
    """Plot slices of the store file ``path`` of ``grid``: the z plane
    ``planes[k]`` of a 3-D field, or a whole 2-D field as plane 0, goes to
    ``out_paths[k]`` with columns ``x0,x1,value``, one row per node of the
    plane in C order, ``prefixes[node]`` (from :func:`slice_row_prefixes`)
    then the value text as stored.  The row order gives each row's node,
    so a slice holds no index columns.

    Each block of the store is written to every slice as it is read.
    """
    step = grid.counts[2] if grid.dims == 3 else 1
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(p, "w")) for p in out_paths]
        for fh in files:
            fh.write("x0,x1,value\n")
        done = [0] * len(files)  # rows written to each slice
        start = 0  # the first node of the block
        for text in read_store_text(path, grid):
            for k, (fh, j) in enumerate(zip(files, planes)):
                values = text[(j - start) % step::step]
                if values:
                    a = done[k]
                    fh.write("\n".join(map(",".join, zip(prefixes[a:a + len(values)], values)))
                             + "\n")
                    done[k] = a + len(values)
            start += len(text)


# ---------------------------------------------------------------------------
# Tube export
# ---------------------------------------------------------------------------

def staging_dir(path) -> str:
    """Make and return ``.<name>.partial``, an empty sibling of the
    directory ``path`` to build its new contents in, after removing what a
    killed write left; :func:`replace_dir` then puts it in place.  A
    ``path`` that is there but not a directory is a NotADirectoryError, so
    a writer fails before any work it could not put in place."""
    if os.path.lexists(path) and not os.path.isdir(path):
        raise NotADirectoryError(f"{path} is not a directory")
    parent, name = os.path.split(os.path.normpath(path))
    staging = os.path.join(parent, f".{name}.partial")
    for leftover in (staging, os.path.join(parent, f".{name}.old")):
        shutil.rmtree(leftover, ignore_errors=True)
    os.makedirs(staging)
    return staging


def replace_dir(staging, path) -> None:
    """Replace the directory ``path``, if there is one, by the directory
    ``staging`` from :func:`staging_dir`."""
    parent, name = os.path.split(os.path.normpath(path))
    old = os.path.join(parent, f".{name}.old")
    if os.path.isdir(path):
        os.rename(path, old)
    os.rename(staging, path)
    shutil.rmtree(old, ignore_errors=True)


class TubeWriter:
    """The store writer of a tube directory, a snapshot sink for
    ``solve_frt`` / ``solve_brt``.

    Used as a context manager.  Each call ``writer(time, field)`` writes
    ``<prefix>_NNNN.csv`` (:func:`field_to_csv`, ``NNNN`` counting from
    0000) at once and returns its name; :meth:`finish` then writes
    ``manifest.json``.  The files go to a staging directory that replaces
    ``out_dir`` only in ``finish``, so a solve that fails leaves
    ``out_dir`` as it was: absent, or the previous tube.
    """

    def __init__(self, out_dir, prefix: str = "snapshot"):
        self.out_dir = out_dir
        self.prefix = prefix
        self._files = []

    def __enter__(self):
        self._staging = staging_dir(self.out_dir)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self._staging, ignore_errors=True)  # gone after finish

    def __call__(self, time: float, field: ScalarField) -> str:
        name = f"{self.prefix}_{len(self._files):04d}.csv"
        field_to_csv(field, os.path.join(self._staging, name))
        self._files.append({"time": time, "file": name})
        return name

    def finish(self, tube: TubeResult) -> str:
        """Write the manifest of ``tube``, whose snapshots were written
        here, put the directory in place and return the manifest path.  The
        manifest records the snapshot times, the grid, the solver
        configuration with the tube's direction, the step count and the
        per-file names in order."""
        manifest = {
            "times": [entry["time"] for entry in self._files],
            "grid": _grid_to_dict(tube.grid),
            "config": {**asdict(tube.config), "direction": tube.direction},
            "steps_taken": tube.steps_taken,
            "snapshots": self._files,
        }
        with open(os.path.join(self._staging, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=2)
        replace_dir(self._staging, self.out_dir)
        return os.path.join(self.out_dir, "manifest.json")


def export_tube(tube: TubeResult, out_dir, prefix: str = "snapshot"):
    """Write the snapshots of an in-memory tube with :class:`TubeWriter`,
    as a solve streams them; returns the manifest path."""
    with TubeWriter(out_dir, prefix) as write:
        for t, field in tube.snapshots:
            write(t, field)
        return write.finish(tube)


def tube_snapshot_files(manifest_path):
    """The grid, the ``(time, csv path)`` of each snapshot and the manifest
    of a tube export.  A snapshot's ``time`` must be a number and its
    ``file`` the bare name of a file in the manifest's directory."""
    base = os.path.dirname(manifest_path)
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
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
