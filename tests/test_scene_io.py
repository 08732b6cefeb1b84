import importlib.util
import itertools
import json
import os
from pathlib import Path

import numpy as np
import pytest

from conftest import bits, const_system
from reachverify.geometry import AxisBox, AxisCylinder, Ball, ScalarField, ShapeSet, build_grid
from reachverify.nn import TransitionDataset, load_dataset, save_dataset
from reachverify.scene import (
    _CHUNK_ROWS,
    TubeWriter,
    air_scene,
    export_tube,
    field_from_csv,
    field_to_csv,
    file_sha256,
    land_scene,
    load_scene,
    load_tube_manifest,
    mask_to_csv,
    primitive_from_dict,
    primitive_to_dict,
    read_store_text,
    save_scene,
)
from reachverify.solver import SolverConfig, solve_brt, solve_frt


def test_primitive_round_trip():
    prims = [
        Ball([1.0, 2.0], 0.5),
        AxisBox([0.0, -1.0], [0.3, 0.4]),
        AxisCylinder([1.0, 2.0, 3.0], 0.7, axis_index=2, half_height=1.5),
    ]
    for p in prims:
        q = primitive_from_dict(primitive_to_dict(p))
        assert type(q) is type(p)
        assert np.array_equal(q.center, p.center)
    with pytest.raises(ValueError):
        primitive_from_dict({"kind": "torus"})


@pytest.mark.parametrize(
    "edit,key",
    [
        ({"radius": "0.5"}, "radius"),
        ({"axis_index": 2.7}, "axis_index"),
        ({"axis_index": 2.0}, "axis_index"),
        ({"half_height": True}, "half_height"),
        ({"center": [0, "0", 0]}, "center"),
        ({"center": "0,0,0"}, "center"),
    ],
)
def test_primitive_rejects_wrongly_typed_values(edit, key):
    d = {"kind": "cylinder", "center": [0, 0, 0], "radius": 0.5, "axis_index": 2,
         "half_height": 1}
    ok = primitive_from_dict(d)
    assert (ok.axis_index, ok.half_height) == (2, 1.0)
    with pytest.raises(ValueError, match=key):
        primitive_from_dict({**d, **edit})


def test_scene_round_trip(tmp_path):
    scene = land_scene((41, 41))
    path = tmp_path / "scene.json"
    save_scene(scene, path)
    loaded = load_scene(path)
    assert loaded.grid.counts == scene.grid.counts
    assert np.array_equal(loaded.grid.lo, scene.grid.lo)
    assert len(loaded.obstacles.primitives) == 2
    pts = np.random.default_rng(0).uniform(-1, 6, size=(50, 2))
    assert np.allclose(
        loaded.obstacles.signed_distance(pts), scene.obstacles.signed_distance(pts)
    )


def test_scene_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError):
        load_scene(path)


def test_field_csv_round_trip_and_determinism(tmp_path):
    grid = build_grid([-1, 0], [1, 2], [7, 9])
    field = _float32_field(grid, 1)
    p1 = tmp_path / "f1.csv"
    p2 = tmp_path / "f2.csv"
    field_to_csv(field, p1)
    field_to_csv(field, p2)
    assert p1.read_bytes() == p2.read_bytes()
    back = field_from_csv(p1, grid)
    assert np.array_equal(bits(back.values), bits(field.values))
    _reference_store_to_csv(grid, "value_f32", _value_text(field.values.ravel()),
                            tmp_path / "ref.csv")
    assert p1.read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("value", [0.1, 1 / 3, 1e39, 2.0**-150, -1e-300])
def test_field_store_refuses_a_value_float32_cannot_hold(tmp_path, value):
    # The store has one form, float32 text: a double it would round is a
    # ValueError, raised before the file is opened.
    grid = build_grid([-1, 0], [1, 2], [40, 41])
    values = _float32_field(grid, 2).values.copy()
    values.flat[1500] = value
    path = tmp_path / "f.csv"
    with pytest.raises(ValueError, match="f.csv: .* float32 cannot hold exactly"):
        field_to_csv(ScalarField(grid, values), path)
    assert not path.exists()


def _float32_field(grid, seed):
    # Random finite float32 bit patterns, subnormals included, and the
    # edge values, widened to doubles.
    patterns = np.random.default_rng(seed).integers(0, 2**32, size=grid.num_nodes,
                                                    dtype=np.uint64)
    values = patterns.astype(np.uint32).view(np.float32)
    values = np.where(np.isfinite(values), values, np.float32(0.5))
    tiny, big = np.float32(np.finfo(np.float32).smallest_subnormal), np.finfo(np.float32).max
    values[:6] = [0.0, -0.0, tiny, -tiny, big, -big]
    return ScalarField(grid, values.astype(np.float64).reshape(grid.counts))


@pytest.mark.parametrize("counts", [(67, 71), (17, 13, 19)])
def test_float32_field_round_trips_bit_for_bit(tmp_path, counts):
    grid = build_grid([-1.0] * len(counts), [1.0] * len(counts), counts)
    field = _float32_field(grid, sum(counts))
    path = tmp_path / "f.csv"
    field_to_csv(field, path)
    header, _, body = path.read_text().partition("\n")
    assert header == ",".join([f"i{k}" for k in range(grid.dims)] + ["value_f32"])
    # each value in float32's shortest text: at most 9 significant digits
    text = [line.rsplit(",", 1)[1] for line in body.splitlines()]
    assert text == _value_text(field.values.ravel())
    assert max(len(t.lstrip("-").split("e")[0].replace(".", "").strip("0")) for t in text) <= 9
    back = field_from_csv(path, grid)
    assert np.array_equal(bits(back.values), bits(field.values))
    # numpy's print options do not change the text
    for options in ({"legacy": "1.13"}, {"precision": 2, "floatmode": "fixed"}):
        with np.printoptions(**options):
            field_to_csv(field, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes(), options


# "value" is the header of the double-repr form that stores had before
# their values were float32.
@pytest.mark.parametrize("column", ["inside", "value_f64", "Value", "value"])
def test_store_header_naming_neither_form_is_refused(tmp_path, column):
    grid = build_grid([-1, 0], [1, 2], [3, 4])
    path = tmp_path / "f.csv"
    _reference_store_to_csv(grid, column, ["0.5"] * grid.num_nodes, path)
    with pytest.raises(ValueError, match=f"f.csv has 3 columns i0,i1,{column}, "
                                         "expected 3: i0,i1,value_f32$"):
        field_from_csv(path, grid)
    with pytest.raises(ValueError, match="f.csv has 3 columns"):
        list(read_store_text(path, grid))


def test_field_csv_rejects_wrong_shape(tmp_path):
    grid = build_grid([-1, 0], [1, 2], [3, 4])
    path = tmp_path / "f.csv"
    field_to_csv(ScalarField(grid, np.zeros(grid.counts)), path)
    lines = path.read_text().splitlines()
    with pytest.raises(ValueError, match="columns"):
        field_from_csv(path, build_grid([-1, 0, 0], [1, 2, 1], [3, 4, 3]))
    (tmp_path / "cut.csv").write_text("\n".join(line.rsplit(",", 1)[0] for line in lines))
    with pytest.raises(ValueError, match="columns"):
        field_from_csv(tmp_path / "cut.csv", grid)
    (tmp_path / "short.csv").write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError, match="rows"):
        field_from_csv(tmp_path / "short.csv", grid)
    (tmp_path / "long.csv").write_text("\n".join(lines + lines[-1:]) + "\n")
    with pytest.raises(ValueError, match="more than 12 rows"):
        field_from_csv(tmp_path / "long.csv", grid)
    # a file of the old format, with the coordinates x0..x{n-1}, is refused
    _reference_field_to_csv(ScalarField(grid, np.zeros(grid.counts)), tmp_path / "old.csv")
    with pytest.raises(ValueError,
                       match="old.csv has 5 columns i0,i1,x0,x1,value, "
                             "expected 3: i0,i1,value_f32$"):
        field_from_csv(tmp_path / "old.csv", grid)


def test_mask_csv(tmp_path):
    grid = build_grid([0, 0], [1, 1], [4, 4])
    mask = np.zeros(grid.counts, dtype=bool)
    mask[1, 2] = True
    path = tmp_path / "mask.csv"
    mask_to_csv(grid, mask, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "i0,i1,inside"
    assert len(lines) == 17
    flags = [int(l.split(",")[-1]) for l in lines[1:]]
    assert sum(flags) == 1


def _value_text(values) -> list:
    # Per value, the store's text: float32's shortest form.
    return [str(np.float32(v)) for v in values]


def _reference_field_to_csv(field, path):
    # The per-row writer of the field format that had the coordinates
    # x0..x{n-1}, kept as the byte reference of the plot slices, with the
    # value text of the store.  A coordinate is its float32's shortest
    # text, unless two nodes of its axis would then read alike or one
    # would overflow float32: then every coordinate of that axis is its
    # double's repr.
    grid = field.grid
    n = grid.dims
    header = [f"i{k}" for k in range(n)] + [f"x{k}" for k in range(n)] + ["value"]
    indices = np.indices(grid.counts).reshape(n, -1).T
    coords = grid.flat_points()
    float32 = []
    for k in range(n):
        with np.errstate(over="ignore"):
            text = {str(np.float32(x)) for x in grid.axis_coords(k)}
        float32.append(len(text) == grid.counts[k] and not text & {"inf", "-inf"})
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for idx, xyz, v in zip(indices, coords, _value_text(field.values.ravel())):
            cells = ([str(int(i)) for i in idx]
                     + [str(np.float32(x)) if float32[k] else repr(float(x))
                        for k, x in enumerate(xyz)]
                     + [v])
            fh.write(",".join(cells) + "\n")


def _reference_store_to_csv(grid, last_name, cells, path):
    # Per-row writer of the store format: index columns, then one cell.
    n = grid.dims
    indices = np.indices(grid.counts).reshape(n, -1).T
    with open(path, "w") as fh:
        fh.write(",".join([f"i{k}" for k in range(n)] + [last_name]) + "\n")
        for idx, cell in zip(indices, cells):
            fh.write(",".join([str(int(i)) for i in idx] + [cell]) + "\n")


# Float32 values, as doubles, whose text is easy to get wrong: the signed
# zeros, the smallest and a larger subnormal, the largest magnitude, and
# values with exponent or long decimal text.
_F32 = np.finfo(np.float32)
_SPECIAL_VALUES = [float(np.float32(v)) for v in
                   [-0.0, 0.0, _F32.smallest_subnormal, -_F32.smallest_subnormal, 1e-40, -3e-39,
                    _F32.max, -_F32.max, 1e17, -1e17, 3.0, -42.0, 1e16, 0.1, 1 / 3, 2.5e-8]]


@pytest.mark.parametrize("lo,hi,counts", [
    ([-1.0, -1.0], [8.0, 6.0], (67, 71)),
    ([-1.0, -1.0, -1.0], [7.0, 6.0, 6.0], (17, 13, 19)),
    ([-0.3, 0.0, -2.0, 1.0], [0.7, 1e-3, 2.0, 5.0], (9, 8, 7, 11)),
    ([0.0, 0.0], [1.0, 1.0], (4, 5)),
])
def test_node_writers_match_per_row_reference(tmp_path, lo, hi, counts):
    grid = build_grid(lo, hi, counts)
    # The large grids cross chunk boundaries and end in a partial chunk.
    assert grid.num_nodes > _CHUNK_ROWS or grid.num_nodes < 100
    assert grid.num_nodes % _CHUNK_ROWS != 0
    rng = np.random.default_rng(7)
    values = rng.normal(scale=10.0, size=grid.num_nodes).astype(np.float32).astype(float)
    picks = rng.choice(grid.num_nodes, size=min(grid.num_nodes, 64), replace=False)
    values[picks] = np.resize(_SPECIAL_VALUES, len(picks))
    field = ScalarField(grid, values.reshape(counts))
    text = _value_text(values)
    field_to_csv(field, tmp_path / "new.csv")
    _reference_store_to_csv(grid, "value_f32", text, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    # the reader gives back the stored text, block by block, in node order
    assert list(itertools.chain.from_iterable(read_store_text(tmp_path / "new.csv", grid))) == text

    masks = [np.zeros(counts, dtype=bool), np.ones(counts, dtype=bool),
             rng.random(counts) < 0.3]
    for k, mask in enumerate(masks):
        mask_to_csv(grid, mask, tmp_path / f"mask_new_{k}.csv")
        _reference_store_to_csv(grid, "inside", [str(int(f)) for f in mask.ravel()],
                                tmp_path / f"mask_ref_{k}.csv")
        assert ((tmp_path / f"mask_new_{k}.csv").read_bytes()
                == (tmp_path / f"mask_ref_{k}.csv").read_bytes())


def test_tube_export_and_reload(tmp_path):
    grid = build_grid([-1, -1], [1, 1], [15, 15])
    sys_cl = const_system([0.4, 0.0])
    tube = solve_brt(
        ShapeSet((Ball([0.3, 0.0], 0.3),)), sys_cl,
        SolverConfig(horizon=0.6, snapshot_stride=5),
        grid,
    )
    manifest_path = export_tube(tube, tmp_path / "tube", prefix="brt")
    grid2, snapshots, manifest = load_tube_manifest(manifest_path)
    assert grid2.counts == grid.counts
    assert len(snapshots) == len(tube.snapshots)
    for (t1, f1), (t2, f2) in zip(tube.snapshots, snapshots):
        assert t1 == t2
        assert np.array_equal(f1.values, f2.values)
    assert manifest["config"]["direction"] == "backward"
    assert manifest["steps_taken"] == tube.steps_taken
    # a wrongly typed grid value is not coerced: the error names the file
    manifest["grid"]["counts"] = ["15", 15]
    (tmp_path / "tube" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="manifest.json.*grid.counts"):
        load_tube_manifest(manifest_path)


def test_dataset_csv_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    data = TransitionDataset(
        rng.normal(size=(20, 2)), rng.normal(size=(20, 2)), rng.normal(size=(20, 2))
    )
    path = tmp_path / "data.csv"
    save_dataset(data, path)
    back = load_dataset(path, 2, 2)
    assert np.array_equal(back.states, data.states)
    assert np.array_equal(back.actions, data.actions)
    assert np.array_equal(back.deltas, data.deltas)
    with pytest.raises(ValueError):
        load_dataset(path, 3, 2)


def _save_dataset_per_row(data, path):
    # Reference writer: one repr'd row at a time.
    n, m = data.n_state, data.n_action
    header = (
        [f"s{i}" for i in range(n)] + [f"a{i}" for i in range(m)] + [f"ds{i}" for i in range(n)]
    )
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for s, a, d in zip(data.states, data.actions, data.deltas):
            fh.write(",".join(repr(float(v)) for v in (*s, *a, *d)) + "\n")


@pytest.mark.parametrize("n_action", [0, 1, 3])
def test_save_dataset_matches_per_row_writer(tmp_path, n_action):
    rng = np.random.default_rng(3)
    rows = 37
    states = rng.normal(size=(rows, 2))
    states[:6, 0] = [-0.0, 0.0, 5e-324, -5e-324, 1e17, 1.0]
    actions = rng.uniform(-1, 1, size=(rows, n_action))
    if n_action:
        actions[:4, -1] = [3.0, -2.0, 1e-300, -0.0]
    deltas = np.round(rng.normal(size=(rows, 2)) * 100.0) / 8.0
    data = TransitionDataset(states, actions, deltas)
    save_dataset(data, tmp_path / "new.csv")
    _save_dataset_per_row(data, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    back = load_dataset(tmp_path / "new.csv", 2, n_action)
    assert np.array_equal(back.states, data.states)
    assert np.array_equal(np.signbit(back.states), np.signbit(data.states))


def test_air_scene_primitives_strictly_inside():
    scene = air_scene((31, 31, 31))
    for shapes in (scene.initial_set, scene.goal_set, scene.obstacles):
        for prim in shapes.primitives:
            lo, hi = prim.bounding_box()
            assert np.all(lo > scene.grid.lo) and np.all(hi < scene.grid.hi)


def test_inline_policy_round_trip():
    # The inline constant policy reads back its action and box exactly.
    from reachverify.dynamics import ConstantPolicy
    from reachverify.scene import policy_from_dict

    doc = {"kind": "constant", "action": [0.5, 0.2], "action_lo": [0.0, -1.0],
           "action_hi": [1.0, 1.0]}
    back = policy_from_dict(doc)
    assert isinstance(back, ConstantPolicy)
    assert back.action.tolist() == doc["action"]
    assert back.bounds.lo.tolist() == doc["action_lo"]
    assert back.bounds.hi.tolist() == doc["action_hi"]
    assert back.batch(np.zeros((3, 2))).tolist() == [doc["action"]] * 3

    for kind in ("unknown", "tabulated"):
        with pytest.raises(ValueError, match="unknown policy kind"):
            policy_from_dict({"kind": kind, "action_lo": [0], "action_hi": [1]})


def test_file_sha256_stable(tmp_path):
    p = tmp_path / "x.txt"
    p.write_text("hello")
    assert file_sha256(p) == file_sha256(p)
    q = tmp_path / "y.txt"
    q.write_text("hello!")
    assert file_sha256(p) != file_sha256(q)


def _streamed_and_in_memory(tmp_path, dims, stride):
    """One forward tube solved twice, streamed to ``streamed/`` and in
    memory, then exported to ``memory/`` over a stale file."""
    grid = build_grid([-1.0] * dims, [1.0] * dims, [23, 19, 9][:dims])
    sys_cl = const_system([0.4, -0.3, 0.2][:dims])
    seed = ShapeSet((Ball([-0.3] * dims, 0.3),))
    cfg = SolverConfig(horizon=1.5, snapshot_stride=stride)
    with TubeWriter(tmp_path / "streamed", prefix="frt") as store:
        streamed = solve_frt(seed, sys_cl, cfg, grid, sink=store)
        store.finish(streamed)
    tube = solve_frt(seed, sys_cl, cfg, grid)
    (tmp_path / "memory").mkdir()
    (tmp_path / "memory" / "stale.csv").write_text("gone\n")
    export_tube(tube, tmp_path / "memory", prefix="frt")
    return streamed, tube


@pytest.mark.parametrize("dims,stride", [(2, 3), (3, 2)])
def test_streamed_tube_equals_export_of_the_in_memory_tube(tmp_path, dims, stride):
    streamed, tube = _streamed_and_in_memory(tmp_path, dims, stride)
    assert sorted(os.listdir(tmp_path)) == ["memory", "streamed"]  # no staging left
    names = sorted(os.listdir(tmp_path / "streamed"))
    assert len(names) == len(tube.snapshots) + 1 > 3
    assert sorted(os.listdir(tmp_path / "memory")) == names
    for name in names:
        assert ((tmp_path / "streamed" / name).read_bytes()
                == (tmp_path / "memory" / name).read_bytes())
    assert streamed.snapshots == tuple((t, f"frt_{k:04d}.csv")
                                       for k, (t, _) in enumerate(tube.snapshots))
    assert tube.final is tube.snapshots[-1][1]
    assert np.array_equal(streamed.final.values, tube.final.values)
    assert streamed.final.time_tag == tube.final.time_tag == tube.times[-1]


def test_tracer_counts_a_streamed_tube_as_an_in_memory_one(tmp_path):
    # perfbench's tracer reads a tube's step and snapshot counts from the
    # result, so traced passes count the same tubes as before.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    streamed, tube = _streamed_and_in_memory(tmp_path, 2, 3)
    counts = tracing._tube((), {}, streamed)
    assert counts == tracing._tube((), {}, tube)
    assert counts["snapshots"] == len(tube.snapshots) > 3
    assert counts["steps"] == tube.steps_taken > 0
