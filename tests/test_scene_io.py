import itertools
import json

import numpy as np
import pytest

from conftest import const_system
from reachverify.geometry import AxisBox, AxisCylinder, Ball, ScalarField, ShapeSet, build_grid
from reachverify.nn import TransitionDataset, load_dataset, save_dataset
from reachverify.scene import (
    _CHUNK_ROWS,
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
from reachverify.solver import SolverConfig, solve_brt


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
    rng = np.random.default_rng(1)
    field = ScalarField(grid, rng.normal(size=grid.counts))
    p1 = tmp_path / "f1.csv"
    p2 = tmp_path / "f2.csv"
    field_to_csv(field, p1)
    field_to_csv(field, p2)
    assert p1.read_bytes() == p2.read_bytes()
    back = field_from_csv(p1, grid)
    assert np.array_equal(back.values, field.values)


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
                       match="old.csv has 5 columns i0,i1,x0,x1,value, expected 3: i0,i1,value"):
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


def _reference_field_to_csv(field, path):
    # The per-row writer of the field format that had the coordinates
    # x0..x{n-1}, kept as the byte reference of the plot slices.
    grid = field.grid
    n = grid.dims
    header = [f"i{k}" for k in range(n)] + [f"x{k}" for k in range(n)] + ["value"]
    indices = np.indices(grid.counts).reshape(n, -1).T
    coords = grid.flat_points()
    values = field.values.ravel()
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for idx, xyz, v in zip(indices, coords, values):
            cells = [str(int(i)) for i in idx] + [repr(float(x)) for x in xyz] + [repr(float(v))]
            fh.write(",".join(cells) + "\n")


def _reference_store_to_csv(grid, last_name, cells, path):
    # Per-row writer of the store format: index columns, then one cell.
    n = grid.dims
    indices = np.indices(grid.counts).reshape(n, -1).T
    with open(path, "w") as fh:
        fh.write(",".join([f"i{k}" for k in range(n)] + [last_name]) + "\n")
        for idx, cell in zip(indices, cells):
            fh.write(",".join([str(int(i)) for i in idx] + [cell]) + "\n")


_SPECIAL_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e17, -1e17, np.nan, np.inf, -np.inf,
                   3.0, -42.0, 1e16, 0.1, 1 / 3, 2.5e-8, np.finfo(float).max]


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
    values = rng.normal(scale=10.0, size=grid.num_nodes)
    picks = rng.choice(grid.num_nodes, size=min(grid.num_nodes, 64), replace=False)
    values[picks] = np.resize(_SPECIAL_VALUES, len(picks))
    field = ScalarField(grid, np.zeros(counts))
    # ScalarField rejects nan and inf; set them behind its back so the
    # writers' text for them is compared too.
    object.__setattr__(field, "values", values.reshape(counts))
    text = [repr(float(v)) for v in values]
    field_to_csv(field, tmp_path / "new.csv")
    _reference_store_to_csv(grid, "value", text, tmp_path / "ref.csv")
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
        SolverConfig(horizon=0.6, snapshot_stride=5, convergence_eps=0.0),
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
    from reachverify.dynamics import ActionBounds, ConstantPolicy, TabulatedPolicy
    from reachverify.scene import policy_from_dict, policy_to_dict

    bounds = ActionBounds([0.0, -1.0], [1.0, 1.0])
    const = ConstantPolicy([0.5, 0.2], bounds)
    back = policy_from_dict(policy_to_dict(const))
    origin = np.zeros((1, 2))
    assert np.array_equal(back.batch(origin), const.batch(origin))

    grid = build_grid([0, 0], [1, 1], [3, 3])
    table = np.zeros((3, 3, 2))
    table[..., 0] = 0.7
    tab = TabulatedPolicy(grid, table, bounds)
    back2 = policy_from_dict(policy_to_dict(tab))
    pts = np.random.default_rng(0).uniform(0, 1, size=(20, 2))
    assert np.allclose(back2.batch(pts), tab.batch(pts))

    with pytest.raises(ValueError):
        policy_from_dict({"kind": "unknown", "action_lo": [0], "action_hi": [1]})


def test_file_sha256_stable(tmp_path):
    p = tmp_path / "x.txt"
    p.write_text("hello")
    assert file_sha256(p) == file_sha256(p)
    q = tmp_path / "y.txt"
    q.write_text("hello!")
    assert file_sha256(p) != file_sha256(q)
