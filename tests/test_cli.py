import csv
import dataclasses
import inspect
import json
import os
import re
import shutil
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import LAND_RUN_CONFIG, bits, const_system
from reachverify import cli, solver
from reachverify.cli import _write_ground_truth, main
from reachverify.dynamics import ActionBounds, MlpPolicy, save_policy
from reachverify.error_bounds import DisturbanceBounds, save_bounds
from reachverify.geometry import (
    AxisBox,
    AxisCylinder,
    Ball,
    ScalarField,
    ShapeSet,
    build_grid,
    level_set_from_shapes,
)
from reachverify.nn import (
    MlpModel,
    ModelMeta,
    TrainingConfig,
    TransitionDataset,
    save_dataset,
    save_model,
)
from reachverify.scene import (
    Scene,
    air_scene,
    export_tube,
    field_from_csv,
    land_scene,
    load_scene,
    load_tube_manifest,
    save_scene,
    tube_snapshot_files,
)
from reachverify.solver import SolverConfig, TubeResult, solve_frt
from reachverify.trainer import TrainRunConfig
from test_oracle import count_forks
from test_scene_io import _SPECIAL_VALUES, _reference_field_to_csv


def write_zero_model(path, n_state=2, n_action=2, dt=0.1):
    n_in = n_state + n_action
    model = MlpModel(
        layer_sizes=(n_in, 4, n_state),
        weights=(np.zeros((n_in, 4)), np.zeros((4, n_state))),
        biases=(np.zeros(4), np.zeros(n_state)),
        output_scale=np.ones(n_state),
        meta=ModelMeta(n_state=n_state, n_action=n_action, dt_env=dt),
    )
    save_model(model, path)
    return model


def write_zero_policy(path, n_state=2, n_action=2):
    bounds = ActionBounds(np.full(n_action, -1.0), np.full(n_action, 1.0))
    model = MlpModel(
        layer_sizes=(n_state, 4, n_action),
        weights=(np.zeros((n_state, 4)), np.zeros((4, n_action))),
        biases=(np.zeros(4), np.zeros(n_action)),
        output_scale=np.ones(n_action),
        meta=ModelMeta(n_state=n_state, n_action=n_action, dt_env=0.1, role="policy"),
    )
    policy = MlpPolicy(model, bounds)
    save_policy(policy, path)


def make_scene(tmp_path, obstacle_center, obstacle_radius, counts=(31, 31)):
    grid = build_grid([-1, -1], [1, 1], counts)
    scene = Scene(
        grid=grid,
        initial_set=ShapeSet((Ball([0.0, 0.0], 0.3),)),
        goal_set=ShapeSet((Ball([0.8, 0.8], 0.1),)),
        obstacles=ShapeSet((Ball(obstacle_center, obstacle_radius),)),
    )
    path = tmp_path / "scene.json"
    save_scene(scene, path)
    return path


def verify_config(tmp_path, scene_path, horizon=0.4, stride=5):
    model_path = tmp_path / "model.json"
    policy_path = tmp_path / "policy.json"
    bounds_path = tmp_path / "bounds.json"
    write_zero_model(model_path)
    write_zero_policy(policy_path)
    save_bounds(DisturbanceBounds.zero(2, dt_env=0.1), bounds_path)
    config = {
        "scene": str(scene_path),
        "model": str(model_path),
        "policy": str(policy_path),
        "bounds": str(bounds_path),
        "solver": {"horizon": horizon, "snapshot_stride": stride},
    }
    cfg_path = tmp_path / "verify.json"
    cfg_path.write_text(json.dumps(config))
    return cfg_path


def assert_slice_cells_are_floats(slices_dir):
    """Every data cell of every slices file parses with ``float``; the one
    text column is the shape label of the geometry files."""
    for name in sorted(os.listdir(slices_dir)):
        with open(os.path.join(slices_dir, name)) as fh:
            rows = list(csv.reader(fh))
        skip = 1 if rows[0][0] == "shape" else 0
        for row in rows[1:]:
            for cell in row[skip:]:
                float(cell)


def test_verify_safe_scene_exits_zero(tmp_path, capsys):
    scene_path = make_scene(tmp_path, [0.8, 0.8], 0.1)
    cfg = verify_config(tmp_path, scene_path)
    out = tmp_path / "run"
    code = main(["verify", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == "safe"
    assert report["frt_intersects_obstacle"] == [False]
    assert (out / "frt" / "manifest.json").exists()


def test_verify_strict_unsafe_exits_four(tmp_path):
    scene_path = make_scene(tmp_path, [0.0, 0.0], 0.1)  # obstacle inside start set
    cfg = verify_config(tmp_path, scene_path)
    out = tmp_path / "run"
    code = main(["verify", "--config", str(cfg), "--out", str(out), "--strict"])
    assert code == 4
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == "unsafe"
    # without --strict the same run exits 0
    code2 = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "run2")])
    assert code2 == 0


def test_missing_config_names_file(tmp_path, capsys):
    code = main(["verify", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "nope.json" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["verify.json", "scene.json", "model.json", "bounds.json"])
def test_corrupt_model_exits_config_error(tmp_path, capsys, name):
    scene_path = make_scene(tmp_path, [0.8, 0.8], 0.1)
    cfg = verify_config(tmp_path, scene_path)
    (tmp_path / name).write_text("{broken")
    code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert code == 2
    assert f"{tmp_path / name}: Expecting property name" in capsys.readouterr().err


@pytest.mark.parametrize(
    "file,edit,key",
    [
        ("scene.json", lambda d: d["obstacles"][0].update(radius="0.1"), "radius"),
        ("scene.json", lambda d: d["obstacles"][0].update(radius=True), "radius"),
        ("scene.json", lambda d: d["initial_set"][0].update(center=[0.0, True]), "center"),
        # a shape entry that is not an object
        ("scene.json", lambda d: d["obstacles"].__setitem__(0, 1), "obstacles[0]"),
        ("scene.json", lambda d: d["obstacles"].__setitem__(0, "x"), "obstacles[0]"),
        ("scene.json", lambda d: d["goal_set"].__setitem__(0, None), "goal_set[0]"),
        ("scene.json", lambda d: d.update(initial_set={"kind": "ball"}), "initial_set"),
        ("model.json", lambda d: d["meta"].update(n_state=2.0), "n_state"),
        ("model.json", lambda d: d["meta"].update(dt_env="0.1"), "dt_env"),
        ("model.json", lambda d: d.update(layer_sizes=[4, 4.5, 2]), "layer_sizes"),
        ("policy.json", lambda d: d["meta"].update(action_lo=["-1", -1.0]), "action_lo"),
        ("bounds.json", lambda d: d["upper"].__setitem__(0, True), "upper"),
        ("bounds.json", lambda d: d.update(k_sigma="3"), "k_sigma"),
        ("scene.json", lambda d: d["grid"]["counts"].__setitem__(0, 31.9), "grid.counts"),
        ("scene.json", lambda d: d["grid"]["lo"].__setitem__(0, "-1"), "grid.lo"),
        ("model.json", lambda d: d["weights"][0][0].__setitem__(0, "0.25"), "weights"),
        ("model.json", lambda d: d["biases"][0].__setitem__(0, True), "biases"),
        ("model.json", lambda d: d["output_scale"].__setitem__(0, "1"), "output_scale"),
        # every network is tanh with a c * tanh head; another form is refused
        ("model.json", lambda d: d.update(hidden_activation="relu"), "hidden_activation"),
        ("policy.json", lambda d: d.update(output_activation="linear"), "output_activation"),
    ],
)
def test_wrongly_typed_artifact_exits_config_error(tmp_path, capsys, file, edit, key):
    # Scene, model, policy and bounds files are not coerced: a string, a
    # bool or a float where an int is due stops the run and names the file
    # and the key.
    cfg = verify_config(tmp_path, make_scene(tmp_path, [0.8, 0.8], 0.1))
    doc = json.loads((tmp_path / file).read_text())
    edit(doc)
    (tmp_path / file).write_text(json.dumps(doc))
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert str(tmp_path / file) in err and key in err


def test_nonfinite_model_exits_numerical_failure(tmp_path):
    scene_path = make_scene(tmp_path, [0.8, 0.8], 0.1, counts=(11, 11))
    cfg = verify_config(tmp_path, scene_path, horizon=0.3)
    # corrupt one weight to infinity: rates turn non-finite during the solve
    doc = json.loads((tmp_path / "model.json").read_text())
    doc["weights"][0][0][0] = 1e400
    (tmp_path / "model.json").write_text(json.dumps(doc))
    with np.errstate(invalid="ignore"):
        code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert code == 3


def test_safe_set_fractions(tmp_path):
    # far obstacle, zero dynamics: everything safe
    scene_path = make_scene(tmp_path, [0.8, 0.8], 0.1)
    cfg = verify_config(tmp_path, scene_path)
    out = tmp_path / "safe"
    assert main(["safe-set", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == "completely_safe"
    assert report["safe_fraction"] == 1.0

    # obstacle swallowing the initial set: nothing safe
    scene2 = make_scene(tmp_path, [0.0, 0.0], 0.8)
    cfg2 = verify_config(tmp_path, scene2)
    out2 = tmp_path / "unsafe"
    assert main(["safe-set", "--config", str(cfg2), "--out", str(out2)]) == 0
    report2 = json.loads((out2 / "report.json").read_text())
    assert report2["verdict"] == "completely_unsafe"
    assert report2["safe_fraction"] == 0.0
    assert (out2 / "safe_mask.csv").exists()
    assert (out2 / "unsafe_mask.csv").exists()


def test_safe_set_with_mc_comparison(tmp_path):
    scene_path = make_scene(tmp_path, [0.8, 0.8], 0.1)
    cfg_doc = json.loads((verify_config(tmp_path, scene_path)).read_text())
    cfg_doc["mc"] = {"plant": "learned", "num_samples": 50, "horizon": 0.4}
    cfg = tmp_path / "cfg_mc.json"
    cfg.write_text(json.dumps(cfg_doc))
    out = tmp_path / "mc_run"
    assert main(["safe-set", "--config", str(cfg), "--out", str(out), "--compare-mc"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["mc_comparison"]["agreement"] == 1.0
    assert (out / "ground_truth.csv").exists()


def test_safe_set_store_reads_back_the_solved_fields(tmp_path, monkeypatch):
    # The benchmark's safe-set check parses the stores as doubles and needs
    # brt_union.csv to be the pointwise minimum of the final snapshots, so
    # the union and the tubes must be written in one form.
    grid = build_grid([-1, -1], [1, 1], (31, 31))
    scene = Scene(grid, ShapeSet((Ball([0.0, 0.0], 0.3),)), ShapeSet((Ball([0.8, 0.8], 0.1),)),
                  ShapeSet((Ball([0.55, -0.5], 0.2), AxisBox([-0.5, 0.6], [0.15, 0.2]))))
    save_scene(scene, tmp_path / "scene.json")
    cfg = verify_config(tmp_path, tmp_path / "scene.json", horizon=0.3, stride=4)
    # A disturbance box grows the tubes from their seeds.
    save_bounds(DisturbanceBounds([0.9, 0.4], [-0.3, -0.8], dt_env=0.1), tmp_path / "bounds.json")
    solved = {}  # each snapshot written, by tube directory
    write = cli.TubeWriter.__call__

    def keep(store, time, field):
        solved.setdefault(os.path.basename(store.out_dir), []).append((time, field.values.copy()))
        return write(store, time, field)

    monkeypatch.setattr(cli.TubeWriter, "__call__", keep)
    runs = [tmp_path / "run1", tmp_path / "run2"]
    for out in runs:
        solved.clear()
        assert main(["safe-set", "--config", str(cfg), "--out", str(out)]) == 0

    out = runs[0]
    finals = []
    for i in range(2):
        tube = f"brt_obstacle_{i}"
        _, snapshots, manifest = load_tube_manifest(out / tube / "manifest.json")
        assert len(snapshots) == len(solved[tube]) > 2
        for (t, field), (t_solved, values) in zip(snapshots, solved[tube]):
            assert t == t_solved and np.array_equal(bits(field.values), bits(values))
        final = out / tube / manifest["snapshots"][-1]["file"]
        assert final.read_text().partition("\n")[0] == "i0,i1,value_f32"
        finals.append(np.loadtxt(final, delimiter=",", skiprows=1)[:, -1])
    assert not np.array_equal(finals[0], finals[1])
    assert (out / "brt_union.csv").read_text().partition("\n")[0] == "i0,i1,value_f32"
    union = np.loadtxt(out / "brt_union.csv", delimiter=",", skiprows=1)[:, -1]
    assert np.array_equal(union, np.minimum(*finals))

    files = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(runs[1]) for p in runs[1].rglob("*") if p.is_file())
    for name in files:
        assert (out / name).read_bytes() == (runs[1] / name).read_bytes(), name


def test_mc_plant_defaults_to_the_run_env(tmp_path):
    # An mc block without "plant" rolls out the run's env, here the 3-action
    # air plant, not the 2-action land plant.
    scene_path = tmp_path / "scene.json"
    save_scene(air_scene((15, 15, 15)), scene_path)
    config = {
        "scene": str(scene_path),
        "env": "true_air",
        "plant": "true_air",
        "policy": {
            "kind": "constant",
            "action": [0.9, 0.87, 0.65],
            "action_lo": [0.0, -3.14159, -1.5708],
            "action_hi": [1.0, 3.14159, 1.5708],
        },
        "solver": {"horizon": 0.3, "snapshot_stride": 10},
        "mc": {"num_samples": 20},
    }
    cfg = tmp_path / "air.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "air_run"
    assert main(["safe-set", "--config", str(cfg), "--out", str(out), "--compare-mc"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["mc_comparison"]["num_samples"] == 20


@pytest.mark.parametrize("command", ["verify", "safe-set"])
def test_short_solver_horizon_needs_no_mc_step(tmp_path, command):
    # The mc horizon defaults to the solver's, here under half a dt step;
    # only a Monte-Carlo rollout needs a step, and these runs roll out none.
    doc = json.loads(verify_config(tmp_path, make_scene(tmp_path, [0.8, 0.8], 0.1)).read_text())
    doc["solver"]["horizon"] = 0.04
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "report.json").exists()


def test_verify_does_not_check_the_mc_sample_count(tmp_path):
    # Only a rollout needs a sample; verify and safe-set without
    # --compare-mc roll out none.
    doc = run_config(tmp_path, "verify")
    doc["mc"] = {"num_samples": 0}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    for command in ("verify", "safe-set"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "report.json").exists()


def poison_solves(monkeypatch, poison_step):
    """Make tube solves fail: at step ``poison_step(seed)`` of a solve
    (``None``: never), where ``seed`` holds the solve's flat values before
    its first step, a NaN at flat node 7 of its values makes the step's
    values NaN.  The NaN goes into the solve's own buffers, not into the
    coefficients that solves share."""

    class PoisonedWorkspace(solver._Workspace):
        def load(self, field):
            super().load(field)
            self.taken, self.poison_at = 0, poison_step(self.values)

        def step(self):
            self.taken += 1
            if self.taken == self.poison_at:
                self.values[7] = np.nan
            return super().step()

    monkeypatch.setattr(solver, "_Workspace", PoisonedWorkspace)


def unit_box(tmp_path):
    """Replace the zero box of :func:`verify_config` with a unit one.  The
    zero model stands still, so only the box makes its tubes step, one cell
    a step: 15 steps of a 1.0 horizon on a 31-node grid, 39 of the 0.4
    horizon on a 193-node one."""
    save_bounds(DisturbanceBounds([1.0, 1.0], [-1.0, -1.0], dt_env=0.1), tmp_path / "bounds.json")


def obstacle_scene(tmp_path, counts, count=2):
    """A scene path and its ``count`` (at most 3) obstacles, which lie apart
    from each other and from the initial set."""
    obstacles = (Ball([0.6, 0.6], 0.15), Ball([-0.6, 0.6], 0.15), Ball([0.6, -0.6], 0.15))[:count]
    scene = Scene(
        grid=build_grid([-1, -1], [1, 1], counts),
        initial_set=ShapeSet((Ball([0.0, -0.3], 0.3),)),
        goal_set=ShapeSet((Ball([0.0, 0.8], 0.1),)),
        obstacles=ShapeSet(obstacles),
    )
    path = tmp_path / "scene.json"
    save_scene(scene, path)
    return path, obstacles


def inside(grid, shape) -> int:
    """The flat index of the node deepest inside ``shape``."""
    return int(np.argmin(level_set_from_shapes(grid, ShapeSet((shape,))).values))


@pytest.mark.parametrize("command,tube", [("verify", "frt"), ("safe-set", "brt_obstacle_0"),
                                          ("safe-set", "brt_obstacle_1")])
def test_failed_solve_leaves_no_tube_directory(tmp_path, monkeypatch, capsys, command, tube):
    # The seed and the snapshots of steps 5 and 10 are written by step 12.
    # In the brt_obstacle_1 case only the second of two obstacles fails:
    # the first tube is solved and written in full, but it must not be put
    # in place either.
    if tube == "brt_obstacle_1":
        scene_path, obstacles = obstacle_scene(tmp_path, (193, 193))
        node = inside(load_scene(scene_path).grid, obstacles[1])
        poison_solves(monkeypatch, lambda seed: 12 if seed[node] < 0 else None)
        cfg = verify_config(tmp_path, scene_path, stride=50)
    else:
        poison_solves(monkeypatch, lambda seed: 12)
        cfg = verify_config(tmp_path, make_scene(tmp_path, [0.8, 0.8], 0.1), horizon=1.0)
    unit_box(tmp_path)
    out = tmp_path / "run"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    assert "non-finite values at step 11" in capsys.readouterr().err
    assert os.listdir(out) == []
    assert not (out / tube).exists()


def test_safe_set_reports_the_first_failing_obstacle(tmp_path, monkeypatch, capsys):
    # Obstacle 0's solve fails at a later step than obstacle 1's would;
    # the error reported is obstacle 0's, the first solved, and a rerun that
    # fails leaves the previous run's tubes as they were.
    scene_path, obstacles = obstacle_scene(tmp_path, (193, 193))
    node = inside(load_scene(scene_path).grid, obstacles[0])
    cfg = verify_config(tmp_path, scene_path, stride=50)
    unit_box(tmp_path)
    out = tmp_path / "run"
    assert main(["safe-set", "--config", str(cfg), "--out", str(out)]) == 0
    before = {name: (out / name / "manifest.json").read_bytes()
              for name in ("brt_obstacle_0", "brt_obstacle_1")}
    poison_solves(monkeypatch, lambda seed: 20 if seed[node] < 0 else 12)
    assert main(["safe-set", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "non-finite values at step 19" in err
    assert "step 11" not in err
    assert sorted(p for p in os.listdir(out) if "brt_obstacle" in p) == sorted(before)
    for name, manifest in before.items():
        assert (out / name / "manifest.json").read_bytes() == manifest


def constant_loop_config(tmp_path, counts, count, horizon, stride):
    """A config path for a constant policy on a moving true plant under an
    asymmetric box, so its tubes grow: the land plant on the
    :func:`obstacle_scene` of ``counts``, or on a 3-D grid the air plant on
    the air scene with its first ``count`` obstacles."""
    if len(counts) == 3:
        scene = air_scene(counts)
        scene_path = tmp_path / "scene.json"
        save_scene(dataclasses.replace(
            scene, obstacles=ShapeSet(scene.obstacles.primitives[:count])), scene_path)
        plant, action = "true_air", [0.9, 0.87, 0.65]
        lo, hi = [0.0, -3.14159, -1.5708], [1.0, 3.14159, 1.5708]
        lower = [-0.05, -0.03, -0.04]
    else:
        scene_path, _ = obstacle_scene(tmp_path, counts, count)
        plant, action, lo, hi = "true_land", [0.6, 0.9], [0.0, -3.14159], [1.0, 3.14159]
        lower = [-0.05, -0.03]
    bounds_path = tmp_path / "bounds.json"
    save_bounds(DisturbanceBounds([0.05] * len(counts), lower, dt_env=0.1), bounds_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scene": str(scene_path),
        "env": plant,
        "plant": plant,
        "policy": {"kind": "constant", "action": action, "action_lo": lo, "action_hi": hi},
        "bounds": str(bounds_path),
        "solver": {"horizon": horizon, "snapshot_stride": stride},
        "mc": {"num_samples": 50},
    }))
    return cfg


def oracle_config(cfg, **keys):
    """An oracle config path beside the verify / safe-set config ``cfg``:
    its artifact keys and the Monte-Carlo ``keys``."""
    doc = json.loads(cfg.read_text())
    doc = {k: v for k, v in doc.items() if k not in ("solver", "mc")}
    path = cfg.with_name("oracle.json")
    path.write_text(json.dumps({**doc, **keys}))
    return path


# (grid counts, obstacles) of the safe-set runs below.
_SAFE_SET_RUNS = (((193, 193), 2), ((101, 101), 2), ((193, 193), 3), ((41, 41, 41), 2))


def _recording_workspace(made):
    """A ``solver._Workspace`` that appends to ``made``, as it is made, a
    record of the thread making it and of the threads that step it."""

    class RecordingWorkspace(solver._Workspace):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.record = {"maker": threading.current_thread(), "steppers": set()}
            made.append(self.record)

        def step(self):
            self.record["steppers"].add(threading.current_thread())
            return super().step()

    return RecordingWorkspace


def _files(out) -> dict:
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def safe_set_runs(tmp_path_factory):
    """Each ``_SAFE_SET_RUNS`` run of ``safe-set --compare-mc`` on a
    :func:`constant_loop_config`: its config, its files, its tube solves,
    its rate scans and the records of the workspaces it made."""
    tmp_path = tmp_path_factory.mktemp("safe_set_runs")
    real_solve, real_scan = cli.solve_brt, solver._wave_speeds
    seen = {}

    def solve_brt(*args, **kwargs):
        seen["solves"] += 1
        return real_solve(*args, **kwargs)

    def rate_scan(*args, **kwargs):
        seen["scans"] += 1
        return real_scan(*args, **kwargs)

    runs, made = {}, []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "solve_brt", solve_brt)
        mp.setattr(solver, "_wave_speeds", rate_scan)
        mp.setattr(solver, "_Workspace", _recording_workspace(made))
        for counts, count in _SAFE_SET_RUNS:
            name = f"{len(counts)}d_{counts[0]}_{count}"
            inputs = tmp_path / f"inputs_{name}"
            inputs.mkdir()
            if len(counts) == 3:
                cfg = constant_loop_config(inputs, counts, count, horizon=0.4, stride=4)
            else:
                cfg = constant_loop_config(inputs, counts, count, horizon=0.3, stride=20)
            out = tmp_path / f"run_{name}"
            seen.update(solves=0, scans=0)
            first = len(made)
            assert main(["safe-set", "--config", str(cfg), "--out", str(out),
                         "--compare-mc"]) == 0
            runs[counts, count] = dict(seen, config=cfg, files=_files(out), sets=made[first:])
    return runs


# The safe-set runs above that run again, two at once for each.
_CONCURRENT_RUNS = (((193, 193), 2), ((41, 41, 41), 2))


@pytest.fixture(scope="module")
def concurrent_safe_set_runs(safe_set_runs, tmp_path_factory):
    """Two runs of each ``_CONCURRENT_RUNS`` config, all started at once,
    each in a thread of its own: by ``(run, i)``, the thread, its exit code
    or error, its files and the records of the workspaces it made."""
    tmp_path = tmp_path_factory.mktemp("concurrent_safe_set_runs")
    made, runs = [], {}
    keys = [(key, i) for key in _CONCURRENT_RUNS for i in range(2)]
    barrier = threading.Barrier(len(keys))

    def run(key, i):
        (counts, count), me = key, threading.current_thread()
        out = tmp_path / f"run_{len(counts)}d_{counts[0]}_{count}_{i}"
        runs[key, i] = {"thread": me}
        try:
            barrier.wait(timeout=60)
            runs[key, i]["code"] = main(["safe-set", "--config", str(safe_set_runs[key]["config"]),
                                         "--out", str(out), "--compare-mc"])
        except Exception as exc:  # reported by the tests below
            runs[key, i]["code"] = exc
        runs[key, i]["files"] = _files(out) if out.exists() else {}

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_Workspace", _recording_workspace(made))
        threads = [threading.Thread(target=run, args=key) for key in keys]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    assert not any(t.is_alive() for t in threads)
    for r in runs.values():
        r["sets"] = [record for record in made if record["maker"] is r["thread"]]
    assert len(made) == sum(len(r["sets"]) for r in runs.values())
    return runs


def test_safe_set_scans_the_rates_once_for_all_its_tubes(safe_set_runs):
    # One departure map serves every obstacle's tube.
    for (counts, count), run in safe_set_runs.items():
        assert (run["scans"], run["solves"]) == (1, count), (counts, count)
        assert {f"brt_obstacle_{i}/manifest.json" for i in range(count)} | {
            "ground_truth.csv"} <= set(run["files"])


def test_concurrent_safe_set_writes_the_serial_bytes(safe_set_runs, concurrent_safe_set_runs):
    # Runs of safe-set in threads of their own at once share no state: each
    # writes every file of the serial run byte for byte.
    for (key, i), run in concurrent_safe_set_runs.items():
        assert run["code"] == 0, (key, i)
        assert run["files"] == safe_set_runs[key]["files"], (key, i)


def test_safe_set_makes_one_buffer_set_per_worker_on_the_calling_thread(
        safe_set_runs, concurrent_safe_set_runs):
    # Each run, serial or one of several at once, makes one workspace, on
    # the thread that called it, and no other thread steps it.
    main_thread = threading.main_thread()
    for key, run in safe_set_runs.items():
        assert run["sets"] == [{"maker": main_thread, "steppers": {main_thread}}], key
    for key, run in concurrent_safe_set_runs.items():
        me = run["thread"]
        assert me is not main_thread
        assert run["sets"] == [{"maker": me, "steppers": {me}}], key


@pytest.mark.parametrize("cpus", [2, 4])
def test_a_single_solve_starts_no_thread(tmp_path, monkeypatch, cpus):
    # However many CPUs the host offers, every tube steps in the calling
    # thread: no solve, verify or safe-set starts a thread.  The rollouts
    # of oracle and safe-set --compare-mc run in forked shards, one per
    # CPU, and start no thread either.
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    for name in ("process_cpu_count", "sched_getaffinity"):
        if hasattr(os, name):
            monkeypatch.setattr(os, name, lambda *pid: set(range(cpus)) if pid else cpus)
    started, real_start = [], threading.Thread.start

    def start(self):
        started.append(self)
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    forks = count_forks(monkeypatch)
    grid = build_grid([-1.0] * 3, [1.0] * 3, (41, 41, 41))
    tube = solve_frt(ShapeSet((Ball([0.0, 0.0, 0.0], 0.4),)),
                     const_system([0.3, -0.2, 0.1], upper=[0.1, 0.1, 0.1]),
                     SolverConfig(horizon=0.5, snapshot_stride=2), grid)
    assert tube.steps_taken > 1 and started == []
    cfg = constant_loop_config(tmp_path, (41, 41, 41), 2, horizon=0.2, stride=4)
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "verify")]) == 0
    assert main(["safe-set", "--config", str(cfg), "--out", str(tmp_path / "safe")]) == 0
    assert started == [] and forks == []
    assert main(["safe-set", "--config", str(cfg), "--out", str(tmp_path / "safe_mc"),
                 "--compare-mc"]) == 0
    oracle_cfg = oracle_config(cfg, horizon=0.2, dt=0.1, num_samples=50, draws=2)
    assert main(["oracle", "--config", str(oracle_cfg), "--out", str(tmp_path / "oracle")]) == 0
    assert started == []
    assert forks == [os.getpid()] * 2 * (cpus - 1)


def test_verify_with_inline_constant_policy(tmp_path):
    scene_path = make_scene(tmp_path, [0.8, 0.8], 0.1)
    config = {
        "scene": str(scene_path),
        "plant": "true_land",
        "policy": {
            "kind": "constant",
            "action": [0.0, 0.0],
            "action_lo": [0.0, -3.14159],
            "action_hi": [1.0, 3.14159],
        },
        "solver": {"horizon": 0.3, "snapshot_stride": 10},
    }
    cfg = tmp_path / "inline.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "inline_run"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == "safe"
    assert report["provenance"]["policy"] == "inline:constant"


def test_oracle_command(tmp_path):
    scene_path = make_scene(tmp_path, [0.8, 0.8], 0.1)
    cfg = verify_config(tmp_path, scene_path)
    doc = json.loads(cfg.read_text())
    del doc["solver"]  # oracle has no tube solve
    doc.update({"horizon": 0.3, "dt": 0.1, "num_samples": 20, "draws": 1})
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "oracle"
    assert main(["oracle", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "ground_truth.csv").read_text().strip().split("\n")
    assert len(lines) == 21
    manifest = json.loads((out / "oracle_manifest.json").read_text())
    assert manifest["safe_fraction"] == 1.0


def test_train_command_and_seed_reproducibility(tmp_path):
    grid_scene = make_scene(tmp_path, [0.8, 0.8], 0.1)
    config = {
        "env": "true_land",
        "scene": str(grid_scene),
        "initial_samples": 120,
        "outer_iterations": 1,
        "samples_per_iteration": 50,
        "distill_states": 110,
        "mpc": {"horizon": 3, "candidates": 8},
        "training": {"epochs": 30},
        "policy_training": {"epochs": 20, "hidden_sizes": [8]},
        "dt_env": 0.1,
    }
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps(config))
    out1 = tmp_path / "t1"
    out2 = tmp_path / "t2"
    assert main(["train", "--config", str(cfg), "--seed", "3", "--out", str(out1)]) == 0
    assert main(["train", "--config", str(cfg), "--seed", "3", "--out", str(out2)]) == 0
    for name in ("model.json", "policy.json", "bounds.json", "dataset.csv", "log.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["hashes"] == m2["hashes"]


def test_export_plots_2d_and_idempotent(tmp_path, capsys):
    scene_path = make_scene(tmp_path, [0.8, 0.8], 0.1)
    cfg = verify_config(tmp_path, scene_path)
    out = tmp_path / "run"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    # a 2-D run has no heights to slice at: --z stops it before any write
    assert main(["export-plots", "--run", str(out), "--z", "0.0"]) == 2
    assert "0.0" in capsys.readouterr().err
    assert not (out / "slices").exists()
    assert main(["export-plots", "--run", str(out)]) == 0
    slices = sorted(os.listdir(out / "slices"))
    n_snapshots = len(json.loads((out / "frt" / "manifest.json").read_text())["snapshots"])
    csvs = [s for s in slices if s.startswith("frt_")]
    assert len(csvs) == n_snapshots
    assert "geometry.csv" in slices
    # 2-D slices are the snapshot fields as coordinates and value text
    _, snapshots, _ = load_tube_manifest(out / "frt" / "manifest.json")
    for k, (_, field) in enumerate(snapshots):
        reference_slice_csv(field, tmp_path / "ref.csv")
        assert (out / "slices" / f"frt_{k:04d}.csv").read_bytes() == (
            tmp_path / "ref.csv").read_bytes()
    assert_slice_cells_are_floats(out / "slices")
    before = {s: (out / "slices" / s).read_bytes() for s in slices}
    assert main(["export-plots", "--run", str(out)]) == 0
    after = {s: (out / "slices" / s).read_bytes() for s in sorted(os.listdir(out / "slices"))}
    assert before == after
    assert main(["export-plots", "--run", str(out), "--z", "0.5"]) == 2
    assert sorted(os.listdir(out / "slices")) == slices


def test_export_plots_3d_slices(tmp_path, capsys):
    grid = build_grid([-1, -1, -1], [1, 1, 1], [9, 9, 9])
    scene = Scene(
        grid=grid,
        initial_set=ShapeSet((Ball([0.0, 0.0, 0.0], 0.3),)),
        goal_set=ShapeSet((Ball([0.8, 0.8, 0.8], 0.1),)),
        obstacles=ShapeSet((Ball([0.7, 0.7, 0.0], 0.2),)),
    )
    scene_path = tmp_path / "scene3d.json"
    save_scene(scene, scene_path)
    model_path = tmp_path / "model3.json"
    policy_path = tmp_path / "policy3.json"
    write_zero_model(model_path, n_state=3, n_action=3)
    write_zero_policy(policy_path, n_state=3, n_action=3)
    config = {
        "scene": str(scene_path),
        "model": str(model_path),
        "policy": str(policy_path),
        "solver": {"horizon": 0.2, "snapshot_stride": 50},
    }
    cfg = tmp_path / "cfg3.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "run3"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    # 3-D export without slice heights is a config error, and so is a
    # height that is not finite or lies outside the grid's z range [-1, 1]:
    # it names the height and writes nothing.
    assert main(["export-plots", "--run", str(out)]) == 2
    for z, named in [("100", "100.0"), ("0.0,-50", "-50.0"), ("nan", "nan"), ("inf", "inf"),
                     ("1.0000001", "1.0000001")]:
        assert main(["export-plots", "--run", str(out), "--z", z]) == 2
        assert named in capsys.readouterr().err
        assert not (out / "slices").exists()
    # heights within interpolate_many's tolerance of the range still snap
    assert main(["export-plots", "--run", str(out), "--z", "1.0000000001"]) == 0
    assert any("z1p0000000001" in s for s in os.listdir(out / "slices"))
    assert main(["export-plots", "--run", str(out), "--z", "0.0,0.5"]) == 0
    slices = os.listdir(out / "slices")
    assert any("z0p0" in s for s in slices)
    assert any("geometry_" in s for s in slices)
    assert_slice_cells_are_floats(out / "slices")
    with open(out / "slices" / "frt_0000_z0p0.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x0", "x1", "value"]
    assert len(rows) == 1 + 9 * 9
    assert rows[1 + 9 * 2 + 3][:2] == ["-0.5", "-0.25"]
    # a height whose tag repeats an earlier one would write one slice file
    # twice: it is a config error naming the height, and writes nothing
    before = {s: (out / "slices" / s).read_bytes() for s in slices}
    for z, named in [("0.0,0.0", "0.0"), ("0.5,0,0.0", "0.0"), ("-0.5,0.25,-0.50", "-0.5")]:
        assert main(["export-plots", "--run", str(out), f"--z={z}"]) == 2
        err = capsys.readouterr().err
        assert f"--z {named} repeats" in err
        assert {s: (out / "slices" / s).read_bytes() for s in os.listdir(out / "slices")} == before
    # two heights with different tags that snap to one z plane would write
    # the same slices under two names: a config error naming both heights
    # and the plane's z, and writes nothing
    for z, named in [("0.0,0.1", "--z 0.0 and 0.1 both snap to the z plane 0.0"),
                     ("0.5,-0.25,0.4", "--z 0.5 and 0.4 both snap to the z plane 0.5")]:
        assert main(["export-plots", "--run", str(out), f"--z={z}"]) == 2
        assert named in capsys.readouterr().err
        assert {s: (out / "slices" / s).read_bytes() for s in os.listdir(out / "slices")} == before


def test_z_heights_on_one_air_plane_are_refused():
    # On the 45^3 air grid, z 2 and 2.01 both lie nearest the plane at
    # z 2.0227; heights on planes of their own still map in order.
    grid = air_scene((45, 45, 45)).grid
    with pytest.raises(ValueError, match=r"--z 2\.0 and 2\.01 both snap to the z plane 2\.02"):
        cli._z_planes(grid, [2.0, 2.01])
    assert cli._z_planes(grid, [4.0, 0.0, 2.0]) == [31, 6, 19]


def reference_slice_csv(field, path):
    """The plot slice of the 2-D ``field``: the per-row reference of the
    field format with coordinates, less its two index cells a line."""
    _reference_field_to_csv(field, path)
    lines = Path(path).read_text().splitlines(keepends=True)
    Path(path).write_text("".join(line.split(",", 2)[2] for line in lines))


def write_tube_run(run, fields):
    """A run directory holding one exported tube, ``tube/``, of ``fields``."""
    snapshots = tuple((0.5 * k, f) for k, f in enumerate(fields))
    tube = TubeResult(snapshots, SolverConfig(), fields[0].grid, "forward", len(fields),
                      fields[-1])
    return export_tube(tube, run / "tube", prefix="tube")


@pytest.mark.parametrize("counts", [(67, 71), (47, 45, 5)])
def test_export_plots_slices_match_per_row_reference(tmp_path, counts):
    # Both stores span several of the reader's 32 KB blocks and end inside
    # one; the slices cross the writer's 1 024-row chunks and end inside one.
    grid = build_grid([-1.0] * len(counts), [1.0] * len(counts), counts)
    rng = np.random.default_rng(5)
    fields = []
    for _ in range(2):
        values = rng.normal(scale=10.0, size=grid.num_nodes).astype(np.float32).astype(float)
        picks = rng.choice(grid.num_nodes, size=64, replace=False)
        values[picks] = np.resize(_SPECIAL_VALUES, len(picks))
        fields.append(ScalarField(grid, values.reshape(grid.counts)))
    write_tube_run(tmp_path / "run", fields)
    z_values = [-1.0, 0.0, 1.0] if grid.dims == 3 else []
    argv = ["--z=" + ",".join(map(repr, z_values))] if z_values else []
    assert main(["export-plots", "--run", str(tmp_path / "run"), *argv]) == 0
    plane_grid = build_grid(grid.lo[:2], grid.hi[:2], grid.counts[:2])
    for k, field in enumerate(fields):
        if grid.dims == 2:
            expected = {f"tube_{k:04d}.csv": field}
        else:
            expected = {f"tube_{k:04d}_{cli._slice_tag(z)}.csv":
                        ScalarField(plane_grid, field.values[:, :, j])
                        for z, j in zip(z_values, (0, 2, 4))}
        for name, plane in expected.items():
            reference_slice_csv(plane, tmp_path / "ref.csv")
            assert (tmp_path / "run" / "slices" / name).read_bytes() == (
                tmp_path / "ref.csv").read_bytes()


def slice_coordinate_cells(path, n1):
    """``(i0, i1, x0, x1)`` of each row of a plot slice of a plane with
    ``n1`` nodes on its second axis, the indices from the row's position."""
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x0", "x1", "value"]
    return [(r // n1, r % n1, row[0], row[1]) for r, row in enumerate(rows[1:])]


@pytest.mark.parametrize("counts", [(101, 71), (46, 36, 5)])
def test_export_plots_coordinates_are_float32_text(tmp_path, counts):
    # The land scene's box, where a coordinate such as -0.9299999999999999
    # has a double repr longer than its float32's text.
    grid = build_grid([-1.0, -1.0, -1.0][:len(counts)], [8.0, 6.0, 6.0][:len(counts)], counts)
    write_tube_run(tmp_path / "run", [ScalarField(grid, np.zeros(counts))])
    argv = ["--z=0.5"] if grid.dims == 3 else []
    assert main(["export-plots", "--run", str(tmp_path / "run"), *argv]) == 0
    name = "tube_0000_z0p5.csv" if grid.dims == 3 else "tube_0000.csv"
    cells = slice_coordinate_cells(tmp_path / "run" / "slices" / name, counts[1])
    assert len(cells) == counts[0] * counts[1]
    axes = [grid.axis_coords(0), grid.axis_coords(1)]
    shorter = 0
    for i0, i1, x0, x1 in cells:
        for axis, i, cell in ((axes[0], i0, x0), (axes[1], i1, x1)):
            assert cell == str(np.float32(axis[i]))
            shorter += len(cell) < len(repr(float(axis[i])))
    assert shorter > 0


@pytest.mark.parametrize("counts", [(23, 17), (13, 11, 5)])
def test_export_plots_row_position_names_the_node(tmp_path, counts):
    # A slice holds no index cells: row r is node (r // n1, r % n1) of the
    # plane, and holds that node's float32 coordinate text, then the value
    # text its store row holds.
    grid = build_grid([-1.0, -1.0, -1.0][:len(counts)], [8.0, 6.0, 6.0][:len(counts)], counts)
    rng = np.random.default_rng(11)
    fields = [float32_field(grid, rng) for _ in range(2)]
    manifest = write_tube_run(tmp_path / "run", fields)
    z_values = [-1.0, 2.5, 6.0] if grid.dims == 3 else [None]
    argv = ["--z=" + ",".join(map(repr, z_values))] if grid.dims == 3 else []
    assert main(["export-plots", "--run", str(tmp_path / "run"), *argv]) == 0
    n1 = counts[1]
    axes = [grid.axis_coords(0), grid.axis_coords(1)]
    for k, (_, store) in enumerate(tube_snapshot_files(manifest)[1]):
        with open(store) as fh:
            stored = {tuple(map(int, row[:-1])): row[-1] for row in list(csv.reader(fh))[1:]}
        for z, plane in zip(z_values, (0, 2, 4)):
            tag = "" if z is None else "_" + cli._slice_tag(z)
            with open(tmp_path / "run" / "slices" / f"tube_{k:04d}{tag}.csv") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["x0", "x1", "value"]
            assert len(rows) == 1 + counts[0] * n1
            for r, row in enumerate(rows[1:]):
                i0, i1 = r // n1, r % n1
                node = (i0, i1, plane)[:grid.dims]
                assert row == [str(np.float32(axes[0][i0])), str(np.float32(axes[1][i1])),
                               stored[node]]


# Near 1e6 float32 values lie 0.0625 apart, so the 0.01 steps of x would
# share text; past 3.4e38 a float32 overflows.  y's steps of 0.7 keep
# float32 text on both.
@pytest.mark.parametrize("x_lo,x_hi,x_count", [(1e6, 1e6 + 1.0, 101), (-1.0, 3.5e38, 3)],
                         ids=["unresolved", "overflow"])
def test_export_plots_keeps_repr_on_an_axis_float32_cannot_resolve(tmp_path, x_lo, x_hi,
                                                                    x_count):
    grid = build_grid([x_lo, -1.0], [x_hi, 6.0], (x_count, 11))
    write_tube_run(tmp_path / "run", [ScalarField(grid, np.zeros(grid.counts))])
    assert main(["export-plots", "--run", str(tmp_path / "run")]) == 0
    cells = slice_coordinate_cells(tmp_path / "run" / "slices" / "tube_0000.csv", 11)
    xs, ys = grid.axis_coords(0), grid.axis_coords(1)
    for i0, i1, x0, x1 in cells:
        assert x0 == repr(float(xs[i0]))
        assert x1 == str(np.float32(ys[i1]))
    assert len({x0 for _, _, x0, _ in cells}) == x_count
    assert "-0.3" in {x1 for _, _, _, x1 in cells}  # repr: -0.30000000000000004


def float32_field(grid, rng):
    """Normal draws rounded to float32, as a tube's values are."""
    return ScalarField(grid, rng.normal(size=grid.counts).astype(np.float32).astype(float))


def test_export_plots_memory_is_bounded(tmp_path):
    # Snapshots are streamed in blocks of rows, so only the requested
    # planes' text is held: 3 x 2 025 values, not the 91 125 of a snapshot.
    grid = build_grid([-1.0] * 3, [1.0] * 3, (45, 45, 45))
    rng = np.random.default_rng(6)
    write_tube_run(tmp_path / "run",
                   [float32_field(grid, rng) for _ in range(2)])
    tracemalloc.start()
    try:
        assert main(["export-plots", "--run", str(tmp_path / "run"), "--z=-0.5,0.0,0.5"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(os.listdir(tmp_path / "run" / "slices")) == 6
    assert peak < 3e6


def test_export_plots_2d_memory_is_bounded(tmp_path):
    # Each block of a snapshot goes to its slice as it is read, so beside
    # the per-tube row prefixes only one block is held, not the whole
    # snapshot's 10 201 values (3.2 MB peak when each slice was collected
    # before it was written, 2.2 MB streamed).
    grid = build_grid([-1.0] * 2, [1.0] * 2, (101, 101))
    rng = np.random.default_rng(6)
    write_tube_run(tmp_path / "run",
                   [float32_field(grid, rng) for _ in range(3)])
    tracemalloc.start()
    try:
        assert main(["export-plots", "--run", str(tmp_path / "run")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(os.listdir(tmp_path / "run" / "slices")) == 3
    assert peak < 2.6e6


def _set_snapshot_entry(key, value):
    return lambda m: m["snapshots"][0].update({key: value})


# Each edit changes the manifest document in place, or returns the text that
# replaces the manifest.
@pytest.mark.parametrize("edit,key", [
    (lambda m: m["grid"].update(counts=31), "grid.counts"),
    (_set_snapshot_entry("time", "0.5"), "snapshots[0].time"),
    (_set_snapshot_entry("file", 3), "snapshots[0].file"),
    (_set_snapshot_entry("file", "../x.csv"), "snapshots[0].file"),
    (lambda m: "{bad", "Expecting property name"),
])
def test_malformed_tube_manifest_exits_config_error(tmp_path, capsys, edit, key):
    grid = build_grid([-1.0, -1.0], [1.0, 1.0], (5, 4))
    run = tmp_path / "run"
    fields = [ScalarField(grid, np.full(grid.counts, k)) for k in (1, 2)]
    manifest_path = write_tube_run(run, fields)
    assert main(["export-plots", "--run", str(run)]) == 0
    shutil.copyfile(run / "tube" / "tube_0000.csv", run / "x.csv")  # what "../x.csv" names
    manifest = json.loads((run / "tube" / "manifest.json").read_text())
    text = edit(manifest)
    (run / "tube" / "manifest.json").write_text(json.dumps(manifest) if text is None else text)
    assert main(["export-plots", "--run", str(run)]) == 2
    assert "manifest.json: " + key in capsys.readouterr().err
    with pytest.raises(ValueError, match=r"manifest.json: " + key.replace("[", r"\[")):
        load_tube_manifest(manifest_path)


@pytest.mark.parametrize("index", ["118,43", "118,-1", "118,45"],
                         ids=["duplicated", "negative", "out_of_range"])
def test_store_rows_out_of_node_order_exit_config_error(tmp_path, capsys, index):
    # Node 118,44 is row 5 354 of 5 400, in the last block the reader takes.
    grid = build_grid([-1.0, -1.0], [1.0, 1.0], (120, 45))
    run = tmp_path / "run"
    values = (np.arange(grid.num_nodes) / 7).astype(np.float32).astype(float)
    write_tube_run(run, [ScalarField(grid, values.reshape(grid.counts))])
    path = run / "tube" / "tube_0000.csv"
    lines = path.read_text().splitlines(keepends=True)
    assert lines[1 + 5354] == f"118,44,{str(np.float32(5354 / 7))}\n"
    lines[1 + 5354] = f"{index},{str(np.float32(5354 / 7))}\n"
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match=r"rows [1-9]\d*\.\.5399 do not list the grid nodes"):
        field_from_csv(path, grid)
    assert main(["export-plots", "--run", str(run)]) == 2
    assert "tube_0000.csv" in capsys.readouterr().err
    assert not (run / "slices" / "tube_0000.csv").exists()


def test_failed_export_leaves_previous_slices(tmp_path, capsys):
    # Three snapshots; the third store lists node 3,2 twice.  The first two
    # slices are written before the bad store is read, and must not land.
    grid = build_grid([-1.0, -1.0], [1.0, 1.0], (5, 4))
    run = tmp_path / "run"
    write_tube_run(run, [ScalarField(grid, np.full(grid.counts, k)) for k in (1, 2, 3)])
    path = run / "tube" / "tube_0002.csv"
    path.write_text(path.read_text().replace("3,3,", "3,2,"))
    assert main(["export-plots", "--run", str(run)]) == 2
    assert "tube_0002.csv" in capsys.readouterr().err
    assert sorted(os.listdir(run)) == ["tube"]

    (run / "slices").mkdir()
    (run / "slices" / "keep.csv").write_text("kept\n")
    assert main(["export-plots", "--run", str(run)]) == 2
    assert sorted(os.listdir(run)) == ["slices", "tube"]
    assert os.listdir(run / "slices") == ["keep.csv"]


def test_store_of_double_text_exits_config_error(tmp_path, capsys):
    # Stores written before tube values were float32 held each double's
    # repr under the header "value"; that form is no longer read.
    grid = build_grid([-1.0, -1.0], [1.0, 1.0], (5, 4))
    run = tmp_path / "run"
    write_tube_run(run, [ScalarField(grid, np.full(grid.counts, 0.5))])
    path = run / "tube" / "tube_0000.csv"
    path.write_text(path.read_text().replace("i0,i1,value_f32", "i0,i1,value"))
    assert main(["export-plots", "--run", str(run)]) == 2
    assert "tube_0000.csv has 3 columns i0,i1,value" in capsys.readouterr().err
    assert sorted(os.listdir(run)) == ["tube"]


def test_ground_truth_writer_matches_per_row_reference(tmp_path):
    rng = np.random.default_rng(3)
    mc = SimpleNamespace(samples=rng.normal(size=(37, 3)), safe=rng.random(37) < 0.5)
    mc.samples[:4, 0] = [-0.0, 5e-324, 1e17, 2.0]
    _write_ground_truth(mc, 3, tmp_path / "new.csv")
    with open(tmp_path / "ref.csv", "w") as fh:
        fh.write("s0,s1,s2,safe\n")
        for s, flag in zip(mc.samples, mc.safe):
            fh.write(",".join([repr(float(v)) for v in s] + [str(int(flag))]) + "\n")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_no_subcommand_exits_config_error(capsys):
    assert main([]) == 2


def test_readme_gives_the_solver_defaults():
    # The README's config section states the solver block's defaults in one
    # sentence; it must name the values SolverConfig() really has.
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    found = re.search(
        r"The `solver` block takes `horizon` \(default ([^)]+)\) and `snapshot_stride` "
        r"\(default ([^)]+)\)", readme)
    assert found, "README lost the sentence on the solver block's defaults"
    defaults = SolverConfig()
    assert float(found[1]) == defaults.horizon
    assert int(found[2]) == defaults.snapshot_stride
    assert {f.name for f in dataclasses.fields(SolverConfig)} == {"horizon", "snapshot_stride"}


def test_readme_train_config_table_lists_the_training_keys():
    # The README's train-config defaults table names, in its training row,
    # every key a training block accepts: the TrainingConfig fields but seed.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    row = re.search(r"^\| `training` \| ([^|]*) \|", readme, re.M)
    assert row, "README lost the training row of the train-config table"
    fields = {f.name for f in dataclasses.fields(TrainingConfig)} - {"seed"}
    assert set(re.findall(r"`(\w+)`", row[1])) == fields


def test_readme_run_config_table_lists_the_keys():
    # The README's verify / safe-set / oracle key table has one row per key
    # a run config accepts, and its mc row names the mc block's keys.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| key | type | default | read by |", 1)[1].split("\n\n", 1)[0]
    rows = {m[1]: m[2] for m in re.finditer(r"^\| `(\w+)` \| ([^|]*) \|", table, re.M)}
    assert set(rows) == {k for keys in cli._RUN_KEYS.values() for k in keys}
    assert re.findall(r"`(\w+)`", rows["mc"]) == list(cli._MC_KEYS)


@pytest.mark.parametrize(
    "solver,key",
    [
        ({"horizn": 1.0}, "horizn"),
        ({"horizon": 0.4, "direction": "backward"}, "direction"),
        ({"horizon": "10"}, "horizon"),
        ({"horizon": 0.4, "convergence_eps": "0"}, "convergence_eps"),
        ({"horizon": 0.4, "cfl_factor": 0.7}, "cfl_factor"),
    ],
)
def test_unknown_solver_key_exits_config_error(tmp_path, capsys, solver, key):
    scene_path = make_scene(tmp_path, [0.8, 0.8], 0.1)
    cfg = verify_config(tmp_path, scene_path)
    doc = json.loads(cfg.read_text())
    doc["solver"] = solver
    cfg.write_text(json.dumps(doc))
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "config,key",
    [
        ({"training": {"epoch": 3}}, "epoch"),
        ({"training": {"epochs": "60"}}, "epochs"),
        ({"training": {"epochs": 0}}, "epochs"),
        ({"training": {"seed": 7}}, "seed"),
        ({"policy_training": {"seed": 7}}, "seed"),
        ({"policy_training": {"hidden_sizes": [16, "16"]}}, "hidden_sizes"),
        ({"initial_samples": 300.9}, "initial_samples"),
        ({"initial_sample": 1000}, "initial_sample"),
        ({"mpc": {"candidates": True}}, "candidates"),
        ({"mpc": {"horizn": 6}}, "horizn"),
        ({"reward": {"goal_wieght": 1.0}}, "goal_wieght"),
        # counts that would fail only after training, or never finish
        ({"rollout_steps": 0}, "rollout_steps"),
        ({"rollout_steps": -2}, "rollout_steps"),
        ({"samples_per_iteration": 0}, "samples_per_iteration"),
        ({"mpc": {"horizon": 0}}, "horizon"),
        ({"mpc": {"candidates": 0}}, "candidates"),
        ({"distill_states": 99}, "distill_states"),
        # the one network form has no activation keys
        ({"training": {"hidden_activation": "tanh"}}, "hidden_activation"),
        # fixed in train_dynamics_model, and never read for the policy
        ({"training": {"scale_margin": 1.5}}, "scale_margin"),
        ({"training": {"val_fraction": 0.2}}, "val_fraction"),
        ({"policy_training": {"scale_margin": 99}}, "scale_margin"),
        ({"policy_training": {"val_fraction": 0.9}}, "val_fraction"),
        # the goal distance has weight 1: the others are relative to it
        ({"reward": {"goal_weight": 1.0}}, "goal_weight"),
    ],
)
def test_unknown_training_key_exits_config_error(tmp_path, monkeypatch, capsys, config, key):
    monkeypatch.setattr(cli, "train_loop", lambda *a: pytest.fail("config reached train_loop"))
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({"env": "true_land", **config}))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "config",
    [
        {"env": "true_land", "initial_samples": 1000},
        {"initial_samples": 1000, "k_sigma": 3, "reward": {"obstacle_weight": 10}},
    ],
)
def test_train_config_defaults_are_train_run_config(tmp_path, monkeypatch, config):
    # Keys a train config leaves out take their TrainRunConfig() values:
    # the minimal land config is the paper's land run.  An int stands for
    # a float and is stored as one.
    seen = []

    def capture(run_cfg, scene):
        seen.append(run_cfg)
        raise RuntimeError("stop after decoding")

    monkeypatch.setattr(cli, "train_loop", capture)
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps(config))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "t"), "--seed", "0"]) == 3
    assert seen == [LAND_RUN_CONFIG]
    assert type(seen[0].k_sigma) is float and type(seen[0].obstacle_weight) is float


def train_config_keys() -> set:
    """Every key a train config accepts, a block's keys as ``block.key``."""
    grouped = {f for keys in cli._TRAIN_GROUPS.values() for f in keys.values()}
    top = {f.name for f in dataclasses.fields(TrainRunConfig)} - grouped - set(
        cli._TRAIN_NETS.values())
    net = {f.name for f in dataclasses.fields(TrainingConfig)} - {"seed"}
    return ({"scene", *top}
            | {f"{block}.{k}" for block, keys in cli._TRAIN_GROUPS.items() for k in keys}
            | {f"{block}.{k}" for block in cli._TRAIN_NETS for k in net})


# A land run of a few hundredths of a second, and a value off it for each key.
TINY_TRAIN = {"initial_samples": 120, "samples_per_iteration": 40, "distill_states": 100,
              "mpc": {"horizon": 2, "candidates": 8},
              "training": {"epochs": 3, "hidden_sizes": [8]},
              "policy_training": {"epochs": 3, "hidden_sizes": [4]}}
OFF_TINY_TRAIN = {
    "env": "true_air", "scene": None,  # a land scene on another box, written by the test
    "initial_samples": 150, "outer_iterations": 2, "samples_per_iteration": 60,
    "rollout_steps": 2, "distill_states": 150, "k_sigma": 2.0, "dt_env": 0.05, "seed": 1,
    "mpc.horizon": 3, "mpc.candidates": 16, "mpc.discount": 0.5,
    "reward.obstacle_weight": 50.0, "reward.obstacle_margin": 1.0, "reward.action_cost": 1.0,
    **{f"{block}.{k}": v for block in ("training", "policy_training") for k, v in
       {"hidden_sizes": [6], "learning_rate": 0.01, "batch_size": 16, "epochs": 4,
        "lr_schedule": "constant"}.items()},
}
TRAIN_OUTPUTS = ("model.json", "policy.json", "bounds.json", "dataset.csv", "log.json")


def train_outputs(tmp_path, name, doc) -> dict:
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(doc))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
    return {f: (tmp_path / name / f).read_bytes() for f in TRAIN_OUTPUTS}


@pytest.fixture(scope="module")
def tiny_train_outputs(tmp_path_factory):
    return train_outputs(tmp_path_factory.mktemp("tiny"), "tiny", TINY_TRAIN)


def test_off_tiny_train_lists_every_train_config_key():
    assert set(OFF_TINY_TRAIN) == train_config_keys()


@pytest.mark.parametrize("key", sorted(train_config_keys()))
def test_every_train_config_key_changes_a_train_output(tmp_path, key, tiny_train_outputs):
    # No key is accepted and then ignored: moving any one off the tiny
    # run's value changes a byte of some output.
    doc = json.loads(json.dumps(TINY_TRAIN))
    block, _, name = key.rpartition(".")
    value = OFF_TINY_TRAIN[key]
    if key == "scene":
        grid = build_grid([-2.0, -1.0], [8.0, 7.0], (11, 11))
        save_scene(dataclasses.replace(land_scene(), grid=grid), tmp_path / "scene.json")
        value = str(tmp_path / "scene.json")
    (doc.setdefault(block, {}) if block else doc)[name] = value
    outputs = train_outputs(tmp_path, "off", doc)
    assert outputs != tiny_train_outputs


def test_verify_rejects_k_sigma_bounds_config(tmp_path, capsys):
    scene_path = make_scene(tmp_path, [0.8, 0.8], 0.1)
    cfg = verify_config(tmp_path, scene_path)
    doc = json.loads(cfg.read_text())
    del doc["bounds"]
    rng = np.random.default_rng(0)
    save_dataset(TransitionDataset(*rng.normal(size=(3, 40, 2))), tmp_path / "dataset.csv")
    doc.update({"k_sigma": 3.0, "dataset": str(tmp_path / "dataset.csv")})
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
    assert "bounds.json" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def run_config(tmp_path, command):
    """A small config that ``command`` accepts: the verify config, without
    the ``solver`` block for oracle, or a minimal train config."""
    if command == "train":
        return {"env": "true_land"}
    doc = json.loads(verify_config(tmp_path, make_scene(tmp_path, [0.8, 0.8], 0.1)).read_text())
    if command == "oracle":
        del doc["solver"]
    return doc


def run_argv(command, cfg, out):
    flags = ["--compare-mc"] if command == "safe-set" else []
    return [command, "--config", str(cfg), "--out", str(out), *flags]


@pytest.mark.parametrize(
    "command,edit,key",
    [
        ("verify", {"bounds": None, "bound": "bounds.json"}, "bound"),
        ("verify", {"seed": "3"}, "seed"),
        ("safe-set", {"seed": 2.7}, "seed"),
        ("oracle", {"seed": True}, "seed"),
        ("oracle", {"include_zero_draw": False}, "include_zero_draw"),  # a removed key
        ("oracle", {"num_sample": 50}, "num_sample"),
        ("oracle", {"solver": {"horizon": 0.4}}, "solver"),
        ("safe-set", {"mc": {"plant": "learned", "draws": 8}}, "draws"),
        ("safe-set", {"mc": {"plant": "learned", "horizon": "0.4"}}, "horizon"),
        ("safe-set", {"mc": {"plant": "learned", "num_samples": 50.9}}, "num_samples"),
        ("verify", {"policy": 5}, "policy"),
        ("verify", {"scene": 7}, "scene"),
        ("train", {"scene": 7}, "scene"),
        # values of the right type but out of range
        ("oracle", {"dt": 0}, "dt"),
        ("oracle", {"dt": -0.1}, "dt"),
        ("oracle", {"horizon": -1.0}, "horizon"),
        ("oracle", {"draws": -3}, "draws"),
        ("oracle", {"num_samples": 0}, "num_samples"),
        ("safe-set", {"mc": {"plant": "learned", "dt": 0.0}}, "dt"),
        # inline policies are decoded like files
        ("verify", {"policy": {"kind": "constant", "action": [True, 0.3],
                               "action_lo": [-1, -1], "action_hi": [1, 1]}}, "action"),
        ("verify", {"policy": {"action": [0.3, 0.3], "action_lo": [-1, -1],
                               "action_hi": [1, 1]}}, "kind"),
        # constant is the one inline kind
        ("verify", {"policy": {"kind": "tabulated", "action_lo": [-1, -1], "action_hi": [1, 1],
                               "grid": {"lo": [-1, -1], "hi": [1, 1], "counts": [3, 3]},
                               "table": [[[0.0, 0.0]] * 3] * 3}}, "unknown policy kind"),
        # a Monte-Carlo horizon under half a dt step would integrate nothing
        ("oracle", {"horizon": 0.04, "dt": 0.1}, "horizon"),
        ("safe-set", {"mc": {"plant": "learned", "horizon": 0.04}}, "horizon"),
        # the sample and draw counts are checked where a rollout runs
        ("oracle", {"draws": -1}, "draws"),
        ("safe-set", {"mc": {"plant": "learned", "num_samples": 0}}, "the 'mc' block: num_samples"),
    ],
)
def test_bad_run_config_key_exits_config_error(tmp_path, monkeypatch, capsys, command, edit, key):
    # A misspelled or wrongly typed key stops the run before it writes
    # anything; none of them may fall back to a default.
    monkeypatch.setattr(cli, "train_loop", lambda *a: pytest.fail("config reached train_loop"))
    doc = run_config(tmp_path, command)
    for k, v in edit.items():
        if v is None:
            del doc[k]
        else:
            doc[k] = v
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main(run_argv(command, cfg, out)) == 2
    assert key in capsys.readouterr().err
    assert not (out / "report.json").exists() and not out.exists()


def _fail_on_work(monkeypatch):
    # Each command's first piece of work fails the test if it is reached.
    for name in ("train_loop", "solve_frt", "brt_workspace", "mc_ground_truth"):
        monkeypatch.setattr(cli, name, lambda *a, _n=name, **k: pytest.fail(f"{_n} ran"))


@pytest.mark.parametrize("below", [False, True], ids=["file", "below_a_file"])
@pytest.mark.parametrize("command", ["train", "verify", "safe-set", "oracle"])
def test_out_path_that_cannot_be_a_directory_exits_config_error(tmp_path, monkeypatch, capsys,
                                                                 command, below):
    # --out is made before any training, solve or rollout: a path that is
    # a file, or lies below one, stops the command first, naming the path.
    _fail_on_work(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(run_config(tmp_path, command)))
    (tmp_path / "f").write_text("not a directory\n")
    out = tmp_path / "f" / "sub" if below else tmp_path / "f"
    assert main(run_argv(command, cfg, out)) == 2
    assert str(out) in capsys.readouterr().err
    assert (tmp_path / "f").read_text() == "not a directory\n"


def test_tube_path_that_is_a_file_exits_config_error(tmp_path, monkeypatch, capsys):
    # A tube directory is staged before its solve starts.
    _fail_on_work(monkeypatch)
    cfg = verify_config(tmp_path, make_scene(tmp_path, [0.8, 0.8], 0.1))
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "frt").write_text("x\n")
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert str(tmp_path / "run" / "frt") in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path / "run")) == ["frt"]


def test_export_plots_slices_path_that_is_a_file_exits_config_error(tmp_path, monkeypatch,
                                                                    capsys):
    # The slices are staged before any store is read, and a failed export
    # leaves no staging directory.
    grid = build_grid([-1.0, -1.0], [1.0, 1.0], (5, 4))
    run = tmp_path / "run"
    write_tube_run(run, [ScalarField(grid, np.full(grid.counts, 0.5))])
    (run / "slices").write_text("x\n")
    monkeypatch.setattr(cli, "store_to_slices", lambda *a: pytest.fail("a store was read"))
    assert main(["export-plots", "--run", str(run)]) == 2
    assert str(run / "slices") in capsys.readouterr().err
    assert sorted(os.listdir(run)) == ["slices", "tube"]


@pytest.mark.parametrize("key,value", [("upper", "NaN"), ("upper", "Infinity"),
                                       ("lower", "-Infinity")])
@pytest.mark.parametrize("command", ["verify", "safe-set", "oracle"])
def test_nonfinite_bounds_exit_config_error(tmp_path, capsys, command, key, value):
    # json reads NaN and the infinities as floats; a box with one of them
    # is no disturbance set, so the run stops before it solves or samples.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(run_config(tmp_path, command)))
    doc = json.loads((tmp_path / "bounds.json").read_text())
    doc[key][1] = float(value)
    (tmp_path / "bounds.json").write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main(run_argv(command, cfg, out)) == 2
    assert "malformed bounds file" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("command", ["train", "verify", "oracle"])
def test_non_object_config_exits_config_error(tmp_path, monkeypatch, capsys, command):
    # A list of pairs is not read as the object it would convert to.
    monkeypatch.setattr(cli, "train_loop", lambda *a: pytest.fail("config reached train_loop"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps([["env", "true_land"]]))
    assert main(run_argv(command, cfg, tmp_path / "run")) == 2
    assert "JSON object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,edit,expected",
    [
        # the benchmark's mc block; safe-set leaves the draw count at its
        # default, and mc_ground_truth makes no draws on its zero box
        ("safe-set", {"mc": {"plant": "true_land", "num_samples": 1000, "horizon": 10.0,
                             "dt": 0.1}}, (10.0, 0.1, 1000, 16)),
        # an mc block without horizon takes the solver's
        ("safe-set", {"mc": {"plant": "learned", "num_samples": 50, "dt": 0.05}},
         (0.4, 0.05, 50, 16)),
        # an oracle config with only the artifact keys
        ("oracle", {}, (10.0, 0.1, 1000, 16)),
        ("oracle", {"horizon": 1, "dt": 0.05, "num_samples": 20, "draws": 0},
         (1.0, 0.05, 20, 0)),
    ],
)
def test_monte_carlo_settings_are_decoded(tmp_path, monkeypatch, command, edit, expected):
    seen = []
    signature = inspect.signature(cli.mc_ground_truth)

    def capture(*args, **kwargs):
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        seen.append(tuple(call.arguments[k] for k in (
            "horizon", "dt", "num_samples", "num_disturbance_draws")))
        raise RuntimeError("stop after decoding")

    monkeypatch.setattr(cli, "mc_ground_truth", capture)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**run_config(tmp_path, command), **edit}))
    assert main(run_argv(command, cfg, tmp_path / "run")) == 3
    assert seen == [expected]
    assert [type(v) for v in seen[0]] == [float, float, int, int]


def test_zero_box_oracle_ground_truth_does_not_depend_on_draws(tmp_path):
    # On a zero box no draw is made, so the configured draw count changes
    # only the manifest's record of it.
    doc = {**run_config(tmp_path, "oracle"), "num_samples": 40, "horizon": 1.0}
    runs = []
    for draws in (0, 16):
        cfg = tmp_path / f"oracle_{draws}.json"
        cfg.write_text(json.dumps({**doc, "draws": draws}))
        runs.append(tmp_path / f"run_{draws}")
        assert main(run_argv("oracle", cfg, runs[-1])) == 0
        manifest = json.loads((runs[-1] / "oracle_manifest.json").read_text())
        assert manifest["strategy"]["disturbance_draws"] == draws
    assert (runs[0] / "ground_truth.csv").read_bytes() == (
        runs[1] / "ground_truth.csv").read_bytes()


def test_integer_solver_horizon_decodes_to_float(tmp_path):
    scene_path = make_scene(tmp_path, [0.8, 0.8], 0.1)
    cfg = verify_config(tmp_path, scene_path)
    doc = json.loads(cfg.read_text())
    doc["solver"]["horizon"] = 1
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    horizon = json.loads((out / "report.json").read_text())["provenance"]["solver"]["horizon"]
    assert type(horizon) is float and horizon == 1.0


def _reference_polyline(prim, z):
    # The per-branch polyline code that the circle and rectangle helpers
    # replaced, kept as the byte-level reference for geometry*.csv.
    if z is None:
        if isinstance(prim, Ball):
            t = np.linspace(0, 2 * np.pi, 65)
            return np.stack(
                [prim.center[0] + prim.radius * np.cos(t),
                 prim.center[1] + prim.radius * np.sin(t)],
                axis=1,
            )
        if isinstance(prim, AxisBox):
            cx, cy = prim.center
            hx, hy = prim.half_widths
            return np.array(
                [[cx - hx, cy - hy], [cx + hx, cy - hy], [cx + hx, cy + hy],
                 [cx - hx, cy + hy], [cx - hx, cy - hy]]
            )
        raise ValueError(f"cannot draw primitive {type(prim).__name__} in 2-D")
    if isinstance(prim, Ball):
        dz = z - prim.center[2]
        if abs(dz) >= prim.radius:
            return None
        r = float(np.sqrt(prim.radius**2 - dz**2))
        t = np.linspace(0, 2 * np.pi, 65)
        return np.stack(
            [prim.center[0] + r * np.cos(t), prim.center[1] + r * np.sin(t)], axis=1
        )
    if isinstance(prim, AxisBox):
        if abs(z - prim.center[2]) > prim.half_widths[2]:
            return None
        cx, cy = prim.center[:2]
        hx, hy = prim.half_widths[:2]
        return np.array(
            [[cx - hx, cy - hy], [cx + hx, cy - hy], [cx + hx, cy + hy],
             [cx - hx, cy + hy], [cx - hx, cy - hy]]
        )
    if isinstance(prim, AxisCylinder) and prim.axis_index == 2:
        if abs(z - prim.center[2]) > prim.half_height:
            return None
        t = np.linspace(0, 2 * np.pi, 65)
        return np.stack(
            [prim.center[0] + prim.radius * np.cos(t),
             prim.center[1] + prim.radius * np.sin(t)],
            axis=1,
        )
    return None


@pytest.mark.parametrize(
    "scene,z",
    [(land_scene(), None)]
    + [(air_scene(), z) for z in (0.0, 0.5, 2.0, 4.0, 5.8, 5.9)],
)
def test_geometry_export_matches_reference_polyline(tmp_path, monkeypatch, scene, z):
    cli._export_geometry(scene, tmp_path / "new.csv", z)
    monkeypatch.setattr(cli, "_polyline", _reference_polyline)
    cli._export_geometry(scene, tmp_path / "ref.csv", z)
    new, ref = (tmp_path / "new.csv").read_bytes(), (tmp_path / "ref.csv").read_bytes()
    assert new == ref
    if z == 5.9:  # above every shape: only the header
        assert new == b"shape,vertex,x0,x1\n"


def test_polyline_rejects_2d_cylinder_and_misses_3d():
    with pytest.raises(ValueError):
        cli._polyline(AxisCylinder([0.0, 0.0, 0.0], 0.5, 2, 1.0), None)
    assert cli._polyline(Ball([0.0, 0.0, 0.0], 0.5), 0.5) is None
    assert cli._polyline(AxisBox([0.0, 0.0, 0.0], [0.5, 0.5, 0.5]), 0.6) is None
    assert cli._polyline(AxisCylinder([0.0, 0.0, 0.0], 0.5, 2, 1.0), -1.1) is None
    assert cli._polyline(AxisCylinder([0.0, 0.0, 0.0], 0.5, 0, 1.0), 0.0) is None
