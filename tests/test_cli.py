import csv
import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from reachverify import cli
from reachverify.cli import _write_ground_truth, main
from reachverify.dynamics import ActionBounds, MlpPolicy, save_policy
from reachverify.error_bounds import DisturbanceBounds, save_bounds
from reachverify.geometry import AxisBox, AxisCylinder, Ball, ShapeSet, build_grid
from reachverify.nn import MlpModel, ModelMeta, save_model
from reachverify.scene import Scene, air_scene, land_scene, save_scene


def write_zero_model(path, n_state=2, n_action=2, dt=0.1):
    n_in = n_state + n_action
    model = MlpModel(
        layer_sizes=(n_in, 4, n_state),
        weights=(np.zeros((n_in, 4)), np.zeros((4, n_state))),
        biases=(np.zeros(4), np.zeros(n_state)),
        hidden_activation="tanh",
        output_activation="tanh",
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
        hidden_activation="tanh",
        output_activation="tanh",
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


def verify_config(tmp_path, scene_path, horizon=0.4):
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
        "solver": {"horizon": horizon, "snapshot_stride": 5, "convergence_eps": 0.0},
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


def test_corrupt_model_exits_config_error(tmp_path):
    scene_path = make_scene(tmp_path, [0.8, 0.8], 0.1)
    cfg = verify_config(tmp_path, scene_path)
    (tmp_path / "model.json").write_text("{broken")
    code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert code == 2


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
    cfg_doc["mc"] = {"plant": "learned", "num_samples": 50, "draws": 0, "horizon": 0.4}
    cfg = tmp_path / "cfg_mc.json"
    cfg.write_text(json.dumps(cfg_doc))
    out = tmp_path / "mc_run"
    assert main(["safe-set", "--config", str(cfg), "--out", str(out), "--compare-mc"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["mc_comparison"]["agreement"] == 1.0
    assert (out / "ground_truth.csv").exists()


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
        "solver": {"horizon": 0.3, "snapshot_stride": 10, "convergence_eps": 0.0},
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


def test_export_plots_2d_and_idempotent(tmp_path):
    scene_path = make_scene(tmp_path, [0.8, 0.8], 0.1)
    cfg = verify_config(tmp_path, scene_path)
    out = tmp_path / "run"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["export-plots", "--run", str(out)]) == 0
    slices = sorted(os.listdir(out / "slices"))
    n_snapshots = len(json.loads((out / "frt" / "manifest.json").read_text())["snapshots"])
    csvs = [s for s in slices if s.startswith("frt_")]
    assert len(csvs) == n_snapshots
    assert "geometry.csv" in slices
    # 2-D slices are byte copies of the tube's snapshot files
    for k, snap in enumerate(json.loads((out / "frt" / "manifest.json").read_text())["snapshots"]):
        assert (out / "slices" / f"frt_{k:04d}.csv").read_bytes() == (
            out / "frt" / snap["file"]).read_bytes()
    assert_slice_cells_are_floats(out / "slices")
    before = {s: (out / "slices" / s).read_bytes() for s in slices}
    assert main(["export-plots", "--run", str(out)]) == 0
    after = {s: (out / "slices" / s).read_bytes() for s in sorted(os.listdir(out / "slices"))}
    assert before == after


def test_export_plots_3d_slices(tmp_path):
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
        "solver": {"horizon": 0.2, "snapshot_stride": 50, "convergence_eps": 0.0},
    }
    cfg = tmp_path / "cfg3.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "run3"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    # 3-D export without slice heights is a config error
    assert main(["export-plots", "--run", str(out)]) == 2
    assert main(["export-plots", "--run", str(out), "--z", "0.0,0.5"]) == 0
    slices = os.listdir(out / "slices")
    assert any("z0p0" in s for s in slices)
    assert any("geometry_" in s for s in slices)
    assert_slice_cells_are_floats(out / "slices")
    with open(out / "slices" / "frt_0000_z0p0.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["i0", "i1", "x0", "x1", "value"]
    assert len(rows) == 1 + 9 * 9
    assert rows[1 + 9 * 2 + 3][:4] == ["2", "3", "-0.5", "-0.25"]


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


@pytest.mark.parametrize(
    "solver,key",
    [({"horizn": 1.0}, "horizn"), ({"horizon": 0.4, "direction": "backward"}, "direction")],
)
def test_unknown_solver_key_exits_config_error(tmp_path, capsys, solver, key):
    scene_path = make_scene(tmp_path, [0.8, 0.8], 0.1)
    cfg = verify_config(tmp_path, scene_path)
    doc = json.loads(cfg.read_text())
    doc["solver"] = solver
    cfg.write_text(json.dumps(doc))
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert key in capsys.readouterr().err


def test_unknown_training_key_exits_config_error(tmp_path, capsys):
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({"env": "true_land", "training": {"epoch": 3}}))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 2
    assert "epoch" in capsys.readouterr().err


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
