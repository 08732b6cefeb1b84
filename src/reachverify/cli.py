"""Command-line pipeline driver.

Subcommands mirror the verification workflow: ``train`` produces model,
policy, and bounds artifacts; ``verify`` computes the forward tube and the
safe/unsafe verdict; ``safe-set`` computes per-obstacle backward tubes and
extracts the safe initial states; ``oracle`` runs Monte-Carlo ground
truth; ``export-plots`` turns a finished run directory into plain CSV
slices any plotting tool can consume.

Exit codes: 0 success, 2 configuration error, 3 numerical failure, and 4
from ``verify --strict`` when the policy is unsafe.  Given identical
configs and seeds every command writes byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import numpy as np

from . import error_bounds as eb
from . import nn
from .dynamics import ClosedLoopSystem, LearnedPlant, load_policy, save_policy
from .geometry import (
    AxisBox,
    AxisCylinder,
    Ball,
    ScalarField,
    ShapeSet,
    build_grid,
    interpolate_many,
)
from .oracle import mc_ground_truth
from .scene import (
    Scene,
    air_scene,
    export_tube,
    field_to_csv,
    file_sha256,
    land_scene,
    load_scene,
    load_tube_manifest,
    mask_to_csv,
    save_scene,
)
from .solver import SolverConfig, solve_brt, solve_frt
from .trainer import TrainRunConfig, make_plant, train_loop
from .verification import build_report, classify_policy, union_brt_field

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_UNSAFE = 4


def _load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _write_json(doc, path) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)


def _training_config(d: dict | None, seed: int) -> nn.TrainingConfig:
    d = dict(d or {})
    d.setdefault("seed", seed)
    if "hidden_sizes" in d:
        d["hidden_sizes"] = tuple(d["hidden_sizes"])
    return nn.TrainingConfig(**d)


def _solver_config(d: dict | None, **overrides) -> SolverConfig:
    d = dict(d or {})
    d.update(overrides)
    d.setdefault("horizon", 10.0)
    return SolverConfig(**d)


def _resolve_scene(config: dict) -> Scene:
    if "scene" in config and config["scene"]:
        return load_scene(config["scene"])
    env = config.get("env", "true_land")
    if env == "true_land":
        return land_scene()
    if env == "true_air":
        return air_scene()
    raise ValueError(f"no scene file given and no default for env {env!r}")


def _resolve_system(config: dict, scene: Scene, seed: int):
    """Plant + policy + bounds from a run config; returns (sys, provenance)."""
    prov = {}
    plant_kind = config.get("plant", "learned")
    if plant_kind == "learned":
        model = nn.load_model(config["model"])
        plant = LearnedPlant(model)
        prov["model"] = file_sha256(config["model"])
    else:
        plant = make_plant(plant_kind)
    policy_spec = config["policy"]
    if isinstance(policy_spec, dict):
        from .scene import policy_from_dict

        policy = policy_from_dict(policy_spec)
        prov["policy"] = f"inline:{policy_spec.get('kind')}"
    else:
        policy = load_policy(policy_spec)
        prov["policy"] = file_sha256(policy_spec)

    if config.get("bounds"):
        bounds = eb.load_bounds(config["bounds"])
        prov["bounds"] = file_sha256(config["bounds"])
    elif config.get("k_sigma") and config.get("dataset"):
        model = nn.load_model(config["model"])
        data = nn.load_dataset(config["dataset"], model.meta.n_state, model.meta.n_action)
        _, val = nn.split_dataset(data, seed=seed)
        stats = eb.residuals(model, val)
        bounds = eb.k_sigma_bounds(stats, float(config["k_sigma"]), model.meta.dt_env)
        prov["bounds"] = f"k_sigma={config['k_sigma']} from {config['dataset']}"
    else:
        bounds = eb.DisturbanceBounds.zero(plant.n_state)
        prov["bounds"] = "zero"
    return ClosedLoopSystem(plant, policy, bounds), prov


def _write_ground_truth(mc, n: int, path) -> None:
    """One row per Monte-Carlo start: its ``n`` coordinates and a 0/1 safe flag."""
    cols = [map(repr, mc.samples[:, i].tolist()) for i in range(n)]
    cols.append(map(str, np.asarray(mc.safe, dtype=int).tolist()))
    with open(path, "w") as fh:
        fh.write(",".join([f"s{i}" for i in range(n)] + ["safe"]) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cols))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    config = _load_json(args.config)
    seed = args.seed if args.seed is not None else int(config.get("seed", 0))
    scene = _resolve_scene(config)
    run_cfg = TrainRunConfig(
        env=config.get("env", "true_land"),
        initial_samples=int(config.get("initial_samples", 300)),
        outer_iterations=int(config.get("outer_iterations", 1)),
        samples_per_iteration=int(config.get("samples_per_iteration", 500)),
        rollout_steps=int(config.get("rollout_steps", 5)),
        mpc_horizon=int(config.get("mpc", {}).get("horizon", 8)),
        mpc_candidates=int(config.get("mpc", {}).get("candidates", 64)),
        discount=float(config.get("mpc", {}).get("discount", 0.9)),
        goal_weight=float(config.get("reward", {}).get("goal_weight", 1.0)),
        obstacle_weight=float(config.get("reward", {}).get("obstacle_weight", 10.0)),
        obstacle_margin=float(config.get("reward", {}).get("obstacle_margin", 0.3)),
        action_cost=float(config.get("reward", {}).get("action_cost", 0.01)),
        distill_states=int(config.get("distill_states", 400)),
        k_sigma=float(config.get("k_sigma", 3.0)),
        dt_env=float(config.get("dt_env", 0.1)),
        seed=seed,
        model_training=_training_config(config.get("training"), seed),
        policy_training=_training_config(
            config.get("policy_training", {"epochs": 300}), seed
        ),
    )

    result = train_loop(run_cfg, scene)

    out = args.out
    os.makedirs(out, exist_ok=True)
    paths = {
        "model": os.path.join(out, "model.json"),
        "policy": os.path.join(out, "policy.json"),
        "bounds": os.path.join(out, "bounds.json"),
        "dataset": os.path.join(out, "dataset.csv"),
        "log": os.path.join(out, "log.json"),
        "scene": os.path.join(out, "scene.json"),
    }
    nn.save_model(result.model, paths["model"])
    save_policy(result.policy, paths["policy"])
    eb.save_bounds(result.bounds, paths["bounds"])
    nn.save_dataset(result.dataset, paths["dataset"])
    _write_json(result.logs, paths["log"])
    save_scene(scene, paths["scene"])
    manifest = {
        "command": "train",
        "seed": seed,
        "config": config,
        "files": {k: os.path.basename(p) for k, p in paths.items()},
        "hashes": {k: file_sha256(p) for k, p in paths.items()},
    }
    _write_json(manifest, os.path.join(out, "manifest.json"))
    print(f"train: wrote artifacts to {out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    config = _load_json(args.config)
    seed = args.seed if args.seed is not None else int(config.get("seed", 0))
    scene = _resolve_scene(config)
    sys_cl, prov = _resolve_system(config, scene, seed)
    solver_cfg = _solver_config(config.get("solver"), direction="forward")

    frt = solve_frt(scene.initial_set, sys_cl, solver_cfg, scene.grid)
    verdict, flags = classify_policy(frt, scene.obstacles, scene.grid)

    out = args.out
    os.makedirs(out, exist_ok=True)
    frt_manifest = export_tube(frt, os.path.join(out, "frt"), prefix="frt")
    save_scene(scene, os.path.join(out, "scene.json"))
    report = {
        "verdict": verdict,
        "frt_intersects_obstacle": flags,
        "provenance": {
            **prov,
            "seed": seed,
            "solver": {
                "horizon": solver_cfg.horizon,
                "cfl_factor": solver_cfg.cfl_factor,
                "target_mode": solver_cfg.target_mode,
                "direction": solver_cfg.direction,
                "snapshot_stride": solver_cfg.snapshot_stride,
            },
        },
        "exports": {"frt_manifest": os.path.relpath(frt_manifest, out)},
    }
    _write_json(report, os.path.join(out, "report.json"))
    print(f"verify: policy is {verdict} (per-obstacle: {flags})")
    if args.strict and verdict == "unsafe":
        return EXIT_UNSAFE
    return EXIT_OK


def cmd_safe_set(args) -> int:
    config = _load_json(args.config)
    seed = args.seed if args.seed is not None else int(config.get("seed", 0))
    scene = _resolve_scene(config)
    sys_cl, prov = _resolve_system(config, scene, seed)
    solver_cfg = _solver_config(
        config.get("solver"), direction="backward", target_mode="reach_unsafe"
    )

    out = args.out
    os.makedirs(out, exist_ok=True)
    finals = []
    brt_manifests = []
    for i, prim in enumerate(scene.obstacles.primitives):
        tube = solve_brt(ShapeSet((prim,)), sys_cl, solver_cfg, scene.grid)
        manifest = export_tube(tube, os.path.join(out, f"brt_obstacle_{i}"), prefix="brt")
        finals.append(tube.final_field())
        brt_manifests.append(os.path.relpath(manifest, out))

    from .verification import unsafe_initial_states

    per_obstacle = [
        bool(unsafe_initial_states(f, scene.initial_set).any()) for f in finals
    ]
    union_field = union_brt_field(finals)
    report = build_report(
        scene.grid,
        scene.initial_set,
        union_field,
        provenance={**prov, "seed": seed},
    )
    field_to_csv(union_field, os.path.join(out, "brt_union.csv"))
    mask_to_csv(scene.grid, report.safe_mask, os.path.join(out, "safe_mask.csv"))
    mask_to_csv(scene.grid, report.unsafe_mask, os.path.join(out, "unsafe_mask.csv"))
    mask_to_csv(scene.grid, report.initial_mask, os.path.join(out, "initial_mask.csv"))
    save_scene(scene, os.path.join(out, "scene.json"))

    doc = {
        "verdict": report.verdict,
        "safe_fraction": report.safe_fraction,
        "obstacle_reaches_initial": per_obstacle,
        "provenance": report.provenance,
        "exports": {
            "brt_manifests": brt_manifests,
            "brt_union": "brt_union.csv",
            "safe_mask": "safe_mask.csv",
            "unsafe_mask": "unsafe_mask.csv",
        },
    }

    if args.compare_mc:
        mc_cfg = config.get("mc", {})
        plant_kind = mc_cfg.get("plant", "true_land")
        mc_plant = make_plant(plant_kind) if plant_kind != "learned" else sys_cl.plant
        mc_sys = ClosedLoopSystem(
            mc_plant, sys_cl.policy, eb.DisturbanceBounds.zero(mc_plant.n_state)
        )
        mc = mc_ground_truth(
            mc_sys,
            scene.initial_set,
            scene.obstacles,
            horizon=float(mc_cfg.get("horizon", solver_cfg.horizon)),
            dt=float(mc_cfg.get("dt", 0.1)),
            num_samples=int(mc_cfg.get("num_samples", 1000)),
            num_disturbance_draws=int(mc_cfg.get("draws", 0)),
            seed=seed,
        )
        brt_safe = interpolate_many(union_field, mc.samples) > 0.0
        agreement = float(np.mean(brt_safe == mc.safe))
        doc["mc_comparison"] = {
            "num_samples": len(mc.samples),
            "mc_safe_fraction": mc.safe_fraction,
            "agreement": agreement,
        }
        _write_ground_truth(mc, scene.grid.dims, os.path.join(out, "ground_truth.csv"))

    _write_json(doc, os.path.join(out, "report.json"))
    print(f"safe-set: verdict={report.verdict} safe_fraction={report.safe_fraction:.3f}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    config = _load_json(args.config)
    seed = args.seed if args.seed is not None else int(config.get("seed", 0))
    scene = _resolve_scene(config)
    sys_cl, prov = _resolve_system(config, scene, seed)
    mc = mc_ground_truth(
        sys_cl,
        scene.initial_set,
        scene.obstacles,
        horizon=float(config.get("horizon", 10.0)),
        dt=float(config.get("dt", 0.1)),
        num_samples=int(config.get("num_samples", 1000)),
        num_disturbance_draws=int(config.get("draws", 16)),
        include_zero_draw=bool(config.get("include_zero_draw", True)),
        seed=seed,
    )
    out = args.out
    os.makedirs(out, exist_ok=True)
    _write_ground_truth(mc, scene.grid.dims, os.path.join(out, "ground_truth.csv"))
    _write_json(
        {
            "command": "oracle",
            "seed": seed,
            "safe_fraction": mc.safe_fraction,
            "num_samples": len(mc.samples),
            "strategy": {
                "disturbance_draws": mc.num_draws,
                "include_zero_draw": bool(config.get("include_zero_draw", True)),
                "horizon": mc.horizon,
                "dt": mc.dt,
            },
            "provenance": prov,
        },
        os.path.join(out, "oracle_manifest.json"),
    )
    print(f"oracle: safe fraction {mc.safe_fraction:.3f} over {len(mc.samples)} samples")
    return EXIT_OK


def _slice_tag(z: float) -> str:
    return "z" + repr(float(z)).replace(".", "p").replace("-", "m")


def _polyline(prim, z: float | None):
    """Closed boundary polyline of a primitive (or its z cross-section)."""
    if z is None:
        if isinstance(prim, Ball):
            t = np.linspace(0, 2 * np.pi, 65)
            return np.stack(
                [prim.center[0] + prim.radius * np.cos(t), prim.center[1] + prim.radius * np.sin(t)],
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
    # z cross-sections of 3-D primitives
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
            [prim.center[0] + prim.radius * np.cos(t), prim.center[1] + prim.radius * np.sin(t)],
            axis=1,
        )
    return None


def _export_geometry(scene: Scene, path, z: float | None) -> None:
    rows = []
    groups = [
        ("initial", scene.initial_set),
        ("goal", scene.goal_set),
        ("obstacle", scene.obstacles),
    ]
    for label, shapes in groups:
        for i, prim in enumerate(shapes.primitives):
            poly = _polyline(prim, z)
            if poly is None:
                continue
            for k, (x, y) in enumerate(poly.tolist()):
                rows.append(f"{label}_{i},{k},{x!r},{y!r}")
    with open(path, "w") as fh:
        fh.write("shape,vertex,x0,x1\n")
        for row in rows:
            fh.write(row + "\n")


def cmd_export_plots(args) -> int:
    run_dir = args.run
    if not os.path.isdir(run_dir):
        raise FileNotFoundError(f"run directory not found: {run_dir}")
    slices_dir = os.path.join(run_dir, "slices")
    os.makedirs(slices_dir, exist_ok=True)
    z_values = [float(z) for z in args.z.split(",")] if args.z else []

    scene = None
    scene_path = os.path.join(run_dir, "scene.json")
    if os.path.exists(scene_path):
        scene = load_scene(scene_path)

    wrote = 0
    for entry in sorted(os.listdir(run_dir)):
        manifest_path = os.path.join(run_dir, entry, "manifest.json")
        if not os.path.isfile(manifest_path):
            continue
        manifest = _load_json(manifest_path)
        dims = len(manifest["grid"]["counts"])
        if dims == 2:
            # Snapshot files already have the slice format: copy the bytes.
            for k, snap in enumerate(manifest["snapshots"]):
                shutil.copyfile(os.path.join(run_dir, entry, snap["file"]),
                                os.path.join(slices_dir, f"{entry}_{k:04d}.csv"))
                wrote += 1
        elif dims == 3:
            if not z_values:
                raise ValueError("3-D run: pass --z with comma-separated slice heights")
            grid, snapshots, _ = load_tube_manifest(manifest_path)
            plane_grid = build_grid(grid.lo[:2], grid.hi[:2], grid.counts[:2])
            zs = grid.axis_coords(2)
            for k, (t, fld) in enumerate(snapshots):
                for z in z_values:
                    j = int(np.argmin(np.abs(zs - z)))
                    name = f"{entry}_{k:04d}_{_slice_tag(z)}.csv"
                    field_to_csv(ScalarField(plane_grid, fld.values[:, :, j], t),
                                 os.path.join(slices_dir, name))
                    wrote += 1
        else:
            raise ValueError(f"cannot slice a {dims}-D run")

    if scene is not None:
        if scene.grid.dims == 2:
            _export_geometry(scene, os.path.join(slices_dir, "geometry.csv"), None)
        else:
            for z in z_values:
                _export_geometry(
                    scene, os.path.join(slices_dir, f"geometry_{_slice_tag(z)}.csv"), z
                )

    gt = os.path.join(run_dir, "ground_truth.csv")
    if os.path.exists(gt):
        shutil.copyfile(gt, os.path.join(slices_dir, "scatter.csv"))

    print(f"export-plots: wrote {wrote} slice files to {slices_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser / entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reachverify",
        description="Reachability-based safety verification for learned controllers",
    )
    sub = parser.add_subparsers(dest="command")

    def common(p, needs_config=True, needs_out=True):
        if needs_config:
            p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="root random seed")
        if needs_out:
            p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("train", help="fit model, distill policy, estimate bounds")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("verify", help="forward tube and safe/unsafe verdict")
    common(p)
    p.add_argument("--strict", action="store_true",
                   help="exit with code 4 when the policy is unsafe")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("safe-set", help="backward tubes and safe initial states")
    common(p)
    p.add_argument("--compare-mc", action="store_true",
                   help="also run Monte-Carlo ground truth and report agreement")
    p.set_defaults(func=cmd_safe_set)

    p = sub.add_parser("oracle", help="Monte-Carlo ground-truth safety flags")
    common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("export-plots", help="CSV slices of a finished run")
    p.add_argument("--run", required=True, help="run directory to export")
    p.add_argument("--z", default="", help="comma-separated z slice heights (3-D runs)")
    p.set_defaults(func=cmd_export_plots)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG
    try:
        return args.func(args)
    except (FileNotFoundError, IsADirectoryError, PermissionError, ValueError,
            KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
