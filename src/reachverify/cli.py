"""Command-line pipeline driver.

Subcommands mirror the verification workflow: ``train`` produces model,
policy, and bounds artifacts; ``verify`` computes the forward tube and the
safe/unsafe verdict; ``safe-set`` computes per-obstacle backward tubes and
extracts the safe initial states; ``oracle`` runs Monte-Carlo ground
truth; ``export-plots`` turns a finished run directory into plain CSV
slices any plotting tool can consume.

``safe-set`` scans the closed loop's rates once for all its per-obstacle
tubes.  How many of them it solves at once, and in how many slabs of grid
planes each steps, is ``solver.brt_workspaces``'s rule: every thread
covers a measured least number of nodes (see the ``solver`` module
notes).  However the work is split, the outputs are byte-identical to a
serial run's.  ``safe-set``'s tube directories are put in place only once
every solve has succeeded, so a failed ``safe-set`` leaves none of them
changed.

Exit codes: 0 success, 2 configuration error, 3 numerical failure, and 4
from ``verify --strict`` when the policy is unsafe.  Given identical
configs and seeds every command writes byte-identical outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import shutil
import sys
import typing
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import error_bounds as eb
from . import nn
from .dynamics import ClosedLoopSystem, LearnedPlant, load_policy, save_policy
from .geometry import (
    AxisBox,
    AxisCylinder,
    Ball,
    ShapeSet,
    build_grid,
    interpolate_many,
)
from .oracle import _rollout_steps, mc_ground_truth
from .scene import (
    Scene,
    TubeWriter,
    air_scene,
    export_tube,  # noqa: F401  (perfbench's tracer wraps this name)
    field_to_csv,
    file_sha256,
    land_scene,
    load_scene,
    load_tube_manifest,  # noqa: F401  (perfbench's tracer wraps this name)
    mask_to_csv,
    policy_from_dict,
    replace_dir,
    save_scene,
    slice_row_prefixes,
    staging_dir,
    store_to_slices,
    tube_snapshot_files,
)
from .solver import SolverConfig, brt_workspaces, solve_brt, solve_frt
from .trainer import TrainRunConfig, make_plant, train_loop
from .verification import build_report, classify_policy, union_brt_field, unsafe_initial_states

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_UNSAFE = 4


def _load_json(path) -> dict:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"malformed config file {path}: {exc}") from exc
    if type(doc) is not dict:
        raise ValueError(f"{path} does not hold a JSON object")
    return doc


def _write_json(doc, path) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)


def _from_block(cls, block, name: str, base=None, keys=None):
    """A ``cls`` from the JSON block ``name`` (the whole file if empty):
    ``keys`` maps block keys to fields (default: all, by name), and fields
    the block omits keep their value in ``base`` (default ``cls()``).  Bad
    keys or values are a ValueError naming the block and the key."""
    where = f"the {name!r} block" if name else "the config"
    keys = keys or {f.name: f.name for f in dataclasses.fields(cls)}
    if type(block) is not dict:
        raise ValueError(f"{where} must be a JSON object")
    unknown = sorted(set(block) - set(keys))
    if unknown:
        raise ValueError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    hints = typing.get_type_hints(cls)
    prefix = f"{name}." if name else ""
    values = {keys[k]: nn.json_value(hints[keys[k]], v, prefix + k) for k, v in block.items()}
    try:
        return dataclasses.replace(cls() if base is None else base, **values)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


# Train-config blocks that group TrainRunConfig fields: block key -> field.
_TRAIN_GROUPS = {
    "mpc": {"horizon": "mpc_horizon", "candidates": "mpc_candidates", "discount": "discount"},
    "reward": {k: k for k in ("goal_weight", "obstacle_weight", "obstacle_margin", "action_cost")},
}
# Train-config blocks that overlay a TrainingConfig field of TrainRunConfig.
# Their ``seed`` is not a key: train_loop derives it from the run seed.
_TRAIN_NETS = {"training": "model_training", "policy_training": "policy_training"}


def _train_run_config(config: dict):
    """Decode a train config into its ``TrainRunConfig`` and its ``scene``
    path; every key it leaves out keeps its ``TrainRunConfig()`` value."""
    run = dict(config)
    blocks = {name: run.pop(name, {}) for name in (*_TRAIN_GROUPS, *_TRAIN_NETS)}
    scene = nn.json_value(str | None, run.pop("scene", None), "scene")
    grouped = [f for keys in (*_TRAIN_GROUPS.values(), _TRAIN_NETS) for f in keys.values()]
    top = {f.name: f.name for f in dataclasses.fields(TrainRunConfig) if f.name not in grouped}
    cfg = _from_block(TrainRunConfig, run, "", keys=top)
    for block, keys in _TRAIN_GROUPS.items():
        cfg = _from_block(TrainRunConfig, blocks[block], block, cfg, keys)
    net_keys = {f.name: f.name for f in dataclasses.fields(nn.TrainingConfig) if f.name != "seed"}
    for block, field in _TRAIN_NETS.items():
        net = _from_block(nn.TrainingConfig, blocks[block], block, getattr(cfg, field), net_keys)
        cfg = dataclasses.replace(cfg, **{field: net})
    return cfg, scene


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """A verify, safe-set or oracle config (keys: ``_RUN_KEYS``), or the
    ``mc`` block of a safe-set config (keys: ``_MC_KEYS``).  ``policy`` is
    a policy file or an inline policy; without ``bounds`` the box is zero.
    ``horizon``, ``dt``, ``num_samples`` and ``draws`` are checked where a
    rollout runs: in ``oracle`` and ``safe-set --compare-mc``."""

    scene: str | None = None
    env: str = TrainRunConfig.env
    plant: str = "learned"
    model: str | None = None
    policy: str | dict | None = None
    bounds: str | None = None
    seed: int = 0
    solver: dict = dataclasses.field(default_factory=dict)
    mc: dict = dataclasses.field(default_factory=dict)
    horizon: float = SolverConfig.horizon
    dt: float = 0.1
    num_samples: int = 1000
    draws: int = 16


_ARTIFACT_KEYS = ("scene", "env", "plant", "model", "policy", "bounds", "seed")
_RUN_KEYS = {
    "verify": (*_ARTIFACT_KEYS, "solver", "mc"),
    "safe-set": (*_ARTIFACT_KEYS, "solver", "mc"),
    "oracle": (*_ARTIFACT_KEYS, "horizon", "dt", "num_samples", "draws"),
}
_MC_KEYS = ("plant", "horizon", "dt", "num_samples")


def _resolve_scene(scene: str | None, env: str) -> Scene:
    if scene is not None:
        return load_scene(scene)
    if env == "true_land":
        return land_scene()
    if env == "true_air":
        return air_scene()
    raise ValueError(f"no scene file given and no default for env {env!r}")


def _resolve_system(cfg: RunConfig):
    """Plant + policy + bounds of a run config; returns (sys, provenance)."""
    prov = {}
    if cfg.plant == "learned":
        if cfg.model is None:
            raise ValueError('a learned plant needs a "model" file')
        plant = LearnedPlant(nn.load_model(cfg.model))
        prov["model"] = file_sha256(cfg.model)
    else:
        plant = make_plant(cfg.plant)
    if cfg.policy is None:
        raise ValueError('the config names no "policy"')
    if isinstance(cfg.policy, dict):
        policy = policy_from_dict(cfg.policy)
        prov["policy"] = f"inline:{cfg.policy.get('kind')}"
    else:
        policy = load_policy(cfg.policy)
        prov["policy"] = file_sha256(cfg.policy)
    if cfg.bounds is not None:
        bounds = eb.load_bounds(cfg.bounds)
        prov["bounds"] = file_sha256(cfg.bounds)
    else:
        bounds = eb.DisturbanceBounds.zero(plant.n_state)
        prov["bounds"] = "zero"
    return ClosedLoopSystem(plant, policy, bounds), prov


def _run_inputs(args):
    """Decoded config, seed, scene, closed-loop system and provenance of a run."""
    config = _load_json(args.config)
    if {"k_sigma", "dataset"} & set(config):
        raise ValueError('k_sigma / dataset bounds are gone: pass the bounds.json '
                         'that train wrote as "bounds"')
    cfg = _from_block(RunConfig, config, "", keys={k: k for k in _RUN_KEYS[args.command]})
    seed = cfg.seed if args.seed is None else args.seed
    return cfg, seed, _resolve_scene(cfg.scene, cfg.env), *_resolve_system(cfg)


def _tube_configs(cfg: RunConfig):
    """The solver config and the Monte-Carlo settings of a verify /
    safe-set config; the ``mc`` plant defaults to the run's ``env`` and
    its horizon to the solver's."""
    solver_cfg = _from_block(SolverConfig, cfg.solver, "solver")
    mc = {"plant": cfg.env, "horizon": solver_cfg.horizon, **cfg.mc}
    return solver_cfg, _from_block(RunConfig, mc, "mc", keys={k: k for k in _MC_KEYS})


def _write_ground_truth(mc, n: int, path) -> None:
    """One row per Monte-Carlo start: its ``n`` coordinates and a 0/1 safe flag."""
    cols = [map(repr, mc.samples[:, i].tolist()) for i in range(n)]
    cols.append(map(str, np.asarray(mc.safe, dtype=int).tolist()))
    nn.write_csv(path, [f"s{i}" for i in range(n)] + ["safe"], [cols])


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    config = _load_json(args.config)
    run_cfg, scene_path = _train_run_config(config)
    if args.seed is not None:
        run_cfg = dataclasses.replace(run_cfg, seed=args.seed)
    scene = _resolve_scene(scene_path, run_cfg.env)
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
        "seed": run_cfg.seed,
        "config": config,
        "files": {k: os.path.basename(p) for k, p in paths.items()},
        "hashes": {k: file_sha256(p) for k, p in paths.items()},
    }
    _write_json(manifest, os.path.join(out, "manifest.json"))
    print(f"train: wrote artifacts to {out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg, seed, scene, sys_cl, prov = _run_inputs(args)
    solver_cfg, _ = _tube_configs(cfg)

    out = args.out
    os.makedirs(out, exist_ok=True)
    with TubeWriter(os.path.join(out, "frt"), prefix="frt") as store:
        frt = solve_frt(scene.initial_set, sys_cl, solver_cfg, scene.grid, sink=store)
        frt_manifest = store.finish(frt)
    verdict, flags = classify_policy(frt, scene.obstacles, scene.grid)
    save_scene(scene, os.path.join(out, "scene.json"))
    report = {
        "verdict": verdict,
        "frt_intersects_obstacle": flags,
        "provenance": {
            **prov,
            "seed": seed,
            "solver": dataclasses.asdict(solver_cfg),
        },
        "exports": {"frt_manifest": os.path.relpath(frt_manifest, out)},
    }
    _write_json(report, os.path.join(out, "report.json"))
    print(f"verify: policy is {verdict} (per-obstacle: {flags})")
    if args.strict and verdict == "unsafe":
        return EXIT_UNSAFE
    return EXIT_OK


def _obstacle_tubes(prims, stores, sys_cl, solver_cfg, grid) -> list:
    """Each obstacle's backward tube, written to its store.

    The tubes come in obstacle order, and so does the first error.  Every
    solve reads the coefficients of one rate scan.  The workspaces' lanes
    run on threads, each with a buffer set made here, in the calling
    thread, before any thread starts: memory a worker thread allocates
    stays with its arena after the thread frees it.
    """
    workspaces = brt_workspaces(sys_cl, grid, len(prims))

    def solve(prim, store):
        return solve_brt(ShapeSet((prim,)), sys_cl, solver_cfg, grid, sink=store,
                         workspaces=workspaces)

    if workspaces.lanes == 1:
        return list(map(solve, prims, stores))
    with ThreadPoolExecutor(workspaces.lanes) as pool:
        return list(pool.map(solve, prims, stores))


def cmd_safe_set(args) -> int:
    cfg, seed, scene, sys_cl, prov = _run_inputs(args)
    solver_cfg, mc_cfg = _tube_configs(cfg)
    if args.compare_mc:
        try:
            _rollout_steps(mc_cfg.horizon, mc_cfg.dt, mc_cfg.num_samples)
        except ValueError as exc:
            raise ValueError(f"the 'mc' block: {exc}") from None

    out = args.out
    os.makedirs(out, exist_ok=True)
    prims = scene.obstacles.primitives

    # Every tube is put in place only once every solve has returned, so a
    # failed solve leaves each tube directory as it was.
    with contextlib.ExitStack() as stack:
        stores = [stack.enter_context(TubeWriter(os.path.join(out, f"brt_obstacle_{i}"),
                                                 prefix="brt"))
                  for i in range(len(prims))]
        tubes = _obstacle_tubes(prims, stores, sys_cl, solver_cfg, scene.grid)
        brt_manifests = [os.path.relpath(store.finish(tube), out)
                         for store, tube in zip(stores, tubes)]
    finals = [tube.final for tube in tubes]

    union_field = union_brt_field(finals)
    report = build_report(
        scene.grid,
        scene.initial_set,
        union_field,
        provenance={**prov, "seed": seed},
    )
    per_obstacle = [bool(unsafe_initial_states(f, report.initial_mask).any()) for f in finals]
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
        mc_plant = make_plant(mc_cfg.plant) if mc_cfg.plant != "learned" else sys_cl.plant
        mc_sys = ClosedLoopSystem(
            mc_plant, sys_cl.policy, eb.DisturbanceBounds.zero(mc_plant.n_state)
        )
        # The box is zero, so any disturbance draw would repeat the zero draw.
        mc = mc_ground_truth(mc_sys, scene.initial_set, scene.obstacles, mc_cfg.horizon,
                             mc_cfg.dt, mc_cfg.num_samples, num_disturbance_draws=0, seed=seed)
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
    cfg, seed, scene, sys_cl, prov = _run_inputs(args)
    mc = mc_ground_truth(sys_cl, scene.initial_set, scene.obstacles, cfg.horizon, cfg.dt,
                         cfg.num_samples, cfg.draws, seed)
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
                "disturbance_draws": cfg.draws,
                "horizon": cfg.horizon,
                "dt": cfg.dt,
            },
            "provenance": prov,
        },
        os.path.join(out, "oracle_manifest.json"),
    )
    print(f"oracle: safe fraction {mc.safe_fraction:.3f} over {len(mc.samples)} samples")
    return EXIT_OK


def _slice_tag(z: float) -> str:
    return "z" + repr(float(z)).replace(".", "p").replace("-", "m")


def _circle(center, r):
    t = np.linspace(0, 2 * np.pi, 65)
    return np.stack([center[0] + r * np.cos(t), center[1] + r * np.sin(t)], axis=1)


def _rectangle(center, half_widths):
    (cx, cy), (hx, hy) = center[:2], half_widths[:2]
    return np.array(
        [[cx - hx, cy - hy], [cx + hx, cy - hy], [cx + hx, cy + hy],
         [cx - hx, cy + hy], [cx - hx, cy - hy]]
    )


def _polyline(prim, z: float | None):
    """Closed boundary polyline of a primitive, or of its cross-section at
    height ``z`` in 3-D (``None`` where the plane misses it)."""
    if z is None:
        if isinstance(prim, Ball):
            return _circle(prim.center, prim.radius)
        if isinstance(prim, AxisBox):
            return _rectangle(prim.center, prim.half_widths)
        raise ValueError(f"cannot draw primitive {type(prim).__name__} in 2-D")
    if isinstance(prim, Ball):
        dz = z - prim.center[2]
        if abs(dz) >= prim.radius:
            return None
        return _circle(prim.center, float(np.sqrt(prim.radius**2 - dz**2)))
    if isinstance(prim, AxisBox):
        if abs(z - prim.center[2]) > prim.half_widths[2]:
            return None
        return _rectangle(prim.center, prim.half_widths)
    if isinstance(prim, AxisCylinder) and prim.axis_index == 2:
        if abs(z - prim.center[2]) > prim.half_height:
            return None
        return _circle(prim.center, prim.radius)
    return None


def _export_geometry(scene: Scene, path, z: float | None) -> None:
    shapes = [(f"{label}_{i}", _polyline(prim, z))
              for label, group in (("initial", scene.initial_set), ("goal", scene.goal_set),
                                   ("obstacle", scene.obstacles))
              for i, prim in enumerate(group.primitives)]
    nn.write_csv(path, ["shape", "vertex", "x0", "x1"], (
        [[name] * len(poly), map(str, range(len(poly))),
         map(repr, poly[:, 0].tolist()), map(repr, poly[:, 1].tolist())]
        for name, poly in shapes if poly is not None))


def _z_planes(grid, z_values) -> list:
    """Index of the z plane nearest each ``--z`` height.  A height on a 2-D
    grid, or one not finite or outside the z range by more than
    interpolate_many's tolerance, is a ValueError."""
    if grid.dims == 2:
        if z_values:
            raise ValueError(f"--z {z_values[0]!r}: a 2-D run has no z axis to slice")
        return []
    if grid.dims != 3:
        raise ValueError(f"cannot slice a {grid.dims}-D run")
    if not z_values:
        raise ValueError("3-D run: pass --z with comma-separated slice heights")
    lo, hi = float(grid.lo[2]), float(grid.hi[2])
    tol = 1e-9 * (1.0 + (hi - lo))
    for z in z_values:
        if not (math.isfinite(z) and lo - tol <= z <= hi + tol):
            raise ValueError(f"--z {z!r} is not a height in the grid's z range [{lo!r}, {hi!r}]")
    zs = grid.axis_coords(2)
    return [int(np.argmin(np.abs(zs - z))) for z in z_values]


def _write_slices(run_dir, slices_dir, scene, z_values) -> int:
    """Write every slice, geometry and scatter file of a run into
    ``slices_dir``; returns the number of slice files."""
    wrote = 0
    for entry in sorted(os.listdir(run_dir)):
        manifest_path = os.path.join(run_dir, entry, "manifest.json")
        if not os.path.isfile(manifest_path):
            continue
        grid, snapshots, _ = tube_snapshot_files(manifest_path)
        planes = _z_planes(grid, z_values)
        tags = ["_" + _slice_tag(z) for z in z_values] if planes else [""]
        prefixes = slice_row_prefixes(build_grid(grid.lo[:2], grid.hi[:2], grid.counts[:2]))
        for k, (_, path) in enumerate(snapshots):
            outs = [os.path.join(slices_dir, f"{entry}_{k:04d}{tag}.csv") for tag in tags]
            store_to_slices(path, grid, planes or [0], outs, prefixes)
        wrote += len(snapshots) * len(tags)

    if scene is not None:  # a checked --z: heights on a 3-D scene, none on a 2-D one
        for z in z_values or [None]:
            tag = "" if z is None else "_" + _slice_tag(z)
            _export_geometry(scene, os.path.join(slices_dir, f"geometry{tag}.csv"), z)

    gt = os.path.join(run_dir, "ground_truth.csv")
    if os.path.exists(gt):
        shutil.copyfile(gt, os.path.join(slices_dir, "scatter.csv"))
    return wrote


def cmd_export_plots(args) -> int:
    run_dir = args.run
    if not os.path.isdir(run_dir):
        raise FileNotFoundError(f"run directory not found: {run_dir}")
    z_values = [float(z) for z in args.z.split(",")] if args.z else []

    scene = None
    scene_path = os.path.join(run_dir, "scene.json")
    if os.path.exists(scene_path):
        scene = load_scene(scene_path)
        _z_planes(scene.grid, z_values)  # a bad --z stops the export before any write

    # The export is built in a sibling directory that replaces slices/ only
    # once every file is written, so a failed export leaves slices/ as it was.
    slices_dir = os.path.join(run_dir, "slices")
    staging = staging_dir(slices_dir)
    try:
        wrote = _write_slices(run_dir, staging, scene, z_values)
    except BaseException:
        shutil.rmtree(staging)
        raise
    replace_dir(staging, slices_dir)

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
