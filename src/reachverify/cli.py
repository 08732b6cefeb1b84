"""Command-line pipeline driver.

Subcommands mirror the verification workflow: ``train`` produces model,
policy, and bounds artifacts; ``verify`` computes the forward tube and the
safe/unsafe verdict; ``safe-set`` computes per-obstacle backward tubes and
extracts the safe initial states; ``oracle`` runs Monte-Carlo ground
truth; ``export-plots`` turns a finished run directory into plain CSV
slices any plotting tool can consume.

``safe-set`` solves its per-obstacle tubes one after another over one
departure map of the closed loop (see the ``solver`` module notes), and
puts its tube directories in place only once every solve has succeeded,
so a failed ``safe-set`` leaves none of them changed.  No command starts a
thread; the rollouts of ``oracle`` and ``safe-set --compare-mc`` run in
one forked process per usable CPU and give the same bytes at any count
(see the ``oracle`` module notes).  A failed rollout process is a
numerical failure: ``oracle`` then writes no file, and ``safe-set`` no
``report.json`` or ``ground_truth.csv``.

Every command makes its ``--out``, and stages each tube or slice
directory, before any training, solve or rollout, so an output path that
cannot be a directory fails first.  Exit codes: 0 success, 2
configuration error (a bad config, input file or output path), 3
numerical failure, and 4 from ``verify --strict`` when the policy is
unsafe.  Given identical configs and seeds every command writes
byte-identical outputs.
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
    export_tube,  # noqa: F401  (perfbench's tracer wraps this name)
    field_to_csv,
    file_sha256,
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
from .solver import SolverConfig, brt_workspace, solve_brt, solve_frt
from .trainer import TrainRunConfig, environment, train_loop
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


def _from_block(cls, block, name: str = "", base=None):
    """A ``cls`` from the JSON block ``name`` (the whole file if empty).
    Each key names a field; a field whose type is a dataclass is decoded as
    its own block over its value in ``base`` (default ``cls()``), and a
    field the block omits keeps that value.  Bad keys or values are a
    ValueError naming the block and the key."""
    where = f"the {name!r} block" if name else "the config"
    base = cls() if base is None else base
    if type(block) is not dict:
        raise ValueError(f"{where} must be a JSON object")
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(block) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ValueError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    prefix = f"{name}." if name else ""
    values = {k: _from_block(hints[k], v, prefix + k, getattr(base, k))
                 if dataclasses.is_dataclass(hints[k])
                 else nn.json_value(hints[k], v, prefix + k)
              for k, v in block.items()}
    try:
        return dataclasses.replace(base, **values)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """The artifact keys of a verify, safe-set or oracle config.  ``policy``
    is a policy file or an inline policy; without ``bounds`` the box is
    zero, and without ``scene`` the scene is the built-in one of ``env``."""

    scene: str | None = None
    env: str = TrainRunConfig.env
    plant: str = "learned"
    model: str | None = None
    policy: str | dict | None = None
    bounds: str | None = None
    seed: int = 0

    def __post_init__(self):
        environment(self.env)


@dataclasses.dataclass(frozen=True)
class McConfig:
    """The ``mc`` block of ``safe-set --compare-mc``: ``plant`` defaults to
    the run's ``env`` and ``horizon`` to the solver's."""

    plant: str | None = None
    horizon: float | None = None
    dt: float = 0.1
    num_samples: int = 1000


@dataclasses.dataclass(frozen=True)
class TubeRunConfig(RunConfig):
    """A verify or safe-set config."""

    solver: SolverConfig = dataclasses.field(default_factory=SolverConfig)
    mc: McConfig = dataclasses.field(default_factory=McConfig)


@dataclasses.dataclass(frozen=True)
class OracleConfig(RunConfig):
    """An oracle config.  Its Monte-Carlo settings, like those of ``mc``, are
    checked where a rollout runs: in ``oracle`` and ``safe-set --compare-mc``."""

    horizon: float = SolverConfig.horizon
    dt: float = 0.1
    num_samples: int = 1000
    draws: int = 16


def _resolve_scene(scene: str | None, env: str) -> Scene:
    return environment(env).scene() if scene is None else load_scene(scene)


def _resolve_system(cfg: RunConfig):
    """Plant + policy + bounds of a run config; returns (sys, provenance)."""
    prov = {}
    if cfg.plant == "learned":
        if cfg.model is None:
            raise ValueError('a learned plant needs a "model" file')
        plant = LearnedPlant(nn.load_model(cfg.model))
        prov["model"] = file_sha256(cfg.model)
    else:
        plant = environment(cfg.plant).plant()
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


def _run_inputs(args, cls):
    """The ``cls`` config, seed, scene, closed-loop system and provenance of a run."""
    config = _load_json(args.config)
    if {"k_sigma", "dataset"} & set(config):
        raise ValueError('k_sigma / dataset bounds are gone: pass the bounds.json '
                         'that train wrote as "bounds"')
    cfg = _from_block(cls, config)
    seed = cfg.seed if args.seed is None else args.seed
    return cfg, seed, _resolve_scene(cfg.scene, cfg.env), *_resolve_system(cfg)


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
    run_cfg = _from_block(TrainRunConfig, config)
    if args.seed is not None:
        run_cfg = dataclasses.replace(run_cfg, seed=args.seed)
    scene = _resolve_scene(run_cfg.scene, run_cfg.env)
    out = args.out
    os.makedirs(out, exist_ok=True)
    result = train_loop(run_cfg, scene)

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
    cfg, seed, scene, sys_cl, prov = _run_inputs(args, TubeRunConfig)

    out = args.out
    os.makedirs(out, exist_ok=True)
    with TubeWriter(os.path.join(out, "frt"), prefix="frt") as store:
        frt = solve_frt(scene.initial_set, sys_cl, cfg.solver, scene.grid, sink=store)
        frt_manifest = store.finish(frt)
    verdict, flags = classify_policy(frt, scene.obstacles, scene.grid)
    save_scene(scene, os.path.join(out, "scene.json"))
    report = {
        "verdict": verdict,
        "frt_intersects_obstacle": flags,
        "provenance": {
            **prov,
            "seed": seed,
            "solver": dataclasses.asdict(cfg.solver),
        },
        "exports": {"frt_manifest": os.path.relpath(frt_manifest, out)},
    }
    _write_json(report, os.path.join(out, "report.json"))
    print(f"verify: policy is {verdict} (per-obstacle: {flags})")
    if args.strict and verdict == "unsafe":
        return EXIT_UNSAFE
    return EXIT_OK


def _obstacle_tubes(prims, stores, sys_cl, solver_cfg, grid) -> list:
    """Each obstacle's backward tube, written to its store, in obstacle
    order.  The solves run one after another over one departure map."""
    workspace = brt_workspace(sys_cl, grid, solver_cfg)
    return [solve_brt(ShapeSet((prim,)), sys_cl, solver_cfg, grid, sink=store,
                      workspace=workspace)
            for prim, store in zip(prims, stores)]


def cmd_safe_set(args) -> int:
    cfg, seed, scene, sys_cl, prov = _run_inputs(args, TubeRunConfig)
    mc_horizon = cfg.solver.horizon if cfg.mc.horizon is None else cfg.mc.horizon
    if args.compare_mc:
        try:
            _rollout_steps(mc_horizon, cfg.mc.dt, cfg.mc.num_samples)
            mc_plant = cfg.env if cfg.mc.plant is None else cfg.mc.plant
            mc_plant = sys_cl.plant if mc_plant == "learned" else environment(mc_plant).plant()
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
        tubes = _obstacle_tubes(prims, stores, sys_cl, cfg.solver, scene.grid)
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
        mc_sys = ClosedLoopSystem(
            mc_plant, sys_cl.policy, eb.DisturbanceBounds.zero(mc_plant.n_state)
        )
        mc = mc_ground_truth(mc_sys, scene.initial_set, scene.obstacles, mc_horizon,
                             cfg.mc.dt, cfg.mc.num_samples, seed=seed)
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
    cfg, seed, scene, sys_cl, prov = _run_inputs(args, OracleConfig)
    _rollout_steps(cfg.horizon, cfg.dt, cfg.num_samples, cfg.draws)  # before --out is made
    out = args.out
    os.makedirs(out, exist_ok=True)
    mc = mc_ground_truth(sys_cl, scene.initial_set, scene.obstacles, cfg.horizon, cfg.dt,
                         cfg.num_samples, cfg.draws, seed)
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
    grid, one not finite or outside the z range by more than
    interpolate_many's tolerance, one whose file-name tag repeats an
    earlier height's (``2,2.0``), or one that snaps to an earlier height's
    plane (``2,2.01`` on a coarse grid), is a ValueError."""
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
    zs = grid.axis_coords(2)
    tags, planes = set(), {}
    for z in z_values:
        if not (math.isfinite(z) and lo - tol <= z <= hi + tol):
            raise ValueError(f"--z {z!r} is not a height in the grid's z range [{lo!r}, {hi!r}]")
        tag = _slice_tag(z)
        if tag in tags:
            raise ValueError(f"--z {z!r} repeats an earlier height's file-name tag {tag}")
        tags.add(tag)
        plane = int(np.argmin(np.abs(zs - z)))
        if plane in planes:
            raise ValueError(f"--z {planes[plane]!r} and {z!r} both snap to the z plane "
                             f"{float(zs[plane])!r}: they would write the same slices")
        planes[plane] = z
    return list(planes)


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
        replace_dir(staging, slices_dir)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise

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
    except (FileNotFoundError, FileExistsError, IsADirectoryError, NotADirectoryError,
            PermissionError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
