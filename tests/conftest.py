"""Shared fixtures: small synthetic systems plus the expensive session-scoped
artifacts (trained land/air models, tube solves) reused across test modules."""

import os
import time

import numpy as np
import pytest
from scipy.spatial import cKDTree

from reachverify.dynamics import ActionBounds, ClosedLoopSystem, ConstantPolicy
from reachverify.error_bounds import DisturbanceBounds
from reachverify.geometry import Ball, ShapeSet, build_grid
from reachverify.nn import TrainingConfig
from reachverify.scene import air_scene, land_scene
from reachverify.solver import SolverConfig, solve_brt, solve_frt
from reachverify.trainer import TrainRunConfig, train_loop


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or unreaped:
    the Monte-Carlo oracle forks its shards and must reap every one."""
    yield
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process was left behind: waitpid gave {left}")


# Node counts below one block of nn._BLOCK_ROWS (4096) nodes, and above it
# but not a multiple of it, in 2, 3 and 4 dimensions.
BLOCKED_GRIDS = [(37, 29), (101, 103), (9, 7, 5), (23, 19, 17), (5, 4, 6, 7), (9, 9, 8, 9)]


def blocked_grid(counts):
    return build_grid(-np.ones(len(counts)), np.linspace(1.0, 2.0, len(counts)), counts)


class ConstantPlant:
    """Test plant with a state-independent rate vector."""

    def __init__(self, c, n_action=1):
        self.c = np.asarray(c, dtype=float)
        self.n_state = len(self.c)
        self.n_action = n_action

    def rate_batch(self, states, actions):
        return np.broadcast_to(self.c, (len(states), self.n_state)).copy()


class LinearPlant:
    """Test plant with rate A @ s, for matrix-exponential cross-checks."""

    def __init__(self, A):
        self.A = np.asarray(A, dtype=float)
        self.n_state = self.A.shape[0]
        self.n_action = 1

    def rate_batch(self, states, actions):
        return states @ self.A.T


def const_system(c, dims=None, upper=None):
    """Closed-loop system with constant rate and optional symmetric bounds."""
    c = np.asarray(c, dtype=float)
    dims = dims or len(c)
    plant = ConstantPlant(c)
    policy = ConstantPolicy([0.0], ActionBounds([0.0], [0.0]))
    if upper is None:
        bounds = DisturbanceBounds.zero(dims)
    else:
        upper = np.asarray(upper, dtype=float)
        bounds = DisturbanceBounds(upper=upper, lower=-upper)
    return ClosedLoopSystem(plant, policy, bounds)


def capsule_distance(points, seg_a, seg_b, radius):
    """Exact signed distance to a capsule (segment swept by a ball)."""
    a = np.asarray(seg_a, dtype=float)
    b = np.asarray(seg_b, dtype=float)
    ab = b - a
    t = np.clip(((points - a) @ ab) / (ab @ ab), 0.0, 1.0)
    proj = a + t[..., None] * ab
    return np.linalg.norm(points - proj, axis=-1) - radius


def hausdorff_between_masks(grid, mask_a, mask_b):
    """Symmetric Hausdorff distance between two node-mask point sets."""
    pts = grid.flat_points()
    pa = pts[mask_a.ravel()]
    pb = pts[mask_b.ravel()]
    if len(pa) == 0 or len(pb) == 0:
        return np.inf
    return max(cKDTree(pb).query(pa)[0].max(), cKDTree(pa).query(pb)[0].max())


def bits(a):
    """The bit patterns of ``a``'s values, as integers of its item size:
    equal bits tell -0.0 from 0.0 and match NaNs, which ``==`` does not."""
    a = np.ascontiguousarray(a)
    return a.view(f"i{a.itemsize}")


def masks_nested(tube):
    masks = [m for _, m in tube.masks()]
    return all(np.all(masks[i] <= masks[i + 1]) for i in range(len(masks) - 1))


def mask_boundary_points(grid, mask):
    """Coordinates of nodes adjacent to a mask transition."""
    boundary = np.zeros_like(mask)
    for ax in range(mask.ndim):
        shifted = np.roll(mask, 1, axis=ax)
        sl = [slice(None)] * mask.ndim
        sl[ax] = slice(0, 1)
        shifted[tuple(sl)] = mask[tuple(sl)]
        boundary |= mask != shifted
    return grid.node_points()[boundary]


LAND_RUN_CONFIG = TrainRunConfig(
    env="true_land",
    initial_samples=1000,
    outer_iterations=1,
    samples_per_iteration=500,
    distill_states=400,
    mpc_horizon=6,
    mpc_candidates=192,
    model_training=TrainingConfig(epochs=3000, lr_schedule="cosine"),
    policy_training=TrainingConfig(hidden_sizes=(16, 16), epochs=500, lr_schedule="cosine"),
    seed=0,
)


@pytest.fixture(scope="session")
def land_run():
    """Trained land artifacts: (scene, TrainLoopResult, wall seconds)."""
    scene = land_scene()
    t0 = time.perf_counter()
    result = train_loop(LAND_RUN_CONFIG, scene)
    return scene, result, time.perf_counter() - t0


@pytest.fixture(scope="session")
def land_tubes(land_run):
    """Forward tube, per-obstacle backward tubes, and timing for the land run."""
    from reachverify.dynamics import LearnedPlant
    from reachverify.verification import build_report, classify_policy, union_brt_field

    scene, result, train_secs = land_run
    sys_learned = ClosedLoopSystem(LearnedPlant(result.model), result.policy, result.bounds)
    t0 = time.perf_counter()
    frt = solve_frt(
        scene.initial_set,
        sys_learned,
        SolverConfig(horizon=10.0, snapshot_stride=20),
        scene.grid,
    )
    verdict, flags = classify_policy(frt, scene.obstacles, scene.grid)
    brts = [
        solve_brt(
            ShapeSet((prim,)),
            sys_learned,
            SolverConfig(horizon=10.0, snapshot_stride=20),
            scene.grid,
        )
        for prim in scene.obstacles.primitives
    ]
    union = union_brt_field([b.final for b in brts])
    report = build_report(scene.grid, scene.initial_set, union)
    return {
        "system": sys_learned,
        "frt": frt,
        "frt_verdict": verdict,
        "frt_flags": flags,
        "brts": brts,
        "union": union,
        "report": report,
        "solve_secs": time.perf_counter() - t0,
        "train_secs": train_secs,
    }


@pytest.fixture(scope="session")
def land_mc(land_run):
    """Monte-Carlo ground truth for the distilled policy under true dynamics."""
    from reachverify.dynamics import LandPlant
    from reachverify.oracle import mc_ground_truth

    scene, result, _ = land_run
    sys_true = ClosedLoopSystem(LandPlant(), result.policy, DisturbanceBounds.zero(2))
    t0 = time.perf_counter()
    mc = mc_ground_truth(
        sys_true, scene.initial_set, scene.obstacles,
        horizon=10.0, dt=0.1, num_samples=1000, num_disturbance_draws=0, seed=0,
    )
    return mc, time.perf_counter() - t0


@pytest.fixture(scope="session")
def capsule_runs():
    """Backward and forward capsule solves at two resolutions plus timings."""
    runs = {}
    for counts in ((101, 101), (201, 201)):
        grid = build_grid([-1.0, -2.0], [5.0, 2.0], counts)
        sys_cl = const_system([1.0, 0.0])
        t0 = time.perf_counter()
        brt = solve_brt(
            ShapeSet((Ball([3.5, 0.0], 0.7),)),
            sys_cl,
            SolverConfig(horizon=3.0, snapshot_stride=50),
            grid,
        )
        t_brt = time.perf_counter() - t0
        t0 = time.perf_counter()
        frt = solve_frt(
            ShapeSet((Ball([0.5, 0.0], 0.7),)),
            sys_cl,
            SolverConfig(horizon=3.0, snapshot_stride=50),
            grid,
        )
        t_frt = time.perf_counter() - t0
        analytic = capsule_distance(grid.node_points(), [0.5, 0.0], [3.5, 0.0], 0.7) <= 0
        runs[counts[0]] = {
            "grid": grid,
            "brt": brt,
            "frt": frt,
            "analytic_mask": analytic,
            "brt_secs": t_brt,
            "frt_secs": t_frt,
        }
    return runs


@pytest.fixture(scope="session")
def air_smoke():
    """3-D pipeline smoke artifacts: learned model, tubes at 51^3, timings."""
    from reachverify.dynamics import LearnedPlant
    from reachverify.error_bounds import k_sigma_bounds, residuals
    from reachverify.nn import train_dynamics_model
    from reachverify.trainer import collect_random_data, default_action_bounds, make_plant

    t_all = time.perf_counter()
    scene = air_scene((51, 51, 51))
    plant = make_plant("true_air")
    bounds_a = default_action_bounds("true_air")
    rng = np.random.default_rng([11, 0])
    data = collect_random_data(plant, bounds_a, scene.grid.lo, scene.grid.hi, 1000, 0.1, rng)
    trained = train_dynamics_model(
        data, TrainingConfig(epochs=1200, lr_schedule="cosine", seed=3), dt_env=0.1
    )
    stats = residuals(trained.model, trained.validation)
    bounds = k_sigma_bounds(stats, 3.0, 0.1)
    policy = ConstantPolicy([0.9, 0.87, 0.65], bounds_a)
    sys_air = ClosedLoopSystem(LearnedPlant(trained.model), policy, bounds)
    frt = solve_frt(
        scene.initial_set, sys_air,
        SolverConfig(horizon=8.0, snapshot_stride=25),
        scene.grid,
    )
    brt = solve_brt(
        ShapeSet((scene.obstacles.primitives[1],)), sys_air,
        SolverConfig(horizon=8.0, snapshot_stride=25),
        scene.grid,
    )
    return {"scene": scene, "frt": frt, "brt": brt, "total_secs": time.perf_counter() - t_all}
