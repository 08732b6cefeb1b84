import os
import threading

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import LinearPlant, bits, capsule_distance, const_system
from reachverify import oracle
from reachverify.cli import main
from reachverify.dynamics import (
    ActionBounds,
    ClosedLoopSystem,
    ConstantPolicy,
    LandPlant,
    LearnedPlant,
)
from reachverify.error_bounds import DisturbanceBounds
from reachverify.geometry import Ball, ShapeSet, build_grid, level_set_from_shapes, zero_sublevel_mask
from reachverify.oracle import _rk4_batch, mc_ground_truth, sample_in_shapes
from reachverify.solver import SolverConfig, solve_brt
from reference import corner_extremum, exhaustive_brt_small

STARTS = np.array([[0.0, 0.0], [0.25, -0.75], [1.5, 2.0], [-3.0, 0.5]])


def _rollout(sys_cl, starts, steps, dt, d=(0.0, 0.0)):
    """``steps`` RK4 steps of a batch of starts through the oracle's
    integrator, the disturbance ``d`` held throughout."""
    states = np.asarray(starts, dtype=float)
    d = np.broadcast_to(np.asarray(d, dtype=float), states.shape)
    for _ in range(steps):
        states = _rk4_batch(sys_cl, states, d, dt)
    return states


def test_rollout_zero_dynamics_stays_put():
    assert np.array_equal(_rollout(const_system([0.0, 0.0]), STARTS, 10, 0.1), STARTS)


def test_rollout_constant_rate_exact():
    # Rate, disturbance, step and starts are dyadic, so RK4 is exact.
    end = _rollout(const_system([1.0, -0.5]), STARTS, 8, 0.125, d=[0.5, 0.25])
    assert np.array_equal(end, STARTS + [1.5, -0.25])


def test_rollout_land_closed_form():
    plant = LandPlant()
    policy = ConstantPolicy([1.0, 0.6], ActionBounds([0, -np.pi], [1, np.pi]))
    sys_cl = ClosedLoopSystem(plant, policy, DisturbanceBounds.zero(2))
    end = _rollout(sys_cl, STARTS, 25, 0.1)
    assert np.allclose(end, STARTS + 2.5 * np.array([np.cos(0.6), np.sin(0.6)]), atol=1e-9)


def test_rollout_rk4_matches_matrix_exponential():
    A = np.array([[0.0, 1.0], [-1.0, -0.2]])
    plant = LinearPlant(A)
    sys_cl = ClosedLoopSystem(
        plant, ConstantPolicy([0.0], ActionBounds([0.0], [0.0])), DisturbanceBounds.zero(2)
    )
    end = _rollout(sys_cl, STARTS, 100, 0.01)
    assert np.allclose(end, STARTS @ expm(A).T, atol=1e-6)


def test_mc_hit_rule_matches_straight_paths():
    # Under a constant rate every path is a straight segment, so its least
    # signed distance to a ball has a closed form.  The oracle checks the
    # step points only, so it may differ from the segment within one
    # step's travel of the ball and nowhere else.
    c, horizon, dt = np.array([1.0, 0.0]), 0.5, 0.1
    center, radius = np.array([1.5, 0.0]), 0.4
    initial = ShapeSet((Ball([0.5, 0.0], 0.8),))
    mc = mc_ground_truth(const_system(c), initial, ShapeSet((Ball(center, radius),)),
                         horizon=horizon, dt=dt, num_samples=400, num_disturbance_draws=0,
                         seed=1)
    t = np.clip((center - mc.samples) @ c / (c @ c), 0.0, horizon)
    closest = mc.samples + t[:, None] * c
    least = np.linalg.norm(closest - center, axis=1) - radius
    travel = np.linalg.norm(c) * dt
    inside = np.linalg.norm(mc.samples - center, axis=1) <= radius
    enters, misses = least < -travel, least > travel
    assert inside.any() and (enters & ~inside).any() and misses.any()
    assert not mc.safe[inside].any()
    assert not mc.safe[enters].any()
    assert mc.safe[misses].all()


def test_mc_trivially_safe_and_unsafe():
    initial = ShapeSet((Ball([0.0, 0.0], 0.5),))
    far = ShapeSet((Ball([5.0, 5.0], 0.5),))
    sys_cl = const_system([0.0, 0.0])
    mc = mc_ground_truth(sys_cl, initial, far, horizon=1.0, dt=0.1, num_samples=50,
                         num_disturbance_draws=2, seed=0)
    assert mc.safe.all()

    surrounding = ShapeSet((Ball([0.0, 0.0], 2.0),))
    mc2 = mc_ground_truth(sys_cl, initial, surrounding, horizon=1.0, dt=0.1,
                          num_samples=50, num_disturbance_draws=0, seed=0)
    assert not mc2.safe.any()


def usable_cpus(monkeypatch, cpus):
    """Make the oracle see ``cpus`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def count_forks(monkeypatch) -> list:
    """One entry for each ``os.fork`` this process makes from now on."""
    forks, real = [], os.fork

    def fork():
        forks.append(os.getpid())
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def count_sequence_calls(monkeypatch, log):
    """A function giving the ``(sample, draw)`` of every disturbance
    sequence the oracle builds from now on, in the calling process or in a
    forked shard: each call appends a line to the file ``log``."""
    real = oracle._disturbance_sequences

    def counting(bounds, n_steps, sample_idx, draw_idx, seed):
        with open(log, "a") as fh:
            fh.write(f"{int(sample_idx)} {int(draw_idx)}\n")
        return real(bounds, n_steps, sample_idx, draw_idx, seed)

    def calls() -> list:
        lines = log.read_text().splitlines() if log.exists() else []
        return [tuple(map(int, line.split())) for line in lines]

    monkeypatch.setattr(oracle, "_disturbance_sequences", counting)
    return calls


def test_mc_builds_disturbances_only_for_running_starts(monkeypatch, tmp_path):
    # Three shards, two of them forked: the calls are counted in every one.
    usable_cpus(monkeypatch, 3)
    calls = count_sequence_calls(monkeypatch, tmp_path / "calls.txt")
    initial = ShapeSet((Ball([0.0, 0.0], 0.5),))
    sys_cl = const_system([0.0, 0.0], upper=[0.1, 0.1])
    mc = mc_ground_truth(sys_cl, initial, ShapeSet((Ball([0.0, 0.0], 2.0),)), horizon=1.0,
                         dt=0.1, num_samples=40, num_disturbance_draws=3, seed=0)
    assert not mc.safe.any()
    assert calls() == []

    mc = mc_ground_truth(sys_cl, initial, ShapeSet((Ball([5.0, 5.0], 0.5),)), horizon=1.0,
                         dt=0.1, num_samples=40, num_disturbance_draws=3, seed=0)
    assert mc.safe.all()
    assert sorted(calls()) == [(i, j) for i in range(40) for j in range(3)]


def test_mc_zero_box_makes_no_draws(monkeypatch, tmp_path):
    # On a zero box every draw replays the zero draw, so none is made; a
    # nonzero box still draws for every start left running, in each of
    # three shards.
    usable_cpus(monkeypatch, 3)
    calls = count_sequence_calls(monkeypatch, tmp_path / "calls.txt")
    initial = ShapeSet((Ball([0.0, 0.0], 0.5),))
    obstacle = ShapeSet((Ball([1.2, 0.0], 0.3),))
    sys_cl = const_system([1.0, 0.0])
    runs = [mc_ground_truth(sys_cl, initial, obstacle, horizon=1.0, dt=0.1, num_samples=64,
                            num_disturbance_draws=draws, seed=7) for draws in (0, 16)]
    assert calls() == []
    assert 0.0 < runs[0].safe_fraction < 1.0
    assert np.array_equal(runs[0].samples, runs[1].samples)
    assert np.array_equal(runs[0].safe, runs[1].safe)

    boxed = const_system([1.0, 0.0], upper=[0.3, 0.3])
    mc = mc_ground_truth(boxed, initial, obstacle, horizon=1.0, dt=0.1, num_samples=64,
                         num_disturbance_draws=2, seed=7)
    assert {j for _, j in calls()} == {0, 1}
    assert mc.safe_fraction < runs[0].safe_fraction


def test_mc_deterministic_under_seed():
    initial = ShapeSet((Ball([0.0, 0.0], 0.5),))
    obstacle = ShapeSet((Ball([1.2, 0.0], 0.3),))
    sys_cl = const_system([1.0, 0.0], upper=[0.3, 0.3])
    a = mc_ground_truth(sys_cl, initial, obstacle, horizon=1.0, dt=0.1,
                        num_samples=64, num_disturbance_draws=4, seed=7)
    b = mc_ground_truth(sys_cl, initial, obstacle, horizon=1.0, dt=0.1,
                        num_samples=64, num_disturbance_draws=4, seed=7)
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.safe, b.safe)


def mc_case(request, case: str, num_samples: int) -> tuple:
    """The ``mc_ground_truth`` arguments of a shard case: a constant flow
    in a box, the same flow on a zero box (its draws are dropped), or the
    learned ``land`` loop of the ``land_run`` fixture in its box."""
    initial = ShapeSet((Ball([0.0, 0.0], 0.5),))
    obstacle = ShapeSet((Ball([1.2, 0.0], 0.3),))
    if case == "boxed":
        return const_system([1.0, 0.0], upper=[0.3, 0.3]), initial, obstacle, 1.0, 0.1, \
            num_samples, 4, 7
    if case == "zero box":
        return const_system([1.0, 0.0]), initial, obstacle, 1.0, 0.1, num_samples, 16, 7
    scene, result, _ = request.getfixturevalue("land_run")
    sys_learned = ClosedLoopSystem(LearnedPlant(result.model), result.policy, result.bounds)
    return sys_learned, scene.initial_set, scene.obstacles, 10.0, 0.1, num_samples, 2, 1


# (usable CPUs, starts): two and three shards, and more CPUs than starts.
_SPLITS = [(2, 96), (3, 96), (10, 7)]


@pytest.mark.parametrize("case", ["boxed", "zero box", "land"])
@pytest.mark.parametrize("cpus,num_samples", _SPLITS)
def test_mc_shards_give_the_one_shard_result(request, monkeypatch, case, cpus, num_samples):
    # One shard per usable CPU, at most one per start: the samples and the
    # flags are those of a single shard, bit for bit.
    args = mc_case(request, case, num_samples)
    forks = count_forks(monkeypatch)
    usable_cpus(monkeypatch, 1)
    one = mc_ground_truth(*args)
    assert forks == []
    usable_cpus(monkeypatch, cpus)
    split = mc_ground_truth(*args)
    assert len(forks) == min(cpus, num_samples) - 1
    assert np.array_equal(bits(split.samples), bits(one.samples))
    assert np.array_equal(split.safe, one.safe)
    if num_samples == 96:  # the larger runs hold safe and unsafe starts
        assert 0.0 < one.safe_fraction < 1.0


@pytest.mark.parametrize("why", ["a second thread", "no os.fork", "one start"])
def test_mc_runs_one_shard(monkeypatch, why):
    # Forking a process that runs a second thread is unsafe, a platform may
    # lack os.fork, and one start makes one shard: then every start rolls
    # out in the calling process, with the same result.
    num_samples = 1 if why == "one start" else 64
    args = mc_case(None, "boxed", num_samples)
    usable_cpus(monkeypatch, 1)
    one = mc_ground_truth(*args)
    usable_cpus(monkeypatch, 4)
    forks = count_forks(monkeypatch)
    if why == "no os.fork":
        monkeypatch.delattr(os, "fork")
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    if why == "a second thread":
        thread.start()
    try:
        mc = mc_ground_truth(*args)
    finally:
        release.set()
        if thread.is_alive():
            thread.join()
    assert forks == []
    assert np.array_equal(mc.samples, one.samples)
    assert np.array_equal(mc.safe, one.safe)


def failing_draws(monkeypatch, starts):
    """Make building the disturbance sequence of any start in ``starts``
    raise, in whichever process runs it."""
    real = oracle._disturbance_sequences

    def failing(bounds, n_steps, sample_idx, draw_idx, seed):
        if sample_idx in starts:
            raise FloatingPointError(f"start {sample_idx} fails")
        return real(bounds, n_steps, sample_idx, draw_idx, seed)

    monkeypatch.setattr(oracle, "_disturbance_sequences", failing)


def test_a_failed_shard_raises_once_every_child_has_exited(monkeypatch, capfd):
    # 64 starts in 3 shards: 0-21 here, 22-42 and 43-63 in children.  Shard
    # 2 fails, prints its traceback and exits non-zero; the error names it
    # once every child is reaped (the autouse fixture checks that none is
    # left).
    usable_cpus(monkeypatch, 3)
    failing_draws(monkeypatch, range(43, 64))
    far = ShapeSet((Ball([5.0, 5.0], 0.5),))
    with pytest.raises(RuntimeError, match=r"shard 2 of 3 \(starts 43 to 63\) exited with code 1"):
        mc_ground_truth(const_system([0.0, 0.0], upper=[0.1, 0.1]),
                        ShapeSet((Ball([0.0, 0.0], 0.5),)), far, horizon=1.0, dt=0.1,
                        num_samples=64, num_disturbance_draws=2, seed=0)
    assert "FloatingPointError: start 43 fails" in capfd.readouterr().err


def test_a_failure_in_the_calling_shard_stops_every_child(monkeypatch):
    # The calling process's own shard raises: its error propagates, and the
    # children, still rolling out, are stopped and reaped before it does.
    usable_cpus(monkeypatch, 3)
    failing_draws(monkeypatch, range(0, 22))
    with pytest.raises(FloatingPointError, match="start 0 fails"):
        mc_ground_truth(const_system([0.0, 0.0], upper=[0.1, 0.1]),
                        ShapeSet((Ball([0.0, 0.0], 0.5),)), ShapeSet((Ball([5.0, 5.0], 0.5),)),
                        horizon=100.0, dt=0.1, num_samples=64, num_disturbance_draws=50, seed=0)


def test_oracle_with_a_failed_shard_exits_3_and_writes_nothing(tmp_path, monkeypatch, capsys):
    from test_cli import constant_loop_config, oracle_config

    usable_cpus(monkeypatch, 2)
    failing_draws(monkeypatch, range(10, 20))
    cfg = constant_loop_config(tmp_path, (41, 41), 1, horizon=0.3, stride=5)
    cfg = oracle_config(cfg, horizon=0.3, dt=0.1, num_samples=20, draws=1)
    out = tmp_path / "oracle"
    assert main(["oracle", "--config", str(cfg), "--out", str(out)]) == 3
    assert "numerical failure: Monte-Carlo shard 1 of 2" in capsys.readouterr().err
    assert not (out / "ground_truth.csv").exists()


def test_mc_safe_fraction_monotone_in_draws():
    initial = ShapeSet((Ball([0.0, 0.0], 0.5),))
    obstacle = ShapeSet((Ball([1.5, 0.0], 0.35),))
    sys_cl = const_system([1.0, 0.0], upper=[0.5, 0.5])
    fractions = []
    for draws in (0, 2, 6, 12):
        mc = mc_ground_truth(sys_cl, initial, obstacle, horizon=1.2, dt=0.1,
                             num_samples=128, num_disturbance_draws=draws, seed=3)
        fractions.append(mc.safe_fraction)
    assert all(f2 <= f1 + 1e-12 for f1, f2 in zip(fractions, fractions[1:]))


def test_sample_in_shapes_inside():
    shapes = ShapeSet((Ball([1.0, 2.0], 0.4), Ball([-1.0, 0.0], 0.2)))
    pts = sample_in_shapes(shapes, 300, np.random.default_rng(0))
    assert np.all(shapes.signed_distance(pts) <= 0)


def test_corner_extremum_cases():
    b = DisturbanceBounds(np.array([1.0, 1.0]), np.array([-1.0, -1.0]))
    value, d = corner_extremum([1.0, -1.0], b, "reach_goal")
    assert value == pytest.approx(2.0)
    assert np.allclose(d, [1.0, -1.0])
    value0, d0 = corner_extremum([0.0, 0.0], b, "reach_goal")
    assert value0 == 0.0
    assert np.array_equal(d0, [0.0, 0.0])
    vmin, dmin = corner_extremum([1.0, -1.0], b, "reach_unsafe")
    assert vmin == pytest.approx(-2.0)
    assert np.allclose(dmin, [-1.0, 1.0])


def test_exhaustive_oracle_zero_dynamics():
    grid = build_grid([-1, -1], [1, 1], [21, 21])
    sys_cl = const_system([0.0, 0.0])
    target = ShapeSet((Ball([0.2, 0.0], 0.4),))
    mask = exhaustive_brt_small(sys_cl, target, grid, horizon=1.0, dt=0.1)
    expected = zero_sublevel_mask(level_set_from_shapes(grid, target))
    assert np.array_equal(mask, expected)


def test_exhaustive_oracle_constant_advection_capsule():
    grid = build_grid([-1, -2], [5, 2], [31, 21])
    sys_cl = const_system([1.0, 0.0])
    target = ShapeSet((Ball([3.5, 0.0], 0.7),))
    mask = exhaustive_brt_small(sys_cl, target, grid, horizon=3.0, dt=0.05)
    # node-level agreement within one cell of the capsule boundary
    sd = capsule_distance(grid.node_points(), [0.5, 0.0], [3.5, 0.0], 0.7)
    strict_inside = sd <= -grid.spacing.max()
    strict_outside = sd >= grid.spacing.max()
    assert np.all(mask[strict_inside])
    assert not np.any(mask[strict_outside])


def test_exhaustive_oracle_agrees_with_solver_within_band():
    rng = np.random.default_rng(5)
    for trial in range(3):
        center = rng.uniform(-0.5, 0.5, size=2)
        c = rng.uniform(-0.6, 0.6, size=2)
        grid = build_grid([-2, -2], [2, 2], [41, 41])
        sys_cl = const_system(c, upper=[0.05, 0.05])
        target = ShapeSet((Ball(center, 0.35),))
        oracle_mask = exhaustive_brt_small(sys_cl, target, grid, horizon=1.0, dt=0.05)
        tube = solve_brt(
            target, sys_cl,
            SolverConfig(horizon=1.0),
            grid,
        )
        solver_mask = tube.final_mask()
        disagree = oracle_mask != solver_mask
        if disagree.any():
            # every disagreement sits within two cells of the solver boundary
            from conftest import mask_boundary_points
            from scipy.spatial import cKDTree

            boundary = mask_boundary_points(grid, solver_mask)
            pts = grid.node_points()[disagree]
            dist = cKDTree(boundary).query(pts)[0]
            assert dist.max() <= 2 * grid.spacing.max() + 1e-12


def test_land_mc_partially_safe(land_mc):
    # the trained benchmark controller is safe from some starts, unsafe from
    # others, so the sampled safe fraction sits strictly inside (0, 1)
    mc, _ = land_mc
    assert 0.0 < mc.safe_fraction < 1.0


def test_mc_rejects_bad_args():
    initial = ShapeSet((Ball([0.0, 0.0], 0.5),))
    sys_cl = const_system([0.0, 0.0])
    with pytest.raises(ValueError, match="num_samples"):
        mc_ground_truth(sys_cl, initial, initial, horizon=1.0, dt=0.1, num_samples=0)
    with pytest.raises(ValueError, match="draws"):
        mc_ground_truth(sys_cl, initial, initial, horizon=1.0, dt=0.1, num_samples=10,
                        num_disturbance_draws=-1)


@pytest.mark.parametrize(
    "horizon,dt",
    [(0.04, 0.1), (0.05, 0.1), (1.0, 0.0), (1.0, -0.1), (-1.0, 0.1),
     (np.inf, 0.1), (1.0, np.nan), (1.0, np.inf)],
)
def test_mc_without_a_step_raises(horizon, dt):
    # No step would run, and a run without a step calls every start that
    # is not already inside an obstacle safe.
    initial = ShapeSet((Ball([0.0, 0.0], 0.5),))
    obstacle = ShapeSet((Ball([1.0, 0.0], 0.3),))
    with pytest.raises(ValueError, match="horizon|dt"):
        mc_ground_truth(const_system([1.0, 0.0]), initial, obstacle, horizon=horizon, dt=dt,
                        num_samples=20, num_disturbance_draws=1)


def test_mc_one_step_horizon_runs_the_step():
    # A horizon of just over half a step rounds up to one step.
    initial = ShapeSet((Ball([0.0, 0.0], 0.05),))
    obstacle = ShapeSet((Ball([1.0, 0.0], 0.3),))
    mc = mc_ground_truth(const_system([10.0, 0.0]), initial, obstacle, horizon=0.06, dt=0.1,
                         num_samples=20, num_disturbance_draws=0)
    assert not mc.safe.any()
