import numpy as np
import pytest
from scipy.linalg import expm

from conftest import LinearPlant, capsule_distance, const_system
from reachverify.dynamics import ActionBounds, ClosedLoopSystem, ConstantPolicy, LandPlant
from reachverify.error_bounds import DisturbanceBounds
from reachverify.geometry import Ball, ShapeSet, build_grid, level_set_from_shapes, zero_sublevel_mask
from reachverify.oracle import Trajectory, mc_ground_truth, rollout, sample_in_shapes
from reachverify.solver import SolverConfig, solve_brt
from reference import corner_extremum, exhaustive_brt_small


def test_rollout_zero_dynamics_stays_put():
    sys_cl = const_system([0.0, 0.0])
    tr = rollout(sys_cl, [0.3, -0.4], horizon=1.0, dt=0.1)
    assert np.allclose(tr.states, [0.3, -0.4])
    assert tr.terminal == "horizon_exhausted"
    assert len(tr.times) == 11


def test_rollout_constant_rate_exact():
    sys_cl = const_system([1.0, 0.0])
    tr = rollout(sys_cl, [0.0, 0.0], horizon=1.0, dt=0.1)
    assert np.allclose(tr.final_state, [1.0, 0.0], atol=1e-9)


def test_rollout_land_closed_form():
    plant = LandPlant()
    policy = ConstantPolicy([1.0, 0.0], ActionBounds([0, -np.pi], [1, np.pi]))
    sys_cl = ClosedLoopSystem(plant, policy, DisturbanceBounds.zero(2))
    tr = rollout(sys_cl, [0.0, 0.0], horizon=2.5, dt=0.1)
    assert tr.final_state[0] == pytest.approx(2.5, abs=1e-9)
    assert tr.final_state[1] == pytest.approx(0.0, abs=1e-12)


def test_rollout_rk4_matches_matrix_exponential():
    A = np.array([[0.0, 1.0], [-1.0, -0.2]])
    plant = LinearPlant(A)
    sys_cl = ClosedLoopSystem(
        plant, ConstantPolicy([0.0], ActionBounds([0.0], [0.0])), DisturbanceBounds.zero(2)
    )
    s0 = np.array([1.0, 0.5])
    tr = rollout(sys_cl, s0, horizon=1.0, dt=0.01)
    exact = expm(A) @ s0
    assert np.allclose(tr.final_state, exact, atol=1e-6)


def test_rollout_terminates_on_obstacle_and_goal():
    sys_cl = const_system([1.0, 0.0])
    obstacle = ShapeSet((Ball([1.0, 0.0], 0.2),))
    tr = rollout(sys_cl, [0.0, 0.0], horizon=5.0, dt=0.1, obstacles=obstacle)
    assert tr.terminal == "hit_obstacle"
    assert tr.times[-1] < 5.0

    goal = ShapeSet((Ball([1.0, 0.0], 0.2),))
    tr2 = rollout(sys_cl, [0.0, 0.0], horizon=5.0, dt=0.1, goal=goal)
    assert tr2.terminal == "reached_goal"

    inside = rollout(sys_cl, [1.0, 0.0], horizon=5.0, dt=0.1, obstacles=obstacle)
    assert inside.terminal == "hit_obstacle"
    assert len(inside.times) == 1


def test_rollout_flags_domain_exit():
    sys_cl = const_system([1.0, 0.0])
    grid = build_grid([-1, -1], [1, 1], [5, 5])
    tr = rollout(sys_cl, [0.0, 0.0], horizon=3.0, dt=0.1, domain=grid)
    assert tr.left_domain


def test_trajectory_alignment_validation():
    with pytest.raises(ValueError):
        Trajectory(
            times=np.array([0.0, 0.1]),
            states=np.zeros((2, 2)),
            actions=np.zeros((2, 1)),
            disturbances=np.zeros((1, 2)),
            terminal="horizon_exhausted",
        )
    with pytest.raises(ValueError):
        Trajectory(
            times=np.array([0.0, 0.0]),
            states=np.zeros((2, 2)),
            actions=np.zeros((1, 1)),
            disturbances=np.zeros((1, 2)),
            terminal="horizon_exhausted",
        )


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


def test_mc_with_no_draw_raises():
    initial = ShapeSet((Ball([0.0, 0.0], 0.5),))
    obstacle = ShapeSet((Ball([1.0, 0.0], 0.3),))
    sys_cl = const_system([1.0, 0.0])
    mc = mc_ground_truth(sys_cl, initial, obstacle, horizon=1.0, dt=0.1, num_samples=50,
                         num_disturbance_draws=0, seed=0)
    assert not mc.safe.all()
    with pytest.raises(ValueError, match="include_zero_draw"):
        mc_ground_truth(sys_cl, initial, obstacle, horizon=1.0, dt=0.1, num_samples=50,
                        num_disturbance_draws=0, include_zero_draw=False, seed=0)


def test_mc_builds_disturbances_only_for_running_starts(monkeypatch):
    from reachverify import oracle

    calls = []
    real = oracle._disturbance_sequences

    def counting(bounds, n_steps, sample_idx, draw_idx, seed):
        calls.append((int(sample_idx), draw_idx))
        return real(bounds, n_steps, sample_idx, draw_idx, seed)

    monkeypatch.setattr(oracle, "_disturbance_sequences", counting)
    initial = ShapeSet((Ball([0.0, 0.0], 0.5),))
    sys_cl = const_system([0.0, 0.0], upper=[0.1, 0.1])
    mc = mc_ground_truth(sys_cl, initial, ShapeSet((Ball([0.0, 0.0], 2.0),)), horizon=1.0,
                         dt=0.1, num_samples=40, num_disturbance_draws=3, seed=0)
    assert not mc.safe.any()
    assert calls == []

    mc = mc_ground_truth(sys_cl, initial, ShapeSet((Ball([5.0, 5.0], 0.5),)), horizon=1.0,
                         dt=0.1, num_samples=40, num_disturbance_draws=3, seed=0)
    assert mc.safe.all()
    assert sorted(calls) == [(i, j) for i in range(40) for j in range(3)]


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
            SolverConfig(horizon=1.0, convergence_eps=0.0),
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
    with pytest.raises(ValueError):
        mc_ground_truth(sys_cl, initial, initial, horizon=1.0, dt=0.1, num_samples=0)
    with pytest.raises(ValueError):
        rollout(sys_cl, [0.0, 0.0], horizon=1.0, dt=0.0)
    with pytest.raises(ValueError):
        rollout(sys_cl, [0.0, 0.0], horizon=1.0, dt=0.1, disturbance_strategy="bogus")
