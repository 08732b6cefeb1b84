import numpy as np
import pytest

from conftest import (
    LinearPlant,
    capsule_distance,
    const_system,
    hausdorff_between_masks,
    masks_nested,
)
from reachverify.dynamics import ActionBounds, ClosedLoopSystem, ConstantPolicy, LearnedPlant
from reachverify.error_bounds import DisturbanceBounds
from reachverify.geometry import Ball, ScalarField, ShapeSet, build_grid, zero_sublevel_mask
from reachverify.nn import MlpModel, ModelMeta
from reachverify.oracle import corner_extremum
from reachverify.solver import (
    SolverConfig,
    _one_sided_diffs,
    _Workspace,
    analytic_hamiltonian,
    cfl_dt,
    dissipation_coefficients,
    lax_friedrichs_H,
    optimal_disturbance,
    solve_brt,
    solve_frt,
    step,
    upwind_gradients,
)


# ---------------------------------------------------------------------------
# Upwind gradients
# ---------------------------------------------------------------------------

def test_upwind_exact_on_linear_field():
    grid = build_grid([0, 0], [1, 2], [11, 21])
    pts = grid.node_points()
    field = ScalarField(grid, 3.0 * pts[..., 0] - 1.5 * pts[..., 1])
    p_minus, p_plus = upwind_gradients(field)
    for arrs, expected in ((p_minus, (3.0, -1.5)), (p_plus, (3.0, -1.5))):
        assert np.allclose(arrs[0], expected[0], atol=1e-12)
        assert np.allclose(arrs[1], expected[1], atol=1e-12)


def test_upwind_zero_on_constant_field():
    grid = build_grid([0], [1], [7])
    field = ScalarField(grid, np.full(grid.counts, 4.2))
    p_minus, p_plus = upwind_gradients(field)
    assert np.allclose(p_minus[0], 0.0) and np.allclose(p_plus[0], 0.0)


def test_upwind_quadratic_stencil():
    # For v(x) = x^2: forward diff 2x + h, backward diff 2x - h, gap 2h.
    grid = build_grid([0], [1], [11])
    x = grid.axis_coords(0)
    field = ScalarField(grid, x**2)
    p_minus, p_plus = upwind_gradients(field)
    h = grid.spacing[0]
    interior = slice(1, -1)
    assert np.allclose(p_plus[0][interior] - p_minus[0][interior], 2 * h, atol=1e-12)
    assert np.allclose(p_plus[0][interior], 2 * x[interior] + h, atol=1e-12)
    # boundary one-sided fills: ghost extrapolation makes both sides equal there
    assert p_minus[0][0] == pytest.approx(p_plus[0][0])
    assert p_plus[0][-1] == pytest.approx(p_minus[0][-1])


# ---------------------------------------------------------------------------
# Disturbance extremum and Hamiltonian
# ---------------------------------------------------------------------------

def test_optimal_disturbance_sign_rule():
    b = DisturbanceBounds(np.array([0.3, 0.5]), np.array([-0.3, -0.5]))
    assert np.allclose(optimal_disturbance([1.0, -2.0], b, "reach_goal"), [0.3, -0.5])
    assert np.allclose(optimal_disturbance([1.0, -2.0], b, "reach_unsafe"), [-0.3, 0.5])
    assert np.array_equal(optimal_disturbance([0.0, 0.0], b, "reach_goal"), [0.0, 0.0])


def test_optimal_disturbance_matches_corner_oracle():
    rng = np.random.default_rng(0)
    for n in (2, 3, 4):
        for _ in range(100):
            p = rng.normal(size=n)
            upper = rng.uniform(0, 1, size=n)
            b = DisturbanceBounds(upper, -upper)
            for mode in ("reach_goal", "reach_unsafe"):
                d = optimal_disturbance(p, b, mode)
                value, _ = corner_extremum(p, b, mode)
                assert abs(float(p @ d) - value) <= 1e-12


def test_analytic_hamiltonian_values():
    sys_cl = const_system([2.0, 5.0], upper=[0.3, 0.4])
    h = analytic_hamiltonian([0.0, 0.0], [1.0, 0.0], sys_cl, "reach_goal")
    assert h == pytest.approx(2.3)
    sys_zero = const_system([2.0, 5.0])
    h0 = analytic_hamiltonian([0.0, 0.0], [1.0, 0.0], sys_zero, "reach_goal")
    assert h0 == pytest.approx(2.0)


def test_analytic_hamiltonian_matches_corner_oracle():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        c = rng.normal(size=n)
        upper = rng.uniform(0, 0.8, size=n)
        sys_cl = const_system(c, upper=upper)
        p = rng.normal(size=n)
        s = np.zeros(n)
        for mode in ("reach_goal", "reach_unsafe"):
            h = analytic_hamiltonian(s, p, sys_cl, mode)
            value, d_star = corner_extremum(p, sys_cl.bounds, mode)
            assert abs(h - (float(p @ c) + value)) <= 1e-12
            # and equals p . rate at the optimal disturbance
            assert h == pytest.approx(float(p @ (c + d_star)), abs=1e-12)


def test_dissipation_coefficients():
    grid = build_grid([0, 0], [1, 1], [5, 5])
    sys_cl = const_system([1.0, -2.0], upper=[0.1, 0.1])
    alpha = dissipation_coefficients(sys_cl, sys_cl.bounds, grid)
    assert np.allclose(alpha, [1.1, 2.1])
    sys_zero = const_system([0.0, 0.0])
    assert np.allclose(dissipation_coefficients(sys_zero, sys_zero.bounds, grid), 0.0)


def test_dissipation_dominates_learned_rates_everywhere():
    rng = np.random.default_rng(2)
    sizes = (4, 8, 2)
    model = MlpModel(
        layer_sizes=sizes,
        weights=tuple(rng.normal(size=(a, b)) for a, b in zip(sizes[:-1], sizes[1:])),
        biases=tuple(rng.normal(size=b) for b in sizes[1:]),
        hidden_activation="tanh",
        output_activation="tanh",
        output_scale=np.array([0.15, 0.15]),
        meta=ModelMeta(n_state=2, n_action=2, dt_env=0.1),
    )
    sys_cl = ClosedLoopSystem(
        LearnedPlant(model),
        ConstantPolicy([0.4, 0.1], ActionBounds([0, -np.pi], [1, np.pi])),
        DisturbanceBounds(np.array([0.05, 0.08]), np.array([-0.05, -0.08])),
    )
    grid = build_grid([-1, -1], [1, 1], [21, 21])
    alpha = dissipation_coefficients(sys_cl, sys_cl.bounds, grid)
    from reachverify.dynamics import nominal_rate_batch

    rates = nominal_rate_batch(sys_cl, grid.flat_points())
    for i in range(2):
        assert np.all(alpha[i] >= np.abs(rates[:, i]) + sys_cl.bounds.upper[i] - 1e-12)


def test_lax_friedrichs_reduces_to_h_and_arithmetic():
    sys_cl = const_system([2.0, 5.0], upper=[0.3, 0.4])
    p = np.array([1.0, 0.0])
    h = analytic_hamiltonian([0, 0], p, sys_cl, "reach_goal")
    assert lax_friedrichs_H([0, 0], p, p, sys_cl, "reach_goal", [1.0, 1.0]) == pytest.approx(h)
    # zero system, gradient jump (2, 0), alpha (1, 1) -> -1
    sys_zero = const_system([0.0, 0.0])
    val = lax_friedrichs_H([0, 0], [-1.0, 0.0], [1.0, 0.0], sys_zero, "reach_goal", [1.0, 1.0])
    assert val == pytest.approx(-1.0)


@pytest.mark.parametrize("forward", [False, True], ids=["backward", "forward"])
@pytest.mark.parametrize(
    "lo,hi,counts,A,upper,lower",
    [
        ([-1.0, -2.0], [2.0, 1.0], (9, 7),
         [[0.3, -1.1], [0.8, -0.2]], [0.3, 0.05], [-0.1, -0.4]),
        ([-1.0, -1.0, 0.0], [1.0, 2.0, 1.5], (5, 6, 4),
         [[0.1, -0.7, 0.4], [0.9, -0.3, 0.0], [-0.5, 0.2, 0.6]],
         [0.2, 0.0, 0.35], [-0.05, -0.3, -0.1]),
    ],
)
def test_stepper_hamiltonian_equals_pointwise_lax_friedrichs(
    forward, lo, hi, counts, A, upper, lower
):
    """The vectorised stepper Hamiltonian equals the scalar reach-unsafe
    reference at every node, boundary nodes (copy ghosts) included.  The
    evolution variable runs opposite to physical time, so the reference
    takes the one-sided differences swapped.  A forward stepper must match
    the reference on the reversed system with the reflected box."""
    grid = build_grid(lo, hi, counts)
    policy = ConstantPolicy([0.0], ActionBounds([0.0], [0.0]))
    bounds = DisturbanceBounds(upper=np.array(upper), lower=np.array(lower))
    sys_cl = ClosedLoopSystem(LinearPlant(A), policy, bounds)
    ws = _Workspace(sys_cl, grid, forward)
    if forward:
        reflected = DisturbanceBounds(upper=-np.array(lower), lower=-np.array(upper))
        sys_ref = ClosedLoopSystem(LinearPlant(-np.array(A)), policy, reflected)
    else:
        sys_ref = sys_cl
    V = np.random.default_rng(len(counts)).normal(size=grid.counts)
    vectorised = ws.numerical_hamiltonian(V)

    diffs = [_one_sided_diffs(V, ax, grid.spacing[ax]) for ax in range(grid.dims)]
    points = grid.node_points()
    reference = np.empty(grid.counts)
    for idx in np.ndindex(*grid.counts):
        p_minus = [pm[idx] for pm, _ in diffs]
        p_plus = [pp[idx] for _, pp in diffs]
        reference[idx] = lax_friedrichs_H(
            points[idx], p_plus, p_minus, sys_ref, "reach_unsafe", ws.alpha
        )
    assert np.max(np.abs(vectorised - reference)) <= 1e-12 * np.max(np.abs(reference))


def test_lax_friedrichs_consistency_order():
    # On v = sin(x) cos(y) the dissipated Hamiltonian converges to the exact
    # one at first order as the grid refines.
    sys_cl = const_system([1.0, 1.0])

    def max_error(n):
        grid = build_grid([0, 0], [np.pi, np.pi], [n, n])
        pts = grid.node_points()
        field = ScalarField(grid, np.sin(pts[..., 0]) * np.cos(pts[..., 1]))
        p_minus, p_plus = upwind_gradients(field)
        exact = (
            np.cos(pts[..., 0]) * np.cos(pts[..., 1])
            - np.sin(pts[..., 0]) * np.sin(pts[..., 1])
        )
        pm = np.stack([p_minus[0], p_minus[1]])
        pp = np.stack([p_plus[0], p_plus[1]])
        mid = 0.5 * (pm + pp)
        approx = mid[0] + mid[1] - 0.5 * (pp - pm).sum(axis=0)
        interior = (slice(1, -1), slice(1, -1))
        return np.abs(approx - exact)[interior].max()

    e1, e2 = max_error(21), max_error(41)
    assert e2 <= 0.7 * e1


def test_cfl_dt_formula():
    grid = build_grid([0, 0], [1, 1], [11, 11])
    cfg = SolverConfig(horizon=5.0, cfl_factor=0.5)
    assert cfl_dt(cfg, [1.0, 1.0], grid) == pytest.approx(0.025)
    fine = build_grid([0, 0], [1, 1], [21, 21])
    assert cfl_dt(cfg, [1.0, 1.0], fine) == pytest.approx(0.0125)
    assert cfl_dt(cfg, [0.0, 0.0], grid) == pytest.approx(0.05)  # horizon / 100


def test_step_identity_when_hamiltonian_nonnegative():
    grid = build_grid([0], [1], [11])
    x = grid.axis_coords(0)
    field = ScalarField(grid, x.copy())
    sys_cl = const_system([1.0])
    cfg = SolverConfig(horizon=1.0)
    out = step(field, sys_cl, cfg, 0.01)
    assert np.allclose(out.values, field.values, atol=1e-15)
    assert out.time_tag == pytest.approx(-0.01)


def test_step_zero_dt_is_identity():
    grid = build_grid([0, 0], [1, 1], [9, 9])
    rng = np.random.default_rng(3)
    field = ScalarField(grid, rng.normal(size=grid.counts))
    sys_cl = const_system([0.3, -0.2])
    out = step(field, sys_cl, SolverConfig(horizon=1.0), 0.0)
    assert np.array_equal(out.values, field.values)


def test_step_rejects_cfl_violation():
    grid = build_grid([0, 0], [1, 1], [11, 11])
    field = ScalarField(grid, np.zeros(grid.counts))
    sys_cl = const_system([1.0, 1.0])
    cfg = SolverConfig(horizon=1.0, cfl_factor=0.5)
    limit = cfl_dt(cfg, [1.0, 1.0], grid)
    with pytest.raises(ValueError):
        step(field, sys_cl, cfg, 2 * limit)


def test_1d_advection_zero_crossing_speed():
    # Backward tube of a target under rightward flow grows leftward at the
    # advection speed.
    grid = build_grid([-4], [2], [241])
    sys_cl = const_system([1.0])
    target = ShapeSet((Ball([1.0], 0.5),))
    cfg = SolverConfig(horizon=2.0, snapshot_stride=10**6, convergence_eps=0.0)
    tube = solve_brt(target, sys_cl, cfg, grid)
    x = grid.axis_coords(0)
    mask = tube.final_mask()
    left_edge = x[mask].min()
    expected = 1.0 - 0.5 - 2.0  # center - radius - speed * horizon
    assert abs(left_edge - expected) <= 2 * grid.spacing[0]
    right_edge = x[mask].max()
    assert abs(right_edge - 1.5) <= 2 * grid.spacing[0]


def test_solve_brt_zero_dynamics_keeps_target():
    grid = build_grid([-1, -1], [1, 1], [21, 21])
    sys_cl = const_system([0.0, 0.0])
    target = ShapeSet((Ball([0.2, -0.1], 0.4),))
    tube = solve_brt(
        target, sys_cl,
        SolverConfig(horizon=1.0, convergence_eps=0.0), grid,
    )
    from reachverify.geometry import level_set_from_shapes

    expected = zero_sublevel_mask(level_set_from_shapes(grid, target))
    assert np.array_equal(tube.final_mask(), expected)


def test_solve_frt_zero_dynamics_keeps_initial():
    grid = build_grid([-1, -1], [1, 1], [21, 21])
    sys_cl = const_system([0.0, 0.0])
    initial = ShapeSet((Ball([0.0, 0.0], 0.3),))
    tube = solve_frt(
        initial, sys_cl,
        SolverConfig(horizon=1.0, convergence_eps=0.0), grid,
    )
    from reachverify.geometry import level_set_from_shapes

    expected = zero_sublevel_mask(level_set_from_shapes(grid, initial))
    for _, mask in tube.masks():
        assert np.array_equal(mask, expected)
    assert tube.direction == "forward" and tube.times[-1] == pytest.approx(1.0)


def test_capsule_small_grid_both_directions():
    grid = build_grid([-1, -2], [5, 2], [81, 55])
    sys_cl = const_system([1.0, 0.0])
    analytic = capsule_distance(grid.node_points(), [0.5, 0.0], [3.5, 0.0], 0.7) <= 0
    tol = 2 * grid.spacing.max()

    brt = solve_brt(
        ShapeSet((Ball([3.5, 0.0], 0.7),)), sys_cl,
        SolverConfig(horizon=3.0, convergence_eps=0.0), grid,
    )
    assert hausdorff_between_masks(grid, brt.final_mask(), analytic) <= tol
    assert masks_nested(brt)

    frt = solve_frt(
        ShapeSet((Ball([0.5, 0.0], 0.7),)), sys_cl,
        SolverConfig(horizon=3.0, convergence_eps=0.0), grid,
    )
    assert hausdorff_between_masks(grid, frt.final_mask(), analytic) <= tol
    assert masks_nested(frt)


def test_disturbance_monotonicity_small():
    grid = build_grid([-2, -2], [2, 2], [41, 41])
    target = ShapeSet((Ball([0.8, 0.0], 0.4),))
    small = const_system([0.5, 0.1], upper=[0.05, 0.05])
    big = const_system([0.5, 0.1], upper=[0.1, 0.1])
    alpha = dissipation_coefficients(big, big.bounds, grid)
    cfg = SolverConfig(horizon=1.5, convergence_eps=0.0)
    t_small = solve_brt(target, small, cfg, grid, alpha_floor=alpha)
    t_big = solve_brt(target, big, cfg, grid, alpha_floor=alpha)
    assert np.all(t_small.final_mask() <= t_big.final_mask())


def test_forward_equals_backward_on_reversed_flow():
    grid = build_grid([-2, -2], [2, 2], [41, 41])
    seed = ShapeSet((Ball([0.0, 0.0], 0.4),))
    cfg_f = SolverConfig(horizon=1.0, convergence_eps=0.0)
    cfg_b = SolverConfig(horizon=1.0, convergence_eps=0.0)
    fwd = solve_frt(seed, const_system([0.7, -0.3], upper=[0.1, 0.1]), cfg_f, grid)
    bwd = solve_brt(seed, const_system([-0.7, 0.3], upper=[0.1, 0.1]), cfg_b, grid)
    assert np.array_equal(fwd.final_mask(), bwd.final_mask())


def test_long_run_stability():
    grid = build_grid([-2, -2], [2, 2], [31, 31])
    rng = np.random.default_rng(7)
    sizes = (4, 8, 2)
    model = MlpModel(
        layer_sizes=sizes,
        weights=tuple(rng.normal(size=(a, b)) for a, b in zip(sizes[:-1], sizes[1:])),
        biases=tuple(rng.normal(size=b) for b in sizes[1:]),
        hidden_activation="tanh",
        output_activation="tanh",
        output_scale=np.array([0.1, 0.1]),
        meta=ModelMeta(n_state=2, n_action=2, dt_env=0.1),
    )
    sys_cl = ClosedLoopSystem(
        LearnedPlant(model),
        ConstantPolicy([0.5, 0.0], ActionBounds([0, -np.pi], [1, np.pi])),
        DisturbanceBounds(np.array([0.05, 0.05]), np.array([-0.05, -0.05])),
    )
    alpha = dissipation_coefficients(sys_cl, sys_cl.bounds, grid)
    dt = cfl_dt(SolverConfig(horizon=1.0), alpha, grid)
    horizon = 10_000 * dt
    tube = solve_brt(
        ShapeSet((Ball([0.5, 0.5], 0.3),)), sys_cl,
        SolverConfig(horizon=horizon, snapshot_stride=10**6, convergence_eps=0.0),
        grid,
    )
    final = tube.final_field().values
    assert np.isfinite(final).all()
    diameter = float(np.linalg.norm(grid.hi - grid.lo))
    initial_max = np.abs(
        ShapeSet((Ball([0.5, 0.5], 0.3),)).signed_distance(grid.node_points())
    ).max()
    assert np.abs(final).max() <= initial_max + diameter
    assert tube.steps_taken == 10_000


def test_scheme_consistency_on_linear_field():
    # With no disturbance and matching one-sided gradients the per-node
    # change over a step equals min(0, p . f) exactly away from boundaries.
    grid = build_grid([0, 0], [1, 1], [21, 21])
    pts = grid.node_points()
    field = ScalarField(grid, 2.0 * pts[..., 0] - 1.0 * pts[..., 1])
    sys_cl = const_system([-0.5, 0.25])
    dt = 1e-3
    out = step(field, sys_cl, SolverConfig(horizon=1.0), dt)
    p_dot_f = 2.0 * (-0.5) + (-1.0) * 0.25
    expected = min(0.0, p_dot_f)
    interior = (slice(2, -2), slice(2, -2))
    rate_of_change = (out.values - field.values)[interior] / dt
    assert np.allclose(rate_of_change, expected, atol=1e-12)


def test_forward_and_backward_verdicts_consistent_when_safe():
    # Flow carries the start set away from the obstacle: the forward tube
    # never meets it and no start node can reach it backward.
    from reachverify.geometry import level_set_from_shapes
    from reachverify.verification import classify_policy, unsafe_initial_states

    grid = build_grid([-3, -2], [3, 2], [61, 41])
    sys_cl = const_system([1.0, 0.0], upper=[0.05, 0.05])
    initial = ShapeSet((Ball([1.0, 0.0], 0.4),))
    obstacle = ShapeSet((Ball([-1.5, 0.0], 0.4),))

    frt = solve_frt(initial, sys_cl,
                    SolverConfig(horizon=1.5, convergence_eps=0.0),
                    grid)
    verdict, _ = classify_policy(frt, obstacle, grid)
    assert verdict == "safe"

    brt = solve_brt(obstacle, sys_cl,
                    SolverConfig(horizon=1.5, convergence_eps=0.0),
                    grid)
    assert not unsafe_initial_states(brt.final_field(), initial).any()


def test_tube_result_metadata():
    grid = build_grid([-1, -1], [1, 1], [21, 21])
    sys_cl = const_system([0.5, 0.0])
    tube = solve_brt(
        ShapeSet((Ball([0.3, 0.0], 0.3),)), sys_cl,
        SolverConfig(horizon=0.5, snapshot_stride=3, convergence_eps=0.0),
        grid,
    )
    times = tube.times
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(-0.5)
    assert all(t2 < t1 for t1, t2 in zip(times, times[1:]))
    assert tube.direction == "backward"
    assert tube.max_abs_h > 0


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(horizon=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(horizon=1.0, cfl_factor=1.5)
    with pytest.raises(ValueError):
        SolverConfig(horizon=1.0, convergence_eps=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(horizon=1.0, snapshot_stride=0)


def test_solve_rejects_seed_outside_grid():
    grid = build_grid([-1, -1], [1, 1], [11, 11])
    sys_cl = const_system([0.0, 0.0])
    with pytest.raises(ValueError):
        solve_brt(
            ShapeSet((Ball([2.0, 0.0], 0.5),)), sys_cl,
            SolverConfig(horizon=1.0), grid,
        )
    with pytest.raises(ValueError):
        solve_frt(
            ShapeSet((Ball([0.0, 0.9], 0.5),)), sys_cl,
            SolverConfig(horizon=1.0), grid,
        )
