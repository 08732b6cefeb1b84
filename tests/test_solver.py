import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    BLOCKED_GRIDS,
    SMALL_THREAD_NODES,
    LinearPlant,
    bits,
    blocked_grid,
    capsule_distance,
    const_system,
    hausdorff_between_masks,
    masks_nested,
)
from reachverify import solver
from reachverify.dynamics import (
    ActionBounds,
    ClosedLoopSystem,
    ConstantPolicy,
    LearnedPlant,
    MlpPolicy,
    nominal_rate_batch,
)
from reachverify.error_bounds import DisturbanceBounds
from reachverify.geometry import (
    Ball,
    Grid,
    ScalarField,
    ShapeSet,
    build_grid,
    level_set_from_shapes,
    zero_sublevel_mask,
)
from reachverify.nn import MlpModel, ModelMeta
from reachverify.scene import air_scene, land_scene
from reachverify.solver import (
    _DTYPE,
    SolverConfig,
    _Coefficients,
    _wave_speeds,
    _Workspace,
    brt_workspaces,
    cfl_dt,
    solve_brt,
    solve_frt,
)
from reference import (
    _one_sided_diffs,
    analytic_hamiltonian,
    corner_extremum,
    dissipation_coefficients,
    lax_friedrichs_H,
    optimal_disturbance,
    reference_solve,
    upwind_gradients,
)


def step(field, sys_cl, config, dt):
    """One backward TVD-RK2 freezing step of ``field`` on a fresh workspace;
    the time tag moves by ``-dt``.  Raises on steps beyond the CFL bound."""
    ws = _Workspace(_Coefficients(sys_cl, field.grid, False))
    limit = cfl_dt(config, ws.coefficients.alpha, field.grid)
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    if dt > limit * (1 + 1e-9):
        raise ValueError(f"dt={dt} violates the CFL bound {limit}")
    ws.load(field)
    ws.rk2_step(dt)
    return ws.snapshot(field.time_tag - dt)


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
        # A symmetric box and the zero box take the stepper's -|p| d path.
        ([-1.0, -1.0, 0.0], [1.0, 2.0, 1.5], (5, 6, 4),
         [[0.1, -0.7, 0.4], [0.9, -0.3, 0.0], [-0.5, 0.2, 0.6]],
         [0.2, 0.0, 0.35], [-0.2, -0.0, -0.35]),
        ([-1.0, -2.0], [2.0, 1.0], (9, 7),
         [[0.3, -1.1], [0.8, -0.2]], [0.0, 0.0], [0.0, 0.0]),
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
    ws = _Workspace(_Coefficients(sys_cl, grid, forward))
    if forward:
        reflected = DisturbanceBounds(upper=-np.array(lower), lower=-np.array(upper))
        sys_ref = ClosedLoopSystem(LinearPlant(-np.array(A)), policy, reflected)
    else:
        sys_ref = sys_cl
    V = np.random.default_rng(len(counts)).normal(size=grid.counts).astype(_DTYPE)
    vectorised = ws.slabs[0].hamiltonian(V.ravel()).reshape(grid.counts)
    V = V.astype(float)  # the reference works in float64 on the same values

    diffs = [_one_sided_diffs(V, ax, grid.spacing[ax]) for ax in range(grid.dims)]
    points = grid.node_points()
    reference = np.empty(grid.counts)
    for idx in np.ndindex(*grid.counts):
        p_minus = [pm[idx] for pm, _ in diffs]
        p_plus = [pp[idx] for _, pp in diffs]
        reference[idx] = lax_friedrichs_H(
            points[idx], p_plus, p_minus, sys_ref, "reach_unsafe", ws.coefficients.alpha
        )
    # The kernel rounds each operation to float32; the reference does not.
    # Measured up to 1.23 float32 ulps of the largest |H|.
    ulp = np.spacing(_DTYPE(np.max(np.abs(reference))))
    assert np.max(np.abs(vectorised - reference)) <= 4 * ulp


# The kernel itself on linear fields V = c . x: away from the copy ghosts
# both one-sided differences are c, so p- = p+ and the dissipation term
# vanishes, leaving the analytic Hamiltonian of the kernel's sense.
_LINEAR_CASES = [
    ([-1.0, -2.0], [2.0, 1.0], (9, 7), [[0.3, -1.1], [0.8, -0.2]], [0.7, -1.3]),
    ([-1.0, -1.0, 0.0], [1.0, 2.0, 1.5], (5, 6, 4),
     [[0.1, -0.7, 0.4], [0.9, -0.3, 0.0], [-0.5, 0.2, 0.6]], [-0.4, 1.1, 0.9]),
]


def _linear_case(case, box):
    lo, hi, counts, A, c = case
    grid = build_grid(lo, hi, counts)
    upper = np.linspace(0.1, 0.3, grid.dims)
    lower = -upper if box == "symmetric" else -np.linspace(0.25, 0.05, grid.dims)
    policy = ConstantPolicy([0.0], ActionBounds([0.0], [0.0]))
    sys_cl = ClosedLoopSystem(LinearPlant(A), policy, DisturbanceBounds(upper, lower))
    c = np.array(c)
    return grid, sys_cl, c, grid.node_points() @ c + 0.25


@pytest.mark.parametrize("forward", [False, True], ids=["backward", "forward"])
@pytest.mark.parametrize("box", ["symmetric", "asymmetric"])
@pytest.mark.parametrize("case", _LINEAR_CASES, ids=["2d", "3d"])
def test_numerical_hamiltonian_on_linear_field_is_p_dot_f_plus_box_minimum(case, box, forward):
    # The stepper minimizes over the box; a forward one steps the reversed
    # flow with the reflected box.
    grid, sys_cl, c, V = _linear_case(case, box)
    ws = _Workspace(_Coefficients(sys_cl, grid, forward))
    V = V.astype(_DTYPE)
    H = ws.slabs[0].hamiltonian(V.ravel()).reshape(grid.counts)
    rates = nominal_rate_batch(sys_cl, grid.flat_points()).reshape(*grid.counts, grid.dims)
    b = sys_cl.bounds
    if forward:
        rates, b = -rates, DisturbanceBounds(upper=-b.lower, lower=-b.upper)
    expected = rates @ c + corner_extremum(c, b, "reach_unsafe")[0]
    interior = (slice(1, -1),) * grid.dims
    # Rounding V to float32 moves each difference by up to about one ulp
    # of the field per spacing; measured up to 1.53 of them in H.
    tol = 4 * np.spacing(np.abs(V).max()) / grid.spacing.min()
    assert np.max(np.abs(H[interior] - expected[interior])) <= tol


@pytest.mark.parametrize("case", _LINEAR_CASES, ids=["2d", "3d"])
def test_differences_are_exact_and_zero_at_the_copy_ghosts(case):
    grid, sys_cl, c, V = _linear_case(case, "asymmetric")
    ws = _Workspace(_Coefficients(sys_cl, grid, False))
    V = V.astype(_DTYPE)
    for axis in range(grid.dims):
        backward, forward = (np.moveaxis(d.copy().reshape(grid.counts), axis, 0)
                             for d in ws.slabs[0]._differences(V.ravel(), axis))
        spacing = _DTYPE(grid.spacing[axis])
        direct = np.moveaxis(np.diff(V, axis=axis) / spacing, axis, 0)
        # Backward differences from the second node on, forward ones up to
        # the last but one, are the direct float32 differences bit for bit,
        # and c up to the rounding of V: measured up to 0.42 ulps of the
        # field per spacing.
        assert np.array_equal(backward[1:], direct) and np.array_equal(forward[:-1], direct)
        assert np.max(np.abs(direct - c[axis])) <= 2 * np.spacing(np.abs(V).max()) / spacing
        # Zero slopes stand in for both copy ghosts: backward at the first
        # node of each line, forward at its last.
        assert not backward[0].any() and not forward[-1].any()


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
    assert cfl_dt(cfg, [0.0, 0.0], grid) == 5.0  # horizon


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
    assert np.array_equal(out.values, field.values.astype(_DTYPE))


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
    cfg = SolverConfig(horizon=2.0, snapshot_stride=10**6)
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
        SolverConfig(horizon=1.0), grid,
    )
    from reachverify.geometry import level_set_from_shapes

    expected = zero_sublevel_mask(level_set_from_shapes(grid, target))
    assert np.array_equal(tube.final_mask(), expected)


@pytest.mark.parametrize("forward", [False, True], ids=["backward", "forward"])
def test_still_system_spans_the_horizon_in_one_step(forward):
    # No wave speed leaves H at zero everywhere: one step of the whole
    # horizon, and the seed field unchanged.
    grid = build_grid([-1, -1], [1, 1], [21, 21])
    policy = ConstantPolicy([0.0], ActionBounds([0.0], [0.0]))
    sys_cl = ClosedLoopSystem(LinearPlant(np.zeros((2, 2))), policy, DisturbanceBounds.zero(2))
    seed = ShapeSet((Ball([0.2, -0.1], 0.4),))
    config = SolverConfig()
    tube = (solve_frt if forward else solve_brt)(seed, sys_cl, config, grid)
    assert tube.times == [0.0, (1 if forward else -1) * config.horizon]
    assert tube.steps_taken == 1
    # The stepped field is the seed rounded once to the kernel's dtype, and
    # so is the seed snapshot.
    rounded = level_set_from_shapes(grid, seed).values.astype(_DTYPE)
    assert np.array_equal(tube.final.values, rounded)
    assert np.array_equal(bits(tube.snapshots[0][1].values), bits(rounded.astype(np.float64)))


@pytest.mark.parametrize("scene", [land_scene((101, 101)), air_scene((45,) * 3), air_scene()],
                         ids=["land_101", "air_45", "air_71"])
def test_rounded_seed_snapshot_keeps_the_seed_mask(scene):
    # The seed snapshot is the float32 seed the kernel steps from; on the
    # shipped scenes its tube mask is the exact distance's for every seed a
    # command solves from: the initial set, the goal and each obstacle.
    grid = scene.grid
    still = const_system([0.0] * grid.dims)
    config = SolverConfig(horizon=1.0)
    seeds = [(solve_frt, scene.initial_set), (solve_brt, scene.goal_set)] + [
        (solve_brt, ShapeSet((prim,))) for prim in scene.obstacles.primitives]
    for solve, seed in seeds:
        exact = level_set_from_shapes(grid, seed).values
        first = solve(seed, still, config, grid).snapshots[0][1].values
        assert np.array_equal(bits(first), bits(exact.astype(_DTYPE).astype(np.float64)))
        assert np.array_equal(first <= 0.0, exact <= 0.0)
        assert (exact <= 0.0).any() and (exact > 0.0).any()


def test_solve_frt_zero_dynamics_keeps_initial():
    grid = build_grid([-1, -1], [1, 1], [21, 21])
    sys_cl = const_system([0.0, 0.0])
    initial = ShapeSet((Ball([0.0, 0.0], 0.3),))
    tube = solve_frt(
        initial, sys_cl,
        SolverConfig(horizon=1.0), grid,
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
        SolverConfig(horizon=3.0), grid,
    )
    assert hausdorff_between_masks(grid, brt.final_mask(), analytic) <= tol
    assert masks_nested(brt)

    frt = solve_frt(
        ShapeSet((Ball([0.5, 0.0], 0.7),)), sys_cl,
        SolverConfig(horizon=3.0), grid,
    )
    assert hausdorff_between_masks(grid, frt.final_mask(), analytic) <= tol
    assert masks_nested(frt)


def test_disturbance_monotonicity_small():
    grid = build_grid([-2, -2], [2, 2], [41, 41])
    target = ShapeSet((Ball([0.8, 0.0], 0.4),))
    small = const_system([0.5, 0.1], upper=[0.05, 0.05])
    big = const_system([0.5, 0.1], upper=[0.1, 0.1])
    alpha = dissipation_coefficients(big, big.bounds, grid)
    cfg = SolverConfig(horizon=1.5)
    t_small = solve_brt(target, small, cfg, grid, alpha_floor=alpha)
    t_big = solve_brt(target, big, cfg, grid, alpha_floor=alpha)
    assert np.all(t_small.final_mask() <= t_big.final_mask())


def test_forward_equals_backward_on_reversed_flow():
    grid = build_grid([-2, -2], [2, 2], [41, 41])
    seed = ShapeSet((Ball([0.0, 0.0], 0.4),))
    cfg = SolverConfig(horizon=1.0)
    fwd = solve_frt(seed, const_system([0.7, -0.3], upper=[0.1, 0.1]), cfg, grid)
    bwd = solve_brt(seed, const_system([-0.7, 0.3], upper=[0.1, 0.1]), cfg, grid)
    assert np.array_equal(fwd.final_mask(), bwd.final_mask())


def test_long_run_stability():
    grid = build_grid([-2, -2], [2, 2], [31, 31])
    rng = np.random.default_rng(7)
    sizes = (4, 8, 2)
    model = MlpModel(
        layer_sizes=sizes,
        weights=tuple(rng.normal(size=(a, b)) for a, b in zip(sizes[:-1], sizes[1:])),
        biases=tuple(rng.normal(size=b) for b in sizes[1:]),
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
        SolverConfig(horizon=horizon, snapshot_stride=10**6),
        grid,
    )
    final = tube.final.values
    assert np.isfinite(final).all()
    diameter = float(np.linalg.norm(grid.hi - grid.lo))
    initial_max = np.abs(
        ShapeSet((Ball([0.5, 0.5], 0.3),)).signed_distance(grid.node_points())
    ).max()
    assert np.abs(final).max() <= initial_max + diameter
    assert tube.steps_taken == 10_000


def test_scheme_consistency_on_linear_field():
    # With no disturbance and matching one-sided gradients the per-node
    # change over a step equals dt * min(0, p . f) away from boundaries, up
    # to the rounding of the float32 update: measured up to 0.12 ulps of
    # the field.
    grid = build_grid([0, 0], [1, 1], [21, 21])
    pts = grid.node_points()
    field = ScalarField(grid, 2.0 * pts[..., 0] - 1.0 * pts[..., 1])
    sys_cl = const_system([-0.5, 0.25])
    dt = 1e-3
    out = step(field, sys_cl, SolverConfig(horizon=1.0), dt)
    p_dot_f = 2.0 * (-0.5) + (-1.0) * 0.25
    expected = min(0.0, p_dot_f)
    interior = (slice(2, -2), slice(2, -2))
    start = field.values.astype(_DTYPE)
    change = (out.values - start)[interior]
    assert np.max(np.abs(change - dt * expected)) <= 2 * np.spacing(np.abs(start).max())


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
                    SolverConfig(horizon=1.5),
                    grid)
    verdict, _ = classify_policy(frt, obstacle, grid)
    assert verdict == "safe"

    brt = solve_brt(obstacle, sys_cl,
                    SolverConfig(horizon=1.5),
                    grid)
    initial_mask = zero_sublevel_mask(level_set_from_shapes(grid, initial))
    assert not unsafe_initial_states(brt.final, initial_mask).any()


def test_tube_result_metadata():
    grid = build_grid([-1, -1], [1, 1], [21, 21])
    sys_cl = const_system([0.5, 0.0])
    tube = solve_brt(
        ShapeSet((Ball([0.3, 0.0], 0.3),)), sys_cl,
        SolverConfig(horizon=0.5, snapshot_stride=3),
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


# ---------------------------------------------------------------------------
# Whole solves against the allocating stepper
# ---------------------------------------------------------------------------

def _grid(lo, hi, counts):
    # Built directly so that an axis may have 2 nodes, where the first and
    # the last node (and so both copy ghosts) are neighbours.
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    return Grid(lo, hi, tuple(counts), (hi - lo) / (np.array(counts) - 1))


_GRIDS = {
    1: ([-2.0], [1.3], (23,)),
    2: ([-1.0, -0.7], [1.3, 0.9], (17, 2)),
    3: ([-1.0, -0.9, -0.8], [1.1, 1.0, 0.7], (9, 3, 7)),
    4: ([-1.0, -0.9, -0.8, -1.2], [1.1, 1.0, 0.7, 0.9], (5, 4, 2, 6)),
}


def _linear_system(dims, box):
    rng = np.random.default_rng(dims)
    upper, lower = rng.uniform(0.0, 0.3, dims), -rng.uniform(0.0, 0.2, dims)
    if box == "symmetric":
        lower = -upper
    elif box == "zero":
        upper, lower = np.zeros(dims), np.zeros(dims)
    policy = ConstantPolicy([0.0], ActionBounds([0.0], [0.0]))
    bounds = DisturbanceBounds(upper=upper, lower=lower)
    return ClosedLoopSystem(LinearPlant(rng.normal(size=(dims, dims))), policy, bounds)


# (dims, stride, box, cfl_factor); the stepper takes its -|p| d path on the
# symmetric and the zero box, its min-of-products path otherwise.  The table
# was built for the step at cfl_factor 0.5 (more than 4 steps); the last case
# takes the default step.  Ids name the box only when it is not the
# asymmetric one, and the step only when it is not 0.5.
_SOLVE_CASES = [
    (1, 1, "asymmetric", 0.5), (2, 3, "asymmetric", 0.5),
    (3, 1, "asymmetric", 0.5), (4, 3, "asymmetric", 0.5),
    (2, 3, "symmetric", 0.5), (3, 1, "symmetric", 0.5),
    (2, 3, "zero", 0.5), (3, 1, "zero", 0.5),
    (2, 3, "asymmetric", SolverConfig().cfl_factor),
]


def _solve_case_id(case):
    dims, stride, box, cfl = case
    parts = [dims, stride] + ([] if box == "asymmetric" else [box])
    return "-".join(map(str, parts + ([] if cfl == 0.5 else [f"cfl{cfl}"])))


@pytest.mark.parametrize("forward", [False, True], ids=["backward", "forward"])
@pytest.mark.parametrize("dims,stride,box,cfl", _SOLVE_CASES, ids=map(_solve_case_id, _SOLVE_CASES))
def test_solve_bitwise_equals_allocating_stepper(forward, dims, stride, box, cfl):
    lo, hi, counts = _GRIDS[dims]
    grid = _grid(lo, hi, counts)
    sys_cl = _linear_system(dims, box)
    seed = ShapeSet((Ball(0.5 * (grid.lo + grid.hi) - 0.05, 0.3),))
    cfg = SolverConfig(horizon=0.6, cfl_factor=cfl, snapshot_stride=stride)
    solve = solve_frt if forward else solve_brt
    tube = solve(seed, sys_cl, cfg, grid)
    snapshots, steps, max_h = reference_solve(seed, sys_cl, cfg, grid, forward, _DTYPE)

    assert (tube.steps_taken, tube.max_abs_h) == (steps, max_h)
    assert steps > 4
    assert tube.times == [t for t, _ in snapshots]
    for (_, field), (_, expected) in zip(tube.snapshots, snapshots):
        assert np.array_equal(bits(field.values), bits(expected))


def test_nonfinite_value_mid_solve_names_the_step(monkeypatch):
    # A NaN value at one node before step 4 makes that step's values NaN.
    class PoisonedWorkspace(solver._Workspace):
        def rk2_step(self, dt):
            self.steps = getattr(self, "steps", 0) + 1
            if self.steps == 5:
                self.values[7] = np.nan
            return super().rk2_step(dt)

    monkeypatch.setattr(solver, "_Workspace", PoisonedWorkspace)
    grid = build_grid([-1, -1], [1, 1], [11, 11])
    with pytest.raises(RuntimeError, match="non-finite values at step 4$"):
        solve_brt(ShapeSet((Ball([0.0, 0.0], 0.4),)), const_system([0.3, -0.2]),
                  SolverConfig(horizon=2.0, snapshot_stride=2), grid)


def _slab_case(monkeypatch):
    """A 41^3 grid and a short backward solve on it: 13 steps, a snapshot
    every second one.  The per-thread node count is patched down so that
    two CPUs step it in two slabs."""
    monkeypatch.setattr(solver, "_THREAD_NODES", SMALL_THREAD_NODES)
    grid = build_grid([-1.0] * 3, [1.0] * 3, (41, 41, 41))
    sys_cl = const_system([0.3, -0.2, 0.1], upper=[0.1, 0.1, 0.1])
    return (ShapeSet((Ball([0.0, 0.0, 0.0], 0.4),)), sys_cl,
            SolverConfig(horizon=0.5, snapshot_stride=2), grid)


@pytest.mark.parametrize("cpus", [1, 2])
def test_nonfinite_value_in_the_last_slab_names_the_serial_step(monkeypatch, cpus):
    # The NaN reaches only the last slab's change, and the combined change
    # must keep it: the split solve fails at the serial solve's step.
    target, sys_cl, cfg, grid = _slab_case(monkeypatch)
    node = grid.num_nodes - 7
    made = []

    class PoisonedWorkspace(solver._Workspace):
        def rk2_step(self, dt):
            self.steps = getattr(self, "steps", 0) + 1
            if self.steps == 5:
                self.values[node] = np.nan
            return super().rk2_step(dt)

    def workspace(*args):
        made.append(PoisonedWorkspace(*args))
        return made[-1]

    monkeypatch.setattr(solver, "_Workspace", workspace)
    monkeypatch.setattr(solver, "_usable_cpus", lambda: cpus)
    with pytest.raises(RuntimeError, match="non-finite values at step 4$"):
        solve_brt(target, sys_cl, cfg, grid)
    (ws,) = made
    assert len(ws.slabs) == cpus and ws.slabs[-1].lo <= node < ws.slabs[-1].hi


def _spy_thread_starts(monkeypatch) -> list:
    started, real_start = [], threading.Thread.start

    def start(self):
        started.append(self)
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


# (grid counts, tubes) -> (lanes, slabs per lane) on 1, 2, 3 and 4 usable
# CPUs.  At 44 000 nodes a thread: the benchmark's air scene (45^3) steps
# verify's tube in two slabs of 44 550 and 46 575 nodes and safe-set's two
# tubes in two lanes of one slab; land's 101^2 and grids up to 35^3 run
# serially; 251^2, 41^3 and 44^3 get lanes but no slabs; a third slab is
# never made.
_LAYOUTS = {
    **{(counts, tubes): [(1, 1)] * 4 for tubes in (1, 2)
       for counts in ((101, 101), (193, 193), (201, 201), (35, 35, 35))},
    **{(counts, 1): [(1, 1)] * 4 for counts in ((251, 251), (41, 41, 41), (44, 44, 44))},
    **{(counts, 2): [(1, 1), (2, 1), (2, 1), (2, 1)]
       for counts in ((251, 251), (41, 41, 41), (44, 44, 44))},
    **{(counts, 1): [(1, 1), (1, 2), (1, 2), (1, 2)]
       for counts in ((301, 301), (45, 45, 45), (57, 57, 57))},
    **{(counts, 2): [(1, 1), (2, 1), (2, 1), (2, 2)]
       for counts in ((301, 301), (45, 45, 45), (57, 57, 57))},
}


def test_layout_gives_each_thread_its_least_nodes(monkeypatch):
    for (counts, tubes), layouts in _LAYOUTS.items():
        grid = build_grid([-1.0] * len(counts), [1.0] * len(counts), counts)
        for cpus, expected in enumerate(layouts, start=1):
            monkeypatch.setattr(solver, "_usable_cpus", lambda: cpus)
            assert solver._layout(grid, tubes) == expected, (counts, tubes, cpus)


def test_a_failing_sink_stops_the_slab_threads(monkeypatch):
    # The sink fails on the second snapshot after the seed, between steps,
    # while the worker waits for the next one.
    target, sys_cl, cfg, grid = _slab_case(monkeypatch)
    monkeypatch.setattr(solver, "_usable_cpus", lambda: 2)
    started = _spy_thread_starts(monkeypatch)
    times = []

    def sink(time, field):
        times.append(time)
        if len(times) == 3:
            raise OSError("disk full")
        return field

    with pytest.raises(OSError, match="disk full"):
        solve_brt(target, sys_cl, cfg, grid, sink=sink)
    assert len(started) == 1 and not started[0].is_alive()


@pytest.mark.parametrize("where", ["worker", "caller"])
def test_a_slab_error_is_raised_in_the_calling_thread(monkeypatch, where):
    # An error in a worker's slab breaks the barrier the caller waits at;
    # an error in the caller's slab leaves the worker at it.  Either way
    # the solve raises that error, and no worker outlives it.
    target, sys_cl, cfg, grid = _slab_case(monkeypatch)
    monkeypatch.setattr(solver, "_usable_cpus", lambda: 2)
    started = _spy_thread_starts(monkeypatch)
    real_hamiltonian, calls = solver._Slab.hamiltonian, []

    def hamiltonian(self, v):
        on_worker = threading.current_thread() is not threading.main_thread()
        if on_worker == (where == "worker"):
            calls.append(self)
            if len(calls) == 7:
                raise ZeroDivisionError(f"{where} slab failed")
        return real_hamiltonian(self, v)

    monkeypatch.setattr(solver._Slab, "hamiltonian", hamiltonian)
    with pytest.raises(ZeroDivisionError, match=f"^{where} slab failed$"):
        solve_brt(target, sys_cl, cfg, grid)
    assert len(started) == 1 and not started[0].is_alive()


def test_slab_threads_switching_often_give_the_serial_bits():
    # More threads than cores, switching often: a stage that read a halo
    # plane before its neighbour wrote it, or after its neighbour's next
    # write, would change the bits.
    grid = build_grid([-1.0] * 3, [1.0] * 3, (11, 6, 5))
    coefficients = _Coefficients(_linear_system(3, "asymmetric"), grid, False)
    dt = cfl_dt(SolverConfig(), coefficients.alpha, grid)
    seed = level_set_from_shapes(grid, ShapeSet((Ball([0.1, -0.2, 0.0], 0.5),)))
    runs = {}

    def run(slabs):
        ws = _Workspace(coefficients, slabs)
        ws.load(seed)
        with ws.threads():
            maxima = [ws.rk2_step(dt) for _ in range(60)]
        runs[slabs] = ws.values.copy(), maxima

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for slabs in (1, 4, 11):
            caller = threading.Thread(target=run, args=(slabs,))
            caller.start()
            caller.join(timeout=60)
            assert not caller.is_alive()
    finally:
        sys.setswitchinterval(interval)
    values, maxima = runs[1]
    for slabs in (4, 11):
        assert np.array_equal(bits(runs[slabs][0]), bits(values)) and runs[slabs][1] == maxima


@pytest.mark.parametrize("box", ["symmetric", "asymmetric"])
def test_solves_sharing_workspaces_equal_solves_making_their_own(box):
    # One rate scan and one buffer set serve every target in turn; the
    # asymmetric box also takes the extra buffer of its box term.
    grid = build_grid([-1, -1], [1, 1], [21, 21])
    if box == "symmetric":
        sys_cl = const_system([0.3, -0.2], upper=[0.1, 0.2])
    else:
        sys_cl = _network_system(2, 7)
    cfg = SolverConfig(horizon=0.5, snapshot_stride=3)
    shared = brt_workspaces(sys_cl, grid, 1)
    for target in (ShapeSet((Ball([0.5, 0.5], 0.2),)), ShapeSet((Ball([-0.4, 0.3], 0.25),))):
        tube = solve_brt(target, sys_cl, cfg, grid, workspaces=shared)
        own = solve_brt(target, sys_cl, cfg, grid)
        assert (tube.steps_taken, tube.max_abs_h) == (own.steps_taken, own.max_abs_h)
        assert tube.times == own.times
        for (_, field), (_, expected) in zip(tube.snapshots, own.snapshots):
            assert np.array_equal(bits(field.values), bits(expected.values))


def test_no_buffer_set_is_lent_to_two_solves_at_once(monkeypatch):
    # More threads than sets and cores, switching often: a set lent twice
    # would be seen busy by its second borrower.  Two CPUs and a per-thread
    # node count under the grid's give two lanes, so two sets.
    monkeypatch.setattr(solver, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(solver, "_THREAD_NODES", 25)
    grid = build_grid([-1, -1], [1, 1], [5, 5])
    shared = brt_workspaces(const_system([0.3, -0.2]), grid, 2)
    busy, overlaps, lends = set(), [], []

    def borrow():
        for _ in range(200):
            with shared.take() as ws:
                if id(ws) in busy:
                    overlaps.append(ws)
                busy.add(id(ws))
                lends.append(id(ws))
                time.sleep(0)
                busy.discard(id(ws))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=borrow) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert overlaps == [] and len(lends) == 8 * 200 and len(set(lends)) == 2


def test_workspaces_of_another_system_or_grid_are_refused():
    grid = build_grid([-1, -1], [1, 1], [11, 11])
    sys_cl, cfg = const_system([0.3, -0.2]), SolverConfig(horizon=0.5)
    target = ShapeSet((Ball([0.0, 0.0], 0.3),))
    shared = brt_workspaces(sys_cl, grid, 1)
    for args, kwargs in (
        ((sys_cl, cfg, build_grid([-1, -1], [1, 1], [11, 11])), {}),
        ((const_system([0.3, -0.2]), cfg, grid), {}),
        ((sys_cl, cfg, grid), {"alpha_floor": [1.0, 1.0]}),
    ):
        with pytest.raises(ValueError, match="made for another system or grid"):
            solve_brt(target, *args, workspaces=shared, **kwargs)


def test_default_step_gives_the_tubes_of_the_half_limit_step(capsule_runs):
    # Pins the step size, not the tubes' accuracy: at the default cfl_factor
    # and at 0.5 the final masks lie within one cell diagonal of each other
    # and the forward tubes give the same verdicts.
    from reachverify.dynamics import AirPlant
    from reachverify.scene import air_scene
    from reachverify.trainer import default_action_bounds
    from reachverify.verification import classify_policy

    run = capsule_runs[201]
    assert run["frt"].config.cfl_factor == SolverConfig().cfl_factor
    half = replace(run["frt"].config, cfl_factor=0.5)
    capsule = const_system([1.0, 0.0])
    start, target = ShapeSet((Ball([0.5, 0.0], 0.7),)), ShapeSet((Ball([3.5, 0.0], 0.7),))
    # The 41^3 air case whose first-order forward tube under-approximates.
    scene = air_scene((41, 41, 41))
    policy = ConstantPolicy([0.9, 0.87, 0.65], default_action_bounds("true_air"))
    sys_air = ClosedLoopSystem(AirPlant(), policy, DisturbanceBounds.zero(3))
    # (tube at the default step, the same tube at 0.5, obstacles or None)
    cases = [
        (run["brt"], solve_brt(target, capsule, half, run["grid"]), None),
        (run["frt"], solve_frt(start, capsule, half, run["grid"]), target),
        (*(solve_frt(scene.initial_set, sys_air, cfg, scene.grid)
           for cfg in (SolverConfig(), SolverConfig(cfl_factor=0.5))), scene.obstacles),
    ]
    for default, halved, obstacles in cases:
        grid = default.grid
        distance = hausdorff_between_masks(grid, default.final_mask(), halved.final_mask())
        assert distance <= np.linalg.norm(grid.spacing)
        if obstacles is not None:
            assert classify_policy(default, obstacles, grid) == classify_policy(
                halved, obstacles, grid)


# The largest |V32 - V64| the float32 kernel may show against the float64
# stepper: about twice the most measured on the cases below (1.7e-6 on the
# 41^3 air tube, 9.4e-6 and 2.3e-6 on the land-sized ones, no mask
# flipped), and thousands of times smaller than their cells (0.175-0.2 and
# 0.07-0.09 wide).
_FLOAT32_BOUND = 2e-5


def test_float32_tubes_equal_float64_tubes_away_from_the_zero_level():
    # The 41^3 air case and a land-sized learned loop in both directions,
    # against the allocating stepper in float64: every snapshot within the
    # bound, and a mask differs only at nodes within the bound of zero.
    from reachverify.dynamics import AirPlant
    from reachverify.scene import air_scene, land_scene
    from reachverify.trainer import default_action_bounds

    air, land = air_scene((41, 41, 41)), land_scene()
    policy = ConstantPolicy([0.9, 0.87, 0.65], default_action_bounds("true_air"))
    sys_air = ClosedLoopSystem(AirPlant(), policy, DisturbanceBounds.zero(3))
    sys_land = _network_system(2, 7)
    cases = [(air.initial_set, sys_air, 2.5, air.grid, True),
             (land.initial_set, sys_land, 3.0, land.grid, True),
             (land.obstacles, sys_land, 3.0, land.grid, False)]
    for seed, sys_cl, horizon, grid, forward in cases:
        cfg = SolverConfig(horizon=horizon, snapshot_stride=10)
        tube = (solve_frt if forward else solve_brt)(seed, sys_cl, cfg, grid)
        snapshots, steps, _ = reference_solve(seed, sys_cl, cfg, grid, forward)
        assert tube.steps_taken == steps and tube.times == [t for t, _ in snapshots]
        assert len(snapshots) > 2
        for (_, field), (_, v64) in zip(tube.snapshots, snapshots):
            v32 = field.values
            assert np.abs(v32 - v64).max() <= _FLOAT32_BOUND
            flipped = (v32 <= 0) != (v64 <= 0)
            assert np.all(np.abs(v64[flipped]) <= _FLOAT32_BOUND)
        assert tube.final_mask().any()


# ---------------------------------------------------------------------------
# Blocked rate scan
# ---------------------------------------------------------------------------

def _random_net(sizes, rng, meta, scale):
    return MlpModel(
        layer_sizes=tuple(sizes),
        weights=tuple(rng.normal(size=(a, b)) for a, b in zip(sizes[:-1], sizes[1:])),
        biases=tuple(rng.normal(size=b) for b in sizes[1:]),
        output_scale=np.full(sizes[-1], scale),
        meta=meta,
    )


def _network_system(dims, seed):
    """A learned plant under a network policy, so both halves of a rate go
    through the network's row blocks."""
    rng = np.random.default_rng(seed)
    meta = ModelMeta(n_state=dims, n_action=2, dt_env=0.1)
    plant = LearnedPlant(_random_net((dims + 2, 32, 32, dims), rng, meta, 0.15))
    policy = MlpPolicy(_random_net((dims, 16, 16, 2), rng, meta, 4.0),
                       ActionBounds([0.0, -np.pi], [1.0, np.pi]))
    bounds = DisturbanceBounds(rng.uniform(0.0, 0.3, dims), -rng.uniform(0.0, 0.2, dims))
    return ClosedLoopSystem(plant, policy, bounds)


@pytest.mark.parametrize("forward", [False, True], ids=["backward", "forward"])
@pytest.mark.parametrize("counts", BLOCKED_GRIDS)
def test_blocked_rate_scan_equals_whole_grid_scan(counts, forward):
    grid = blocked_grid(counts)
    sys_cl = _network_system(grid.dims, sum(counts))
    rates = nominal_rate_batch(sys_cl, grid.flat_points())
    coefficients = _Coefficients(sys_cl, grid, forward)
    # Each halved rate is rounded once, when the scan stores it.
    assert np.array_equal(bits(coefficients.half_rate),
                          bits(((-0.5 if forward else 0.5) * rates.T).astype(_DTYPE)))
    alpha = _wave_speeds(rates, sys_cl.bounds)
    assert np.array_equal(bits(coefficients.alpha), bits(alpha))
    scanned = dissipation_coefficients(sys_cl, sys_cl.bounds, grid)
    assert np.array_equal(bits(scanned), bits(alpha))


def _held_bytes(ws) -> int:
    """Bytes of the distinct arrays a workspace holds, its slabs' and its
    coefficients' included; a view counts as the array it views."""
    owners = {}
    for obj in (ws, ws.coefficients, *ws.slabs):
        for a in vars(obj).values():
            if isinstance(a, np.ndarray):
                owner = a if a.base is None else a.base
                owners[id(owner)] = owner
    return sum(a.nbytes for a in owners.values())


def test_workspace_and_seed_memory_is_bounded_by_the_workspace():
    # At 45^3 the whole-grid forms held the points, the (N, n) rates and a
    # transposed copy (4.3 MB over the workspace), then the level set's
    # point mesh and distance temporaries (8.0 MB).  Blocked, the scan adds
    # one block and the level set its value array (0.7 MB).
    grid = build_grid([-5.0] * 3, [5.0] * 3, [45] * 3)
    sys_cl = _network_system(3, 45)
    seed = ShapeSet((Ball([0.0, 0.0, 0.0], 1.0),))
    tracemalloc.start()
    try:
        ws = _Workspace(_Coefficients(sys_cl, grid, True))
        level_set_from_shapes(grid, seed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= _held_bytes(ws) + 2e6


def test_streamed_solve_memory_is_its_workspace_and_two_fields(tmp_path):
    # Through the store writer a solve holds its workspace, the snapshot
    # being written and, at the end, the final field.  Kept in memory, the
    # 16 snapshots of the default 10 s horizon peaked at 15.1 MB (11.7 MB
    # held) against 4.6 MB streamed; a shorter horizon keeps the test quick.
    from reachverify.dynamics import AirPlant
    from reachverify.scene import TubeWriter, air_scene
    from reachverify.trainer import default_action_bounds

    scene = air_scene((45, 45, 45))
    grid, seed = scene.grid, scene.initial_set
    policy = ConstantPolicy([0.9, 0.87, 0.65], default_action_bounds("true_air"))
    sys_cl = ClosedLoopSystem(AirPlant(), policy, DisturbanceBounds([0.05] * 3, [-0.05] * 3))
    workspace = _held_bytes(_Workspace(_Coefficients(sys_cl, grid, True),
                                       solver._layout(grid, 1)[1]))
    field = grid.num_nodes * 8
    tracemalloc.start()
    try:
        with TubeWriter(tmp_path / "frt", prefix="frt") as store:
            tube = solve_frt(seed, sys_cl, SolverConfig(horizon=2.5), grid, sink=store)
            store.finish(tube)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tube.snapshots) > 4
    assert [name for _, name in tube.snapshots] == [
        f"frt_{k:04d}.csv" for k in range(len(tube.snapshots))]
    assert peak <= workspace + 2 * field
    assert held < 1.1 * field


@pytest.mark.parametrize("box", ["symmetric", "asymmetric"])
def test_split_buffer_set_holds_one_largest_stride_more_per_slab(box):
    # Each slab's scratch buffers cover its own nodes; only the difference
    # buffer's zero tail of the largest stride is paid once per slab.
    grid = build_grid([-1.0] * 3, [1.0] * 3, (11, 9, 7))
    upper = [0.1, 0.2, 0.3]
    if box == "symmetric":
        sys_cl = const_system([0.3, -0.2, 0.1], upper=upper)
    else:
        sys_cl = _linear_system(3, "asymmetric")
    coefficients = _Coefficients(sys_cl, grid, False)
    unsplit = _held_bytes(_Workspace(coefficients))
    stride = max(coefficients.strides)
    for slabs in range(2, grid.counts[0] + 1):
        split = _Workspace(coefficients, slabs)
        assert len(split.slabs) == slabs
        assert _held_bytes(split) <= unsplit + (slabs - 1) * stride * _DTYPE().itemsize, slabs
