import math
import tracemalloc

import numpy as np
import pytest

from conftest import (
    BLOCKED_GRIDS,
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
    AxisBox,
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
    _wave_speeds,
    _Workspace,
    brt_workspace,
    solve_brt,
    solve_frt,
    time_step,
)
from reference import (
    analytic_hamiltonian,
    corner_extremum,
    departure_points,
    double_integrator_brt,
    optimal_disturbance,
    reference_solve,
    step_count,
    upwind_gradients,
    wave_speeds,
)


def step(field, sys_cl, dt):
    """One backward step of length ``dt`` of ``field`` on a fresh workspace
    over the horizon ``dt``; the time tag moves by ``-dt``.  Raises on a
    step that would move a node by more than one cell."""
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    ws = _Workspace(sys_cl, field.grid, dt, False)
    if ws.steps != 1:
        raise ValueError(f"dt={dt} moves a node by more than one cell")
    ws.load(field)
    ws.step()
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


def test_wave_speeds():
    # Per axis the larger of the fastest rate and the box's widest face.
    grid = build_grid([0, 0], [1, 1], [5, 5])
    assert np.allclose(wave_speeds(const_system([1.0, -2.0], upper=[0.1, 0.1]), grid),
                       [1.0, 2.0])
    assert np.allclose(wave_speeds(const_system([0.05, -2.0], upper=[0.1, 0.1]), grid),
                       [0.1, 2.0])
    assert np.allclose(wave_speeds(const_system([0.0, 0.0]), grid), 0.0)


def test_wave_speeds_dominate_learned_rates_everywhere():
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
    speeds = _wave_speeds(sys_cl, grid)
    rates = nominal_rate_batch(sys_cl, grid.flat_points())
    assert np.all(speeds >= np.abs(rates)) and np.all(speeds >= sys_cl.bounds.upper)
    assert np.array_equal(speeds, wave_speeds(sys_cl, grid))


# Linear fields V = c . x + 0.25 on grids with two nodes clear of each
# edge along every axis.
_LINEAR_CASES = [
    ([-1.0, -2.0], [2.0, 1.0], (9, 7), [[0.3, -1.1], [0.8, -0.2]], [0.7, -1.3]),
    ([-1.0, -1.0, 0.0], [1.0, 2.0, 1.5], (7, 8, 6),
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
    # On a linear field the box filter and the interpolation are exact, so
    # a step of half a cell moves V by dt min(0, H): H = p . f(mid) + the
    # box minimum of p . d, with f(mid) the rate at the departure's
    # midpoint.  A forward step follows the reversed flow with the
    # reflected box.
    grid, sys_cl, c, V = _linear_case(case, box)
    speeds = wave_speeds(sys_cl, grid)
    ws = _Workspace(sys_cl, grid, 0.5 / np.max(speeds / grid.spacing), forward)
    assert ws.steps == 1
    ws.values[:] = V.ravel()
    start = ws.values.astype(float).reshape(grid.counts)
    ws.step()
    moved = departure_points(sys_cl, grid, ws.dt, forward) - grid.flat_points()
    b = sys_cl.bounds
    if forward:
        b = DisturbanceBounds(upper=-b.lower, lower=-b.upper)
    h = (moved @ c).reshape(grid.counts) / ws.dt + corner_extremum(c, b, "reach_unsafe")[0]
    interior = (slice(2, -2),) * grid.dims
    change = ws.values.reshape(grid.counts) - start
    # Measured up to 1.0 ulps of the field.
    tol = 4 * np.spacing(_DTYPE(np.abs(V).max()))
    assert np.max(np.abs(change - ws.dt * np.minimum(0.0, h))[interior]) <= tol
    assert (h < 0)[interior].any()


@pytest.mark.parametrize("case", _LINEAR_CASES, ids=["2d", "3d"])
def test_differences_are_exact_and_zero_at_the_copy_ghosts(case):
    # The box filter along one axis at a time: each node's interpolant
    # toward its neighbour up and down the axis adds f times their exact
    # difference, and the first and last node along the axis are their own
    # neighbours (copy ghosts), whose difference is zero.  On a linear field
    # the filter is then V + min(0, f_up c h, -f_down c h) off the edges,
    # and at an edge it takes only the side inside the grid.
    grid, _, c, V = _linear_case(case, "asymmetric")
    for axis in range(grid.dims):
        upper, lower = np.zeros(grid.dims), np.zeros(grid.dims)
        upper[axis], lower[axis] = 0.3, -0.2
        policy = ConstantPolicy([0.0], ActionBounds([0.0], [0.0]))
        sys_cl = ClosedLoopSystem(LinearPlant(np.zeros((grid.dims, grid.dims))), policy,
                                  DisturbanceBounds(upper, lower))
        ws = _Workspace(sys_cl, grid, 0.9 * grid.spacing[axis] / 0.3, False)
        assert ws.steps == 1 and [any(r) for r in ws.reach].count(True) == 1
        ws.values[:] = V.ravel()
        start = np.moveaxis(ws.values.astype(float).reshape(grid.counts), axis, 0)
        filtered = np.moveaxis(ws._filter().astype(float).reshape(grid.counts), axis, 0)
        up, down = (float(f) * c[axis] * grid.spacing[axis] for f in ws.reach[axis])
        tol = 2 * np.spacing(_DTYPE(np.abs(V).max()))
        assert np.max(np.abs(filtered - start - min(0.0, up, -down))[1:-1]) <= tol
        assert np.max(np.abs(filtered[0] - start[0] - min(0.0, up))) <= tol
        assert np.max(np.abs(filtered[-1] - start[-1] - min(0.0, -down))) <= tol


def test_cfl_dt_formula():
    # The step is the Courant (CFL) number one step of the fastest axis:
    # dt * max_i s_i / h_i <= 1, with as few equal steps as that allows.
    grid = build_grid([0, 0], [1, 1], [11, 11])
    fine = build_grid([0, 0], [1, 1], [21, 21])
    # 5 s at speed 1 over cells of 0.1 and 0.05: 50 and 100 one-cell steps.
    assert time_step(5.0, [1.0, 0.5], grid) == (pytest.approx(0.1), 50)
    assert time_step(5.0, [1.0, 0.5], fine) == (pytest.approx(0.05), 100)
    # The fastest axis in cells a second sets the step, and a part cell
    # takes a whole step.
    assert time_step(1.05, [0.1, 2.0], grid) == (pytest.approx(1.05 / 21), 21)
    # Nothing moves: one step spans the horizon.
    assert time_step(5.0, [0.0, 0.0], grid) == (5.0, 1)
    with pytest.raises(ValueError, match="unreasonable number of steps"):
        time_step(1e6, [1.0, 1.0], grid)



def test_step_identity_when_hamiltonian_nonnegative():
    grid = build_grid([0], [1], [11])
    x = grid.axis_coords(0)
    field = ScalarField(grid, x.copy())
    sys_cl = const_system([1.0])
    out = step(field, sys_cl, 0.01)
    assert np.array_equal(out.values, field.values.astype(_DTYPE))
    assert out.time_tag == pytest.approx(-0.01)


def test_step_zero_dt_is_identity():
    grid = build_grid([0, 0], [1, 1], [9, 9])
    rng = np.random.default_rng(3)
    field = ScalarField(grid, rng.normal(size=grid.counts))
    sys_cl = const_system([0.3, -0.2])
    out = step(field, sys_cl, 0.0)
    assert np.array_equal(out.values, field.values.astype(_DTYPE))


def test_step_rejects_cfl_violation():
    # A horizon of two cells at the fastest speed takes two steps, so no
    # step moves a node by more than its CFL limit of one cell.
    grid = build_grid([0, 0], [1, 1], [11, 11])
    field = ScalarField(grid, np.zeros(grid.counts))
    sys_cl = const_system([1.0, 1.0])
    limit = time_step(1.0, [1.0, 1.0], grid)[0]
    assert step(field, sys_cl, limit).time_tag == pytest.approx(-0.1)
    with pytest.raises(ValueError, match="more than one cell"):
        step(field, sys_cl, 2 * limit)


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
    big = const_system([0.5, 0.1], upper=[0.1, 0.12])
    floor = wave_speeds(big, grid)
    cfg = SolverConfig(horizon=1.5)
    t_small = solve_brt(target, small, cfg, grid, alpha_floor=floor)
    t_big = solve_brt(target, big, cfg, grid, alpha_floor=floor)
    assert np.all(t_small.final_mask() <= t_big.final_mask())
    assert np.any(t_big.final_mask() & ~t_small.final_mask())


def _double_integrator_tube(counts):
    """The final BRT mask of x' = v, v' = d, |d| <= 1, to |x| <= 0.5 over
    1.5 s on [-6, 6] x [-4, 4], the last two axes, and every node's x and
    v.  A leading axis, on [-1, 1], is idle: its rate and its disturbance
    are zero, and the target spans it."""
    r, d_max, horizon = 0.5, 1.0, 1.5
    idle = len(counts) - 2
    grid = build_grid([-1.0] * idle + [-6.0, -4.0], [1.0] * idle + [6.0, 4.0], counts)
    A = np.zeros((grid.dims, grid.dims))
    A[-2, -1] = 1.0
    upper = np.zeros(grid.dims)
    upper[-1] = d_max
    policy = ConstantPolicy([0.0], ActionBounds([0.0], [0.0]))
    sys_cl = ClosedLoopSystem(LinearPlant(A), policy, DisturbanceBounds(upper, -upper))
    target = AxisBox(np.zeros(grid.dims), [1.0] * idle + [r, 4.0])
    tube = solve_brt(ShapeSet((target,)), sys_cl,
                     SolverConfig(horizon=horizon, snapshot_stride=10**6), grid)
    points = grid.node_points()
    return tube.final_mask(), points[..., -2], points[..., -1]


def _double_integrator_offsets(inside, x, v, cells=2):
    """On one (x, v) plane of a :func:`_double_integrator_tube`, against the
    exact tube on the window |v| <= 1, |x| <= 4, clear of the grid edges
    and of the target's v limits: ``(exact nodes missed whose x +- cells h
    neighbours are exact too, grid nodes outside the exact tube, largest
    x-distance from a missed exact node to the grid tube at its v)``."""
    r, d_max, horizon = 0.5, 1.0, 1.5
    h = x[1, 0] - x[0, 0]
    window = (np.abs(v) <= 1.0) & (np.abs(x) <= 4.0)
    exact = double_integrator_brt(x, v, r, d_max, horizon)
    deep = (exact & double_integrator_brt(x - cells * h, v, r, d_max, horizon)
            & double_integrator_brt(x + cells * h, v, r, d_max, horizon))
    worst = 0.0
    for j in range(x.shape[1]):
        missed = x[window[:, j] & exact[:, j] & ~inside[:, j], j]
        if missed.size:
            gaps = np.abs(missed[:, None] - x[inside[:, j], j][None, :]).min(axis=1)
            worst = max(worst, float(gaps.max()))
    return (int(np.sum(window & deep & ~inside)), int(np.sum(window & inside & ~exact)), worst)


def test_double_integrator_brt_against_the_exact_game():
    """The disturbance is the only input: the grid BRT must follow the
    exact tube's slanted edges, on its unsafe side.  No exact node whose
    x +- h neighbours are exact too may be missed, and no grid node may lie
    outside the exact tube; a missed node lies within a cell of the grid
    tube, and the worst such offset does not grow with the grid."""
    coarse = _double_integrator_offsets(*_double_integrator_tube((121, 121)), cells=1)
    fine = _double_integrator_offsets(*_double_integrator_tube((241, 241)), cells=1)
    for missed, extra, _ in (coarse, fine):
        assert missed == 0
        assert extra == 0
    assert fine[2] <= coarse[2] <= 12.0 / 120 + 1e-9


@pytest.fixture(scope="module")
def double_integrator_planes():
    """Per (x, v) plane of the 3-D tube on (5, n, n) grids, n = 121 and
    241: the deep exact nodes missed and the extra nodes."""
    planes = {}
    for n in (121, 241):
        inside, x, v = _double_integrator_tube((5, n, n))
        planes[n] = [_double_integrator_offsets(inside[k], x[k], v[k])[:2] for k in range(5)]
    return planes


def test_double_integrator_brt_3d_interior_planes_against_the_exact_game(
        double_integrator_planes):
    # An idle axis must not change the 2-D result on the planes where the
    # target's core lies inside the grid.
    for n, planes in double_integrator_planes.items():
        assert planes[1:-1] == [(0, 0)] * 3, n


@pytest.mark.xfail(strict=True, reason="on the idle axis's boundary planes the target's face "
                   "lies on the grid edge, so the seed reads exactly 0 across its core and "
                   "the tube does not grow from it")
def test_double_integrator_brt_3d_boundary_planes_against_the_exact_game(
        double_integrator_planes):
    for n, planes in double_integrator_planes.items():
        assert [planes[0], planes[-1]] == [(0, 0)] * 2, n


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
    horizon = 9_999.5 / np.max(wave_speeds(sys_cl, grid) / grid.spacing)
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
    out = step(field, sys_cl, dt)
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
    assert tube.steps_taken == step_count(0.5, [0.5, 0.0], grid) == 3


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(horizon=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(horizon=float("inf"))
    with pytest.raises(TypeError):
        SolverConfig(horizon=1.0, cfl_factor=0.7)  # the step has no knob
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


# (dims, stride, box, cells): the filter skips the zero box and an axis a
# one-sided box leaves as it is in one direction; ``cells`` is the step's
# length in cells at the fastest speed, below one where ``alpha_floor``
# raises the speeds the step is sized by.
_SOLVE_CASES = [
    (1, 1, "asymmetric", 1), (2, 3, "asymmetric", 1),
    (3, 1, "asymmetric", 1), (4, 3, "asymmetric", 1),
    (2, 3, "symmetric", 1), (3, 1, "symmetric", 1),
    (2, 3, "zero", 1), (3, 1, "zero", 1),
    (2, 3, "asymmetric", 0.7),
]


def _solve_case_id(case):
    dims, stride, box, cells = case
    parts = [dims, stride] + ([] if box == "asymmetric" else [box])
    return "-".join(map(str, parts + ([] if cells == 1 else [f"cfl{cells}"])))


@pytest.mark.parametrize("forward", [False, True], ids=["backward", "forward"])
@pytest.mark.parametrize("dims,stride,box,cells", _SOLVE_CASES,
                         ids=map(_solve_case_id, _SOLVE_CASES))
def test_solve_bitwise_equals_allocating_stepper(forward, dims, stride, box, cells):
    lo, hi, counts = _GRIDS[dims]
    grid = _grid(lo, hi, counts)
    sys_cl = _linear_system(dims, box)
    seed = ShapeSet((Ball(0.5 * (grid.lo + grid.hi) - 0.05, 0.3),))
    speeds = wave_speeds(sys_cl, grid)
    floor = None if cells == 1 else speeds / cells
    # Six and a half cells at the fastest speed: seven steps of one cell,
    # ten of 0.7.
    horizon = 6.5 / np.max(speeds / grid.spacing)
    cfg = SolverConfig(horizon=horizon, snapshot_stride=stride)
    solve = solve_frt if forward else solve_brt
    tube = solve(seed, sys_cl, cfg, grid, alpha_floor=floor)
    snapshots, steps = reference_solve(seed, sys_cl, cfg, grid, forward, _DTYPE, floor)

    assert tube.steps_taken == steps == math.ceil(6.5 / cells)
    assert tube.times == [t for t, _ in snapshots]
    for (_, field), (_, expected) in zip(tube.snapshots, snapshots):
        assert np.array_equal(bits(field.values), bits(expected))


def test_nonfinite_value_mid_solve_names_the_step(monkeypatch):
    # A NaN value at one node before step 4 makes that step's values NaN.
    class PoisonedWorkspace(solver._Workspace):
        def step(self):
            self.taken = getattr(self, "taken", 0) + 1
            if self.taken == 5:
                self.values[7] = np.nan
            return super().step()

    monkeypatch.setattr(solver, "_Workspace", PoisonedWorkspace)
    grid = build_grid([-1, -1], [1, 1], [11, 11])
    with pytest.raises(RuntimeError, match="non-finite values at step 4$"):
        solve_brt(ShapeSet((Ball([0.0, 0.0], 0.4),)), const_system([0.3, -0.2]),
                  SolverConfig(horizon=4.0, snapshot_stride=2), grid)


@pytest.mark.parametrize("box", ["symmetric", "asymmetric"])
def test_solves_sharing_workspaces_equal_solves_making_their_own(box):
    # One departure map and one buffer set serve every target in turn; the
    # asymmetric box filters each direction with its own reach.
    grid = build_grid([-1, -1], [1, 1], [21, 21])
    if box == "symmetric":
        sys_cl = const_system([0.3, -0.2], upper=[0.1, 0.2])
    else:
        sys_cl = _network_system(2, 7)
    cfg = SolverConfig(horizon=1.5, snapshot_stride=3)
    shared = brt_workspace(sys_cl, grid, cfg)
    for target in (ShapeSet((Ball([0.5, 0.5], 0.2),)), ShapeSet((Ball([-0.4, 0.3], 0.25),))):
        tube = solve_brt(target, sys_cl, cfg, grid, workspace=shared)
        own = solve_brt(target, sys_cl, cfg, grid)
        assert tube.steps_taken == own.steps_taken > 3
        assert tube.times == own.times
        for (_, field), (_, expected) in zip(tube.snapshots, own.snapshots):
            assert np.array_equal(bits(field.values), bits(expected.values))


def test_workspaces_of_another_system_or_grid_are_refused():
    grid = build_grid([-1, -1], [1, 1], [11, 11])
    sys_cl, cfg = const_system([0.3, -0.2]), SolverConfig(horizon=0.5)
    target = ShapeSet((Ball([0.0, 0.0], 0.3),))
    shared = brt_workspace(sys_cl, grid, cfg)
    for args, kwargs in (
        ((sys_cl, cfg, build_grid([-1, -1], [1, 1], [11, 11])), {}),
        ((const_system([0.3, -0.2]), cfg, grid), {}),
        ((sys_cl, SolverConfig(horizon=0.6), grid), {}),
        ((sys_cl, cfg, grid), {"alpha_floor": [1.0, 1.0]}),
    ):
        with pytest.raises(ValueError, match="made for another system, grid or horizon"):
            solve_brt(target, *args, workspace=shared, **kwargs)


# The largest |V32 - V64| the float32 kernel may show against the float64
# stepper: about twice the most measured on the cases below (3.0e-6 on the
# 41^3 air tube, 8.7e-6 and 2.9e-6 on the land-sized ones, no mask
# flipped), and thousands of times smaller than their cells (0.175-0.2 and
# 0.07-0.09 wide).
_FLOAT32_BOUND = 2e-5


def test_float32_tubes_equal_float64_tubes_away_from_the_zero_level():
    # The 41^3 air case and a land-sized learned loop in both directions,
    # against the allocating stepper in float64: every snapshot within the
    # bound, and a mask differs only at nodes within the bound of zero.
    from reachverify.dynamics import AirPlant
    from reachverify.scene import air_scene, land_scene
    from reachverify.trainer import environment

    air, land = air_scene((41, 41, 41)), land_scene()
    policy = ConstantPolicy([0.9, 0.87, 0.65], environment("true_air").action_bounds)
    sys_air = ClosedLoopSystem(AirPlant(), policy, DisturbanceBounds.zero(3))
    sys_land = _network_system(2, 7)
    cases = [(air.initial_set, sys_air, 2.5, air.grid, True),
             (land.initial_set, sys_land, 3.0, land.grid, True),
             (land.obstacles, sys_land, 3.0, land.grid, False)]
    for seed, sys_cl, horizon, grid, forward in cases:
        cfg = SolverConfig(horizon=horizon, snapshot_stride=2)
        tube = (solve_frt if forward else solve_brt)(seed, sys_cl, cfg, grid)
        snapshots, steps = reference_solve(seed, sys_cl, cfg, grid, forward, np.float64)
        assert tube.steps_taken == steps and tube.times == [t for t, _ in snapshots]
        assert len(snapshots) > 2
        for (_, field), (_, v64) in zip(tube.snapshots, snapshots):
            v32 = field.values
            assert np.abs(v32 - v64).max() <= _FLOAT32_BOUND
            flipped = (v32 <= 0) != (v64 <= 0)
            assert np.all(np.abs(v64[flipped]) <= _FLOAT32_BOUND)
        assert tube.final_mask().any()


def test_constant_flow_forward_tube_holds_its_rollouts():
    # The air plant under a constant action turns the start box along a
    # curved path across the grid's axes.  At least 95% of the states of
    # RK4 rollouts from the start set must lie within one cell diagonal of
    # the final forward tube: measured 99.9%.
    from scipy.spatial import cKDTree

    from reachverify.dynamics import AirPlant
    from reachverify.oracle import _rk4_batch, sample_in_shapes
    from reachverify.trainer import environment

    scene = air_scene((41, 41, 41))
    policy = ConstantPolicy([0.9, 0.87, 0.65], environment("true_air").action_bounds)
    sys_air = ClosedLoopSystem(AirPlant(), policy, DisturbanceBounds.zero(3))
    tube = solve_frt(scene.initial_set, sys_air, SolverConfig(horizon=10.0), scene.grid)
    states = [sample_in_shapes(scene.initial_set, 200, np.random.default_rng(0))]
    for _ in range(100):  # 10 s at 0.1
        states.append(_rk4_batch(sys_air, states[-1], np.zeros_like(states[-1]), 0.1))
    inside = scene.grid.flat_points()[tube.final_mask().ravel()]
    distance = cKDTree(inside).query(np.concatenate(states))[0]
    assert np.mean(distance <= np.linalg.norm(scene.grid.spacing)) >= 0.95


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
    # The blocked scans give the whole-grid wave speeds and departure
    # points bit for bit: each node's cell and its offsets, rounded once
    # when the map stores them.
    from reachverify.geometry import cell_coordinates

    grid = blocked_grid(counts)
    sys_cl = _network_system(grid.dims, sum(counts))
    speeds = wave_speeds(sys_cl, grid)
    assert np.array_equal(bits(_wave_speeds(sys_cl, grid)), bits(speeds))
    ws = _Workspace(sys_cl, grid, 1.5 / np.max(speeds / grid.spacing), forward)
    assert ws.steps == 2
    cell, frac = cell_coordinates(grid, departure_points(sys_cl, grid, ws.dt, forward))
    assert np.array_equal(ws.base, np.ravel_multi_index(cell.T, grid.counts))
    assert np.array_equal(bits(ws.offsets), bits(frac.T.astype(_DTYPE)))
    assert np.array_equal(bits(ws.complements), bits(1 - frac.T.astype(_DTYPE)))
    assert np.all((ws.offsets >= 0) & (ws.offsets <= 1))


def _held_bytes(ws) -> int:
    """Bytes of the distinct arrays a workspace holds; a view counts as the
    array it views."""
    owners = {}
    for a in [*vars(ws).values(), *ws._scratch]:
        if isinstance(a, np.ndarray):
            owner = a if a.base is None else a.base
            owners[id(owner)] = owner
    return sum(a.nbytes for a in owners.values())


def test_workspace_and_seed_memory_is_bounded_by_the_workspace():
    # At 45^3 the scans add one block of network temporaries, the node
    # rates wait in the offsets' buffer, and the level set adds its value
    # array: measured 1.3 MB over the 5.1 MB workspace.
    grid = build_grid([-5.0] * 3, [5.0] * 3, [45] * 3)
    sys_cl = _network_system(3, 45)
    seed = ShapeSet((Ball([0.0, 0.0, 0.0], 1.0),))
    tracemalloc.start()
    try:
        ws = _Workspace(sys_cl, grid, 10.0, True)
        level_set_from_shapes(grid, seed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= _held_bytes(ws) + 2e6


def test_streamed_solve_memory_is_its_workspace_and_two_fields(tmp_path):
    # Through the store writer a solve holds its workspace, the snapshot
    # being written and, at the end, the final field.  Kept in memory, the
    # 5 snapshots of the default 10 s horizon and stride peaked at 8.8 MB
    # against 6.4 MB streamed; a shorter horizon keeps the test quick.
    from reachverify.dynamics import AirPlant
    from reachverify.scene import TubeWriter, air_scene
    from reachverify.trainer import environment

    scene = air_scene((45, 45, 45))
    grid, seed = scene.grid, scene.initial_set
    policy = ConstantPolicy([0.9, 0.87, 0.65], environment("true_air").action_bounds)
    sys_cl = ClosedLoopSystem(AirPlant(), policy, DisturbanceBounds([0.05] * 3, [-0.05] * 3))
    workspace = _held_bytes(_Workspace(sys_cl, grid, 2.5, True))
    field = grid.num_nodes * 8
    tracemalloc.start()
    try:
        with TubeWriter(tmp_path / "frt", prefix="frt") as store:
            tube = solve_frt(seed, sys_cl, SolverConfig(horizon=2.5, snapshot_stride=2), grid,
                             sink=store)
            store.finish(tube)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tube.snapshots) > 4
    assert [name for _, name in tube.snapshots] == [
        f"frt_{k:04d}.csv" for k in range(len(tube.snapshots))]
    assert peak <= workspace + 2 * field
    assert held < 1.1 * field


def test_zero_box_brt_of_the_learned_land_loop_against_its_monte_carlo(land_run):
    # With no disturbance the backward tubes of the obstacles must call
    # safe almost no start that a rollout of the same learned loop sees hit
    # an obstacle.  Measured 0.009 of the 1000 starts, and no MC-safe start
    # called unsafe.
    from reachverify.geometry import interpolate_many
    from reachverify.oracle import mc_ground_truth
    from reachverify.verification import union_brt_field

    scene, result, _ = land_run
    sys_cl = ClosedLoopSystem(LearnedPlant(result.model), result.policy,
                              DisturbanceBounds.zero(2))
    cfg = SolverConfig(horizon=10.0, snapshot_stride=10**6)
    workspace = brt_workspace(sys_cl, scene.grid, cfg)
    union = union_brt_field([
        solve_brt(ShapeSet((prim,)), sys_cl, cfg, scene.grid, workspace=workspace).final
        for prim in scene.obstacles.primitives])
    mc = mc_ground_truth(sys_cl, scene.initial_set, scene.obstacles, horizon=10.0, dt=0.1,
                         num_samples=1000, num_disturbance_draws=0, seed=0)
    called_safe = interpolate_many(union, mc.samples) > 0.0
    assert np.mean(called_safe & ~mc.safe) <= 0.03
    assert (~mc.safe).any() and called_safe.any()
