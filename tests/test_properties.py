"""Property tests of the tube solver, drawn by hypothesis on small grids."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LinearPlant, reference_solve
from reachverify.dynamics import ActionBounds, ClosedLoopSystem, ConstantPolicy
from reachverify.error_bounds import DisturbanceBounds
from reachverify.geometry import Ball, ShapeSet, build_grid
from reachverify.solver import SolverConfig, cfl_dt, dissipation_coefficients, solve_brt, solve_frt

_MAX_COUNT = {2: 15, 3: 9}


def _vector(dims, elements):
    return st.lists(elements, min_size=dims, max_size=dims).map(np.array)


@st.composite
def boxes(draw, dims):
    """A disturbance box that is symmetric, asymmetric, or asymmetric with
    some one-sided or zero components."""
    kind = draw(st.sampled_from(("symmetric", "asymmetric", "zeros")))
    upper = draw(_vector(dims, st.floats(0.0, 0.5)))
    lower = -upper if kind == "symmetric" else -draw(_vector(dims, st.floats(0.0, 0.5)))
    if kind == "zeros":
        upper[draw(_vector(dims, st.booleans()))] = 0.0
        lower[draw(_vector(dims, st.booleans()))] = 0.0
    return DisturbanceBounds(upper=upper, lower=lower)


@st.composite
def solves(draw):
    """A grid, a linear closed loop with a box, a ball seed inside the grid,
    a direction and a config that takes two or three steps."""
    dims = draw(st.sampled_from((2, 3)))
    counts = draw(st.lists(st.integers(3, _MAX_COUNT[dims]), min_size=dims, max_size=dims))
    lo = draw(_vector(dims, st.floats(-2.0, -0.5)))
    hi = draw(_vector(dims, st.floats(0.5, 2.0)))
    grid = build_grid(lo, hi, counts)
    A = draw(st.lists(_vector(dims, st.floats(-2.0, 2.0)), min_size=dims, max_size=dims))
    policy = ConstantPolicy([0.0], ActionBounds([0.0], [0.0]))
    sys_cl = ClosedLoopSystem(LinearPlant(np.array(A)), policy, draw(boxes(dims)))
    seed = ShapeSet((Ball(draw(_vector(dims, st.floats(-0.1, 0.1))), draw(st.floats(0.1, 0.4))),))
    # A horizon of 1.5 to 3 nominal steps; with no wave speed at all the
    # step is a hundredth of any horizon, so keep that one short.
    alpha = dissipation_coefficients(sys_cl, sys_cl.bounds, grid)
    steps = draw(st.floats(1.5, 3.0))
    horizon = steps * cfl_dt(SolverConfig(), alpha, grid) if alpha.any() else 0.1
    config = SolverConfig(horizon=horizon, snapshot_stride=1, convergence_eps=0.0)
    return seed, sys_cl, config, grid, draw(st.booleans())


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(solves())
def test_solve_bitwise_equals_allocating_stepper_on_random_systems(case):
    seed, sys_cl, config, grid, forward = case
    tube = (solve_frt if forward else solve_brt)(seed, sys_cl, config, grid)
    snapshots, steps, max_h, converged = reference_solve(seed, sys_cl, config, grid, forward)

    assert (tube.steps_taken, tube.max_abs_h, tube.converged_early) == (steps, max_h, converged)
    assert tube.times == [t for t, _ in snapshots]
    for (_, field), (_, expected) in zip(tube.snapshots, snapshots):
        assert np.array_equal(field.values.view(np.int64), expected.view(np.int64))


@st.composite
def nested_seeds(draw):
    """A :func:`solves` case plus a larger seed: the original ball and a
    second ball anywhere inside the grid."""
    seed, sys_cl, config, grid, _ = draw(solves())
    # The grid holds [-0.5, 0.5] on every axis, so a centre at least 0.5
    # inside its faces keeps a ball of radius up to 0.4 inside it.
    frac = draw(_vector(grid.dims, st.floats(0.0, 1.0)))
    extra = Ball(grid.lo + 0.5 + frac * (grid.hi - grid.lo - 1.0), draw(st.floats(0.1, 0.4)))
    return seed, ShapeSet((*seed.primitives, extra)), sys_cl, config, grid


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(nested_seeds())
def test_larger_seed_gives_pointwise_smaller_tubes(case):
    # Comparison principle: seed A inside seed B means V_B(0) <= V_A(0),
    # and the monotone scheme keeps V_B(t) <= V_A(t) at every node and
    # snapshot, so tube A lies inside tube B.
    seed_a, seed_b, sys_cl, config, grid = case
    for solve in (solve_frt, solve_brt):
        tube_a = solve(seed_a, sys_cl, config, grid)
        tube_b = solve(seed_b, sys_cl, config, grid)
        assert tube_a.times == tube_b.times
        for (_, field_a), (_, field_b) in zip(tube_a.snapshots, tube_b.snapshots):
            assert np.all(field_b.values <= field_a.values)
