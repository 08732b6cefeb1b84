"""Property tests of the tube solver, drawn by hypothesis on small grids."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LinearPlant, bits
from reachverify.dynamics import ActionBounds, ClosedLoopSystem, ConstantPolicy
from reachverify.error_bounds import DisturbanceBounds
from reachverify.geometry import Ball, ShapeSet, build_grid
from reachverify.solver import _DTYPE, SolverConfig, _Workspace, solve_brt, solve_frt
from reference import reference_solve, wave_speeds

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
def systems(draw):
    """A small 2-D or 3-D grid and a linear closed loop with a box on it."""
    dims = draw(st.sampled_from((2, 3)))
    counts = draw(st.lists(st.integers(3, _MAX_COUNT[dims]), min_size=dims, max_size=dims))
    lo = draw(_vector(dims, st.floats(-2.0, -0.5)))
    hi = draw(_vector(dims, st.floats(0.5, 2.0)))
    grid = build_grid(lo, hi, counts)
    A = draw(st.lists(_vector(dims, st.floats(-2.0, 2.0)), min_size=dims, max_size=dims))
    policy = ConstantPolicy([0.0], ActionBounds([0.0], [0.0]))
    return ClosedLoopSystem(LinearPlant(np.array(A)), policy, draw(boxes(dims))), grid


def _config(draw, speeds, grid):
    # A horizon of 1.5 to 3 one-cell steps at these wave speeds; with wave
    # speeds too small for that to be a finite horizon, or none at all, one
    # step spans any horizon.
    steps = draw(st.floats(1.5, 3.0))
    courant = float(np.max(speeds / grid.spacing))
    return SolverConfig(horizon=steps / courant if courant > 1e-6 else 0.1, snapshot_stride=1)


@st.composite
def solves(draw):
    """A :func:`systems` case, a ball seed inside the grid, a direction and
    a config that takes two or three steps."""
    sys_cl, grid = draw(systems())
    dims = grid.dims
    seed = ShapeSet((Ball(draw(_vector(dims, st.floats(-0.1, 0.1))), draw(st.floats(0.1, 0.4))),))
    config = _config(draw, wave_speeds(sys_cl, grid), grid)
    return seed, sys_cl, config, grid, draw(st.booleans())


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(solves())
def test_solve_bitwise_equals_allocating_stepper_on_random_systems(case):
    seed, sys_cl, config, grid, forward = case
    tube = (solve_frt if forward else solve_brt)(seed, sys_cl, config, grid)
    snapshots, steps = reference_solve(seed, sys_cl, config, grid, forward, _DTYPE)

    assert tube.steps_taken == steps
    assert tube.times == [t for t, _ in snapshots]
    assert tube.times[-1] == pytest.approx((1 if forward else -1) * config.horizon)
    for (_, field), (_, expected) in zip(tube.snapshots, snapshots):
        assert np.array_equal(bits(field.values), bits(expected))
    masks = [mask for _, mask in tube.masks()]
    assert all(np.all(inner <= outer) for inner, outer in zip(masks, masks[1:]))


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
    # and the step is monotone in every value, its rounding included, so
    # V_B(t) <= V_A(t) holds exactly at every node and snapshot, and tube
    # A lies inside tube B.
    seed_a, seed_b, sys_cl, config, grid = case
    for solve in (solve_frt, solve_brt):
        tube_a = solve(seed_a, sys_cl, config, grid)
        tube_b = solve(seed_b, sys_cl, config, grid)
        assert tube_a.times == tube_b.times
        for (_, field_a), (_, field_b) in zip(tube_a.snapshots, tube_b.snapshots):
            assert np.all(field_b.values <= field_a.values)


@st.composite
def nested_boxes(draw):
    """A :func:`solves` case, the same system on a box that contains its
    box, the larger box's wave speeds as the floor both solves share, and a
    config that takes two or three steps at that floor."""
    seed, sys_cl, _, grid, forward = draw(solves())
    grow_up = draw(_vector(grid.dims, st.floats(0.0, 0.3)))
    # Growing both faces alike keeps a symmetric box symmetric.
    grow_down = grow_up if draw(st.booleans()) else draw(_vector(grid.dims, st.floats(0.0, 0.3)))
    b = sys_cl.bounds
    big = replace(sys_cl, bounds=DisturbanceBounds(upper=b.upper + grow_up,
                                                   lower=b.lower - grow_down))
    floor = wave_speeds(big, grid)
    return seed, sys_cl, big, floor, _config(draw, floor, grid), grid, forward


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(nested_boxes())
def test_larger_box_gives_pointwise_smaller_tubes(case):
    # Criterion 4 beyond its land pairs: on one shared step a larger box
    # widens every min filter, so the larger box's final values never
    # exceed the smaller box's.  Without the shared floor a box that
    # outruns the flow shortens the step, and tubes of two step sizes are
    # not ordered.  The filter's weights differ between the boxes, so the
    # slack is a few ulps of the kernel's dtype on the largest value either
    # solve holds.
    seed, small, big, floor, config, grid, forward = case
    solve = solve_frt if forward else solve_brt
    tube_small = solve(seed, small, config, grid, alpha_floor=floor)
    tube_big = solve(seed, big, config, grid, alpha_floor=floor)
    assert tube_small.steps_taken == tube_big.steps_taken
    largest = max(np.abs(field.values).max()
                  for tube in (tube_small, tube_big) for _, field in tube.snapshots)
    slack = 4 * np.spacing(_DTYPE(largest))
    assert np.all(tube_big.final.values <= tube_small.final.values + slack)


@st.composite
def raised_nodes(draw):
    """A :func:`systems` case, a direction, random node values, one node
    and the amount it is raised by."""
    sys_cl, grid = draw(systems())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(-1.0, 1.0, grid.num_nodes)
    node = draw(st.integers(0, grid.num_nodes - 1))
    return sys_cl, grid, draw(st.booleans()), values, node, draw(st.floats(0.01, 1.0))


def _stepped(ws, values):
    ws.values[:] = values
    ws.step()
    return ws.values.copy()


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(raised_nodes())
def test_step_is_monotone(case):
    # Every interpolation is a sum of values times non-negative weights,
    # and rounding a product, a sum or a minimum is monotone in each
    # operand: raising one node never lowers any value of the step, with
    # no slack, over horizons of one, one and a half and three steps.
    sys_cl, grid, forward, values, node, delta = case
    raised = values.copy()
    raised[node] += delta
    courant = float(np.max(wave_speeds(sys_cl, grid) / grid.spacing)) or 1.0
    for cells in (1.0, 1.5, 3.0):
        ws = _Workspace(sys_cl, grid, cells / courant, forward)
        low, high = _stepped(ws, values), _stepped(ws, raised)
        assert np.all(high >= low), cells
