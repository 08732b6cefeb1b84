import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import BLOCKED_GRIDS, blocked_grid
from reachverify.geometry import (
    AxisBox,
    AxisCylinder,
    Ball,
    ScalarField,
    ShapeSet,
    build_grid,
    field_complement,
    field_union,
    interpolate,
    interpolate_many,
    level_set_from_shapes,
    signed_distance,
    strict_sublevel_mask,
    zero_sublevel_mask,
)
from reachverify.nn import _BLOCK_ROWS
from reachverify.scene import air_scene
from reference import field_intersection


def _shapes(dims):
    center = np.linspace(-0.3, 0.4, dims)
    prims = [Ball(center, 0.5), AxisBox(-center, np.linspace(0.2, 0.6, dims))]
    if dims >= 3:
        prims.append(AxisCylinder(0.5 * center, 0.3, dims - 1, 0.4))
    return ShapeSet(tuple(prims))


def test_build_grid_spacing():
    grid = build_grid([0, 0], [1, 1], [11, 11])
    assert np.allclose(grid.spacing, [0.1, 0.1])
    assert grid.dims == 2
    assert grid.num_nodes == 121


def test_build_grid_rejects_too_few_nodes():
    with pytest.raises(ValueError):
        build_grid([0, 0], [1, 1], [2, 11])


def test_build_grid_rejects_mismatch_and_degenerate():
    with pytest.raises(ValueError):
        build_grid([0, 0, 0], [1, 1], [5, 5])
    with pytest.raises(ValueError):
        build_grid([0, 1], [1, 1], [5, 5])
    with pytest.raises(ValueError):
        build_grid([0] * 5, [1] * 5, [5] * 5)


def test_aerial_grid_encloses_scene_strictly():
    # Oracle: every primitive's bounding box lies strictly inside the grid box.
    grid = build_grid([-1, -1, -1], [7, 6, 6], [81, 71, 71])
    scene = air_scene((71, 71, 71))
    for shapes in (scene.initial_set, scene.goal_set, scene.obstacles):
        for prim in shapes.primitives:
            lo, hi = prim.bounding_box()
            assert np.all(lo > grid.lo) and np.all(hi < grid.hi)


def test_ball_signed_distance_boundary_and_far():
    ball = ShapeSet((Ball([0.0, 0.0], 0.7),))
    assert signed_distance(ball, [0.7, 0.0]) == pytest.approx(0.0, abs=1e-15)
    assert signed_distance(ball, [3.0, 4.0]) == pytest.approx(4.3)


def test_union_distance_is_member_minimum():
    union = ShapeSet((Ball([0.0, 0.0], 1.0), Ball([4.0, 0.0], 1.0)))
    assert signed_distance(union, [2.0, 0.0]) == pytest.approx(1.0)

    rng = np.random.default_rng(0)
    prims = (
        Ball(rng.uniform(-2, 2, 2), 0.8),
        AxisBox(rng.uniform(-2, 2, 2), [0.5, 1.1]),
        Ball(rng.uniform(-2, 2, 2), 0.3),
    )
    shapes = ShapeSet(prims)
    pts = rng.uniform(-4, 4, size=(200, 2))
    expected = np.min([p.signed_distance(pts) for p in prims], axis=0)
    assert np.allclose(shapes.signed_distance(pts), expected)


def test_signed_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        signed_distance(ShapeSet((Ball([0.0, 0.0], 1.0),)), [1.0, 2.0, 3.0])


def test_box_distance_at_center_is_negative_min_half_width():
    box = AxisBox([4.0, 1.5], [0.75, 0.75])
    assert signed_distance(ShapeSet((box,)), [4.0, 1.5]) == pytest.approx(-0.75)
    wide = AxisBox([0.0, 0.0], [2.0, 0.5])
    assert signed_distance(ShapeSet((wide,)), [0.0, 0.0]) == pytest.approx(-0.5)


def test_cylinder_distance_radial_and_axial():
    cyl = ShapeSet((AxisCylinder([0.0, 0.0, 0.0], 1.0, axis_index=2, half_height=2.0),))
    assert signed_distance(cyl, [1.0, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-15)
    assert signed_distance(cyl, [0.0, 0.0, 2.5]) == pytest.approx(0.5)
    assert signed_distance(cyl, [0.0, 0.0, 0.0]) == pytest.approx(-1.0)
    # outside both radially and axially: corner distance
    assert signed_distance(cyl, [2.0, 0.0, 3.0]) == pytest.approx(np.hypot(1.0, 1.0))


def test_level_set_center_depth_and_mask():
    grid = build_grid([-1, -1], [1, 1], [11, 11])
    field = level_set_from_shapes(grid, ShapeSet((Ball([0.0, 0.0], 0.5),)))
    assert field.values[5, 5] == pytest.approx(-0.5)
    # Oracle: brute-force node membership test.
    pts = grid.node_points()
    expected = np.linalg.norm(pts, axis=-1) <= 0.5
    assert np.array_equal(zero_sublevel_mask(field), expected)


def test_level_set_discrete_lipschitz():
    grid = build_grid([-2, -2], [3, 3], [41, 36])
    shapes = ShapeSet((Ball([0.5, -0.3], 0.9), AxisBox([1.5, 1.5], [0.6, 0.4])))
    v = level_set_from_shapes(grid, shapes).values
    for axis, h in enumerate(grid.spacing):
        d = np.abs(np.diff(v, axis=axis))
        assert d.max() <= h + 1e-9


def test_field_algebra_min_max_neg():
    grid = build_grid([0, 0], [1, 1], [5, 5])
    rng = np.random.default_rng(1)
    a = ScalarField(grid, rng.normal(size=grid.counts))
    b = ScalarField(grid, rng.normal(size=grid.counts))
    assert np.array_equal(field_union(a, b).values, np.minimum(a.values, b.values))
    assert np.array_equal(field_intersection(a, b).values, np.maximum(a.values, b.values))
    assert np.array_equal(field_complement(a).values, -a.values)
    # a AND (NOT a) has empty strict sublevel set
    both = field_intersection(a, field_complement(a))
    assert not strict_sublevel_mask(both).any()


def test_intersection_mask_equals_elementwise_and():
    grid = build_grid([-1, -1], [1, 1], [21, 21])
    rng = np.random.default_rng(7)
    fa = level_set_from_shapes(grid, ShapeSet((Ball(rng.uniform(-0.5, 0.5, 2), 0.6),)))
    fb = level_set_from_shapes(grid, ShapeSet((Ball(rng.uniform(-0.5, 0.5, 2), 0.5),)))
    inter = zero_sublevel_mask(field_intersection(fa, fb))
    assert np.array_equal(inter, zero_sublevel_mask(fa) & zero_sublevel_mask(fb))
    union = zero_sublevel_mask(field_union(fa, fb))
    assert np.array_equal(union, zero_sublevel_mask(fa) | zero_sublevel_mask(fb))


def test_de_morgan_mask_identities():
    grid = build_grid([0, 0], [1, 1], [9, 9])
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = ScalarField(grid, rng.normal(size=grid.counts))
        b = ScalarField(grid, rng.normal(size=grid.counts))
        lhs = strict_sublevel_mask(field_complement(field_union(a, b)))
        rhs = strict_sublevel_mask(field_complement(a)) & strict_sublevel_mask(field_complement(b))
        assert np.array_equal(lhs, rhs)
        # complement mask is the exact logical NOT of the mask
        assert np.array_equal(
            strict_sublevel_mask(field_complement(a)), ~zero_sublevel_mask(a)
        )


def test_zero_sublevel_constants_and_count():
    grid = build_grid([-1, -1], [1, 1], [11, 11])
    ones = ScalarField(grid, np.ones(grid.counts))
    zeros = ScalarField(grid, np.zeros(grid.counts))
    assert not zero_sublevel_mask(ones).any()
    assert zero_sublevel_mask(zeros).all()
    field = level_set_from_shapes(grid, ShapeSet((Ball([0.1, -0.2], 0.45),)))
    count = sum(
        1 for p in grid.flat_points() if np.linalg.norm(p - [0.1, -0.2]) <= 0.45
    )
    assert zero_sublevel_mask(field).sum() == count


def test_interpolate_node_exact_and_linear_exact():
    grid = build_grid([0, 0], [2, 3], [9, 13])
    rng = np.random.default_rng(5)
    field = ScalarField(grid, rng.normal(size=grid.counts))
    for _ in range(20):
        i = rng.integers(0, 9)
        j = rng.integers(0, 13)
        pt = [grid.axis_coords(0)[i], grid.axis_coords(1)[j]]
        assert interpolate(field, pt) == pytest.approx(field.values[i, j], abs=1e-12)

    pts = grid.node_points()
    linear = ScalarField(grid, 2.0 * pts[..., 0] - 0.5 * pts[..., 1] + 1.0)
    query = rng.uniform([0, 0], [2, 3], size=(100, 2))
    expected = 2.0 * query[:, 0] - 0.5 * query[:, 1] + 1.0
    assert np.allclose(interpolate_many(linear, query), expected, atol=1e-12)


def test_interpolate_cell_midpoint_is_corner_average():
    grid = build_grid([0, 0], [1, 1], [4, 4])
    rng = np.random.default_rng(9)
    field = ScalarField(grid, rng.normal(size=grid.counts))
    i, j = 1, 2
    xs, ys = grid.axis_coords(0), grid.axis_coords(1)
    mid = [(xs[i] + xs[i + 1]) / 2, (ys[j] + ys[j + 1]) / 2]
    corners = [field.values[i + a, j + b] for a, b in itertools.product((0, 1), repeat=2)]
    assert interpolate(field, mid) == pytest.approx(np.mean(corners), abs=1e-12)


def test_interpolate_out_of_bounds_raises():
    grid = build_grid([0, 0], [1, 1], [5, 5])
    field = ScalarField(grid, np.zeros(grid.counts))
    with pytest.raises(ValueError):
        interpolate(field, [1.5, 0.5])


def test_scalar_field_validation():
    grid = build_grid([0, 0], [1, 1], [5, 5])
    with pytest.raises(ValueError):
        ScalarField(grid, np.zeros((5, 4)))
    bad = np.zeros(grid.counts)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        ScalarField(grid, bad)


def test_level_set_hands_its_array_to_the_field():
    # The level set's fresh array becomes the field's values; copying it
    # held both at once, 2 x 2.9 MB at 71^3.  A caller's array is still
    # copied, unless handed over with copy=False.
    grid = build_grid([-5.0] * 3, [5.0] * 3, [71] * 3)
    tracemalloc.start()
    try:
        field = level_set_from_shapes(grid, ShapeSet((Ball([0.0, 0.0, 0.0], 1.0),)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * field.values.nbytes
    assert not field.values.flags.writeable
    values = np.zeros(grid.counts)
    assert not np.shares_memory(ScalarField(grid, values).values, values)
    assert values.flags.writeable
    assert np.shares_memory(ScalarField(grid, values, copy=False).values, values)


def test_shape_validation():
    with pytest.raises(ValueError):
        Ball([0.0, 0.0], -1.0)
    with pytest.raises(ValueError):
        AxisBox([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        ShapeSet(())
    with pytest.raises(ValueError):
        ShapeSet((Ball([0.0, 0.0], 1.0), Ball([0.0, 0.0, 0.0], 1.0)))


@pytest.mark.parametrize("counts", BLOCKED_GRIDS)
def test_point_blocks_are_the_flat_points_in_blocks(counts):
    grid = blocked_grid(counts)
    blocks = list(grid.point_blocks())
    assert [a for a, _ in blocks] == list(range(0, grid.num_nodes, _BLOCK_ROWS))
    assert all(len(points) == _BLOCK_ROWS for _, points in blocks[:-1])
    stacked = np.concatenate([points for _, points in blocks])
    assert np.array_equal(stacked.view(np.int64), grid.flat_points().view(np.int64))


@pytest.mark.parametrize("counts", BLOCKED_GRIDS)
def test_blocked_level_set_equals_whole_grid_distance(counts):
    grid = blocked_grid(counts)
    shape = _shapes(len(counts))
    expected = shape.signed_distance(grid.flat_points()).reshape(counts)
    values = level_set_from_shapes(grid, shape).values
    assert np.array_equal(values.view(np.int64), expected.view(np.int64))
