import numpy as np
import pytest

from conftest import const_system
from reachverify.geometry import (
    Ball,
    ScalarField,
    ShapeSet,
    build_grid,
    level_set_from_shapes,
    zero_sublevel_mask,
)
from reachverify.solver import SolverConfig, TubeResult, solve_brt, solve_frt
from reachverify.verification import (
    VerificationReport,
    build_report,
    classify_policy,
    safe_initial_states,
    union_brt_field,
    unsafe_initial_states,
)
from reference import is_state_safe


def _frt(grid, initial, sys_cl, horizon=0.5):
    return solve_frt(
        initial, sys_cl,
        SolverConfig(horizon=horizon),
        grid,
    )


def test_classify_safe_when_obstacles_unreachable():
    grid = build_grid([-1, -1], [3, 3], [41, 41])
    sys_cl = const_system([0.0, 0.0])
    frt = _frt(grid, ShapeSet((Ball([0.0, 0.0], 0.3),)), sys_cl)
    verdict, flags = classify_policy(frt, ShapeSet((Ball([2.0, 2.0], 0.3),)), grid)
    assert verdict == "safe"
    assert flags == [False]


def test_classify_unsafe_at_time_zero_when_overlapping():
    grid = build_grid([-1, -1], [3, 3], [41, 41])
    sys_cl = const_system([0.0, 0.0])
    frt = _frt(grid, ShapeSet((Ball([0.0, 0.0], 0.5),)), sys_cl)
    obstacles = ShapeSet((Ball([2.0, 2.0], 0.2), Ball([0.3, 0.0], 0.2)))
    verdict, flags = classify_policy(frt, obstacles, grid)
    assert verdict == "unsafe"
    assert flags == [False, True]


def test_unsafe_initial_states_disjoint_and_covering():
    grid = build_grid([-2, -2], [2, 2], [41, 41])
    initial = ShapeSet((Ball([0.0, 0.0], 0.5),))
    initial_mask = zero_sublevel_mask(level_set_from_shapes(grid, initial))
    far = level_set_from_shapes(grid, ShapeSet((Ball([1.8, 1.8], 0.1),)))
    assert not unsafe_initial_states(far, initial_mask).any()

    covering = level_set_from_shapes(grid, ShapeSet((Ball([0.0, 0.0], 1.5),)))
    assert np.array_equal(unsafe_initial_states(covering, initial_mask), initial_mask)


def test_safe_initial_states_partition_on_random_fields():
    grid = build_grid([-2, -2], [2, 2], [21, 21])
    rng = np.random.default_rng(0)
    initial = ShapeSet((Ball([0.0, 0.0], 1.0),))
    initial_mask = zero_sublevel_mask(level_set_from_shapes(grid, initial))
    for _ in range(200):
        brt = ScalarField(grid, rng.normal(size=grid.counts))
        unsafe = unsafe_initial_states(brt, initial_mask)
        safe = safe_initial_states(unsafe, initial_mask)
        assert not np.any(safe & unsafe)
        assert np.array_equal(safe | unsafe, initial_mask)


def test_build_report_verdicts():
    grid = build_grid([-2, -2], [2, 2], [41, 41])
    initial = ShapeSet((Ball([0.0, 0.0], 0.5),))

    report = build_report(
        grid, initial, level_set_from_shapes(grid, ShapeSet((Ball([1.8, 1.8], 0.05),)))
    )
    assert report.verdict == "completely_safe"
    assert report.safe_fraction == 1.0

    report2 = build_report(
        grid, initial, level_set_from_shapes(grid, ShapeSet((Ball([0.0, 0.0], 1.5),)))
    )
    assert report2.verdict == "completely_unsafe"
    assert report2.safe_fraction == 0.0

    report3 = build_report(
        grid, initial, level_set_from_shapes(grid, ShapeSet((Ball([0.5, 0.0], 0.4),)))
    )
    assert report3.verdict == "partially_safe"
    assert 0.0 < report3.safe_fraction < 1.0


def test_report_rejects_bad_masks():
    grid = build_grid([-1, -1], [1, 1], [5, 5])
    ones = np.ones(grid.counts, dtype=bool)
    with pytest.raises(ValueError):
        VerificationReport(
            verdict="partially_safe",
            safe_mask=ones,
            unsafe_mask=ones,
            initial_mask=ones,
            safe_fraction=0.5,
        )


def test_is_state_safe_consistency():
    grid = build_grid([-2, -2], [2, 2], [81, 81])
    initial = ShapeSet((Ball([0.0, 0.0], 1.0),))
    brt = level_set_from_shapes(grid, ShapeSet((Ball([0.6, 0.0], 0.5),)))
    report = build_report(grid, initial, brt)

    with pytest.raises(ValueError):
        is_state_safe(report, [1.9, 1.9])

    rng = np.random.default_rng(1)
    pts = rng.uniform(-0.7, 0.7, size=(100, 2))
    pts = pts[initial.signed_distance(pts) <= 0]
    for p in pts:
        value = brt.grid  # nearest node comparison
        idx = tuple(
            int(round((p[i] - grid.lo[i]) / grid.spacing[i])) for i in range(2)
        )
        node_safe = not report.unsafe_mask[idx]
        # within one cell of the zero level the interpolant may differ
        from reachverify.geometry import interpolate

        val = interpolate(brt, p)
        if abs(val) > float(np.linalg.norm(grid.spacing)):
            assert is_state_safe(report, p) == node_safe


def test_union_brt_field_is_pointwise_min():
    grid = build_grid([-1, -1], [1, 1], [11, 11])
    rng = np.random.default_rng(2)
    a = ScalarField(grid, rng.normal(size=grid.counts))
    b = ScalarField(grid, rng.normal(size=grid.counts))
    u = union_brt_field([a, b])
    assert np.array_equal(u.values, np.minimum(a.values, b.values))
    with pytest.raises(ValueError):
        union_brt_field([])


def test_land_qualitative_structure(land_run, land_tubes):
    """The trained planar benchmark reproduces the expected unsafe pattern:
    the controller is flagged through the second obstacle only, and only a
    proper subset of the start set can reach it."""
    scene, _, _ = land_run
    assert land_tubes["frt_verdict"] == "unsafe"
    assert land_tubes["frt_flags"] == [False, True]

    s0_mask = zero_sublevel_mask(level_set_from_shapes(scene.grid, scene.initial_set))
    unsafe_0 = unsafe_initial_states(land_tubes["brts"][0].final, s0_mask)
    unsafe_1 = unsafe_initial_states(land_tubes["brts"][1].final, s0_mask)
    assert not unsafe_0.any()
    assert unsafe_1.any()
    assert unsafe_1.sum() < s0_mask.sum()
    assert land_tubes["report"].verdict == "partially_safe"


def test_monotone_conservatism_on_small_scene():
    grid = build_grid([-2, -2], [2, 2], [41, 41])
    initial = ShapeSet((Ball([-1.0, 0.0], 0.4),))
    target = ShapeSet((Ball([1.0, 0.0], 0.3),))
    small = const_system([0.8, 0.0], upper=[0.05, 0.05])
    big = const_system([0.8, 0.0], upper=[0.1, 0.1])
    cfg = SolverConfig(horizon=1.5)
    brt_small = solve_brt(target, small, cfg, grid)
    brt_big = solve_brt(target, big, cfg, grid)
    # The flow outruns both boxes, so both solves take one step.
    assert brt_small.steps_taken == brt_big.steps_taken
    initial_mask = zero_sublevel_mask(level_set_from_shapes(grid, initial))
    unsafe_small = unsafe_initial_states(brt_small.final, initial_mask)
    unsafe_big = unsafe_initial_states(brt_big.final, initial_mask)
    # enlarging the disturbance never moves a cell from unsafe to safe
    assert np.all(unsafe_small <= unsafe_big)


def _classify_every_snapshot(frt, obstacles, grid):
    # Reference: scan every snapshot mask for contact with each obstacle.
    obstacle_masks = [
        zero_sublevel_mask(level_set_from_shapes(grid, ShapeSet((prim,))))
        for prim in obstacles.primitives
    ]
    flags = [False] * len(obstacle_masks)
    for _, tube_mask in frt.masks():
        for i, om in enumerate(obstacle_masks):
            flags[i] = flags[i] or bool(np.any(tube_mask & om))
    return ("unsafe" if any(flags) else "safe"), flags


def test_classify_final_mask_equals_per_snapshot_scan_on_land(land_run, land_tubes):
    scene, _, _ = land_run
    frt = land_tubes["frt"]
    assert len(frt.snapshots) > 2
    expected = _classify_every_snapshot(frt, scene.obstacles, scene.grid)
    assert classify_policy(frt, scene.obstacles, scene.grid) == expected
    assert expected == (land_tubes["frt_verdict"], land_tubes["frt_flags"])


def test_classify_detects_contact_at_last_snapshot_only():
    grid = build_grid([-2, -2], [2, 2], [41, 41])
    # A tube of growing balls; the first obstacle spans x in [0.8, 1.4], so
    # only the last ball (radius 0.9) reaches it.  The second is never met.
    snapshots = tuple(
        (t, level_set_from_shapes(grid, ShapeSet((Ball([0.0, 0.0], r),))))
        for t, r in ((0.0, 0.3), (0.5, 0.6), (1.0, 0.9))
    )
    frt = TubeResult(
        snapshots=snapshots,
        config=SolverConfig(horizon=1.0),
        grid=grid,
        direction="forward",
        steps_taken=2,
        final=snapshots[-1][1],
    )
    obstacles = ShapeSet((Ball([1.1, 0.0], 0.3), Ball([-1.5, 1.5], 0.2)))
    first = ShapeSet(obstacles.primitives[:1])
    obstacle_0 = zero_sublevel_mask(level_set_from_shapes(grid, first))
    masks = [m for _, m in frt.masks()]
    assert not np.any(masks[-2] & obstacle_0) and np.any(masks[-1] & obstacle_0)

    assert classify_policy(frt, obstacles, grid) == ("unsafe", [True, False])
    assert classify_policy(frt, obstacles, grid) == _classify_every_snapshot(frt, obstacles, grid)
