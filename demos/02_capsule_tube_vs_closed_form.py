"""Tube solver versus a closed-form answer.

Under a constant velocity field the backward reachable tube of a ball is a
capsule: the ball swept along the flow over the horizon.  This script solves
the level-set evolution on a grid and measures the mask mismatch against the
exact capsule at two resolutions.  Each step moves the flow one whole cell,
so the backward tube's departure points land on nodes and its mask is
exact; the forward tube's error is one cell and halves with the spacing.
"""

import numpy as np

from reachverify import (
    ActionBounds,
    Ball,
    ClosedLoopSystem,
    ConstantPolicy,
    DisturbanceBounds,
    ShapeSet,
    SolverConfig,
    build_grid,
    solve_brt,
    solve_frt,
)


class ConstantPlant:
    n_state = 2
    n_action = 1

    def __init__(self, c):
        self.c = np.asarray(c, dtype=float)

    def rate_batch(self, states, actions):
        return np.broadcast_to(self.c, (len(states), 2)).copy()


def capsule_distance(points, a, b, r):
    a, b = np.asarray(a, float), np.asarray(b, float)
    ab = b - a
    t = np.clip(((points - a) @ ab) / (ab @ ab), 0.0, 1.0)
    return np.linalg.norm(points - (a + t[..., None] * ab), axis=-1) - r


def mask_mismatch_extent(grid, computed, analytic):
    """Symmetric Hausdorff distance between two mask node sets (brute force)."""
    pts = grid.flat_points()
    a_pts = pts[computed.ravel()]
    b_pts = pts[analytic.ravel()]

    def one_sided(src, dst):
        worst = 0.0
        for p in src:
            worst = max(worst, float(np.min(np.linalg.norm(dst - p, axis=1))))
        return worst

    return max(one_sided(a_pts, b_pts), one_sided(b_pts, a_pts))


system = ClosedLoopSystem(
    ConstantPlant([1.0, 0.0]),
    ConstantPolicy([0.0], ActionBounds([0.0], [0.0])),
    DisturbanceBounds.zero(2),
)

horizon = 3.0
errors = []
for counts in ((61, 41), (121, 81)):
    grid = build_grid([-1.0, -2.0], [5.0, 2.0], counts)
    analytic = capsule_distance(grid.node_points(), [0.5, 0.0], [3.5, 0.0], 0.7) <= 0

    brt = solve_brt(
        ShapeSet((Ball([3.5, 0.0], 0.7),)), system,
        SolverConfig(horizon=horizon),
        grid,
    )
    frt = solve_frt(
        ShapeSet((Ball([0.5, 0.0], 0.7),)), system,
        SolverConfig(horizon=horizon),
        grid,
    )
    err_b = mask_mismatch_extent(grid, brt.final_mask(), analytic)
    err_f = mask_mismatch_extent(grid, frt.final_mask(), analytic)
    errors.append(max(err_b, err_f))
    print(f"grid {counts}: spacing {np.round(grid.spacing, 3)}, "
          f"BRT error {err_b:.4f}, FRT error {err_f:.4f} "
          f"({brt.steps_taken} steps)")

print(f"error shrinks with the spacing (ratio {errors[0] / errors[1]:.2f}); "
      "the acceptance suite bounds it by 0.10 at 101^2 and 0.05 at 201^2")
