"""Turning tubes into safety answers.

A forward tube intersected with the obstacle region classifies a policy
as safe or unsafe outright.  Backward tubes grown from each obstacle,
unioned and intersected with the initial set, give the unsafe initial
states; their complement within the initial set is the safe subset.  The
two masks partition the initial set exactly at the cell level: a node
belongs to a set when its field value is nonpositive, complements use the
strict test, so safe and unsafe never overlap and always cover.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    Grid,
    ScalarField,
    ShapeSet,
    field_union,
    level_set_from_shapes,
    same_grid,
    zero_sublevel_mask,
)
from .solver import TubeResult

__all__ = [
    "VerificationReport",
    "classify_policy",
    "unsafe_initial_states",
    "union_brt_field",
    "safe_initial_states",
    "build_report",
]

VERDICTS = ("completely_safe", "completely_unsafe", "partially_safe")


def classify_policy(frt: TubeResult, obstacles: ShapeSet, grid: Grid):
    """Safe/unsafe verdict from forward-tube/obstacle intersection.

    Returns ``(verdict, per_obstacle_flags)`` where each primitive of the
    obstacle union is reported separately; the policy is unsafe as soon as
    any snapshot's tube mask meets any obstacle mask.  Snapshot masks are
    nested (the stepper never raises a value), so the final mask contains
    every earlier one and is the only one read.
    """
    if not same_grid(frt.grid, grid):
        raise ValueError("forward tube and obstacles live on different grids")
    tube_mask = frt.final_mask()
    flags = []
    for prim in obstacles.primitives:
        obstacle_mask = zero_sublevel_mask(level_set_from_shapes(grid, ShapeSet((prim,))))
        flags.append(bool(np.any(tube_mask & obstacle_mask)))
    verdict = "unsafe" if any(flags) else "safe"
    return verdict, flags


def union_brt_field(brt_finals) -> ScalarField:
    """Pointwise union of several final backward-tube fields."""
    fields = list(brt_finals)
    if not fields:
        raise ValueError("need at least one backward-tube field")
    out = fields[0]
    for f in fields[1:]:
        out = field_union(out, f)
    return out


def unsafe_initial_states(brt_final: ScalarField, initial_mask: np.ndarray) -> np.ndarray:
    """Nodes of the initial set (given by its node mask) from which the
    target region is reachable."""
    if initial_mask.shape != brt_final.grid.counts:
        raise ValueError("masks live on different grids")
    return zero_sublevel_mask(brt_final) & initial_mask


def safe_initial_states(unsafe_mask: np.ndarray, initial_mask: np.ndarray) -> np.ndarray:
    """Complement of the unsafe nodes within the initial set."""
    if unsafe_mask.shape != initial_mask.shape:
        raise ValueError("masks live on different grids")
    return ~unsafe_mask & initial_mask


@dataclass(frozen=True)
class VerificationReport:
    """Classification outcome plus the masks and field needed to query it."""

    verdict: str
    safe_mask: np.ndarray
    unsafe_mask: np.ndarray
    initial_mask: np.ndarray
    safe_fraction: float
    provenance: dict = field(default_factory=dict)
    brt_field: ScalarField | None = None
    initial_set: ShapeSet | None = None

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"verdict must be one of {VERDICTS}")
        if np.any(self.safe_mask & self.unsafe_mask):
            raise ValueError("safe and unsafe masks overlap")
        if not np.array_equal(self.safe_mask | self.unsafe_mask, self.initial_mask):
            raise ValueError("safe and unsafe masks do not partition the initial set")


def build_report(
    grid: Grid,
    initial: ShapeSet,
    brt_final: ScalarField,
    provenance: dict | None = None,
) -> VerificationReport:
    """Assemble a report from the union backward tube and the initial set."""
    if not same_grid(grid, brt_final.grid):
        raise ValueError("backward tube grid does not match")
    initial_mask = zero_sublevel_mask(level_set_from_shapes(grid, initial))
    if not initial_mask.any():
        raise ValueError("the grid does not resolve the initial set")
    unsafe = unsafe_initial_states(brt_final, initial_mask)
    safe = safe_initial_states(unsafe, initial_mask)
    n_initial = int(initial_mask.sum())
    n_safe = int(safe.sum())
    if n_safe == n_initial:
        verdict = "completely_safe"
    elif n_safe == 0:
        verdict = "completely_unsafe"
    else:
        verdict = "partially_safe"
    return VerificationReport(
        verdict=verdict,
        safe_mask=safe,
        unsafe_mask=unsafe,
        initial_mask=initial_mask,
        safe_fraction=n_safe / n_initial,
        provenance=provenance or {},
        brt_field=brt_final,
        initial_set=initial,
    )
