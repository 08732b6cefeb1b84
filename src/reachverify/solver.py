"""Semi-Lagrangian evolution of reachable tubes on a grid.

The tube is the zero sublevel set of a value function evolved from the
exact signed distance of the seed set.  The closed loop does not depend on
time, so where one step of the flow carries each node never changes: one
blocked scan finds every node's departure point before the first step, and
every step of every solve of the system on the grid reads it (Falcone &
Ferretti, *Semi-Lagrangian Approximation Schemes for Linear and
Hamilton-Jacobi Equations*, SIAM 2013).  A step of length ``dt`` is

    V <- min(V, I[W](departure)),

* the departure point one explicit-midpoint step of the flow from the node,
  ``x + dt f(x + dt f(x) / 2)``;
* ``W`` the field after a min filter along each axis over the disturbance
  box's reach ``[dt lo_i, dt hi_i]``, the first-order (Lie) splitting of
  the box's Minkowski sum: along each axis the filter takes the minimum of
  the node and of the linear interpolants a fraction ``dt hi_i / h_i`` of
  a cell above it and ``-dt lo_i / h_i`` below it;
* ``I`` multilinear interpolation, taken one axis at a time, the last axis
  first, as in :func:`geometry.interpolate_many`;
* the outer minimum keeps every value that has reached the tube, so values
  never rise and consecutive tube masks are nested by construction.

A departure point or filter end off the grid reads the nearest edge value.

**Monotone in exact and in rounded arithmetic.**  Every interpolation, in
the filter and at the departure points, is a sum ``w0 a + w1 b`` of values
times weights ``w0 = 1 - f`` and ``w1 = f`` that do not depend on the
values and are never negative.  Rounding a product by a non-negative
weight, a sum and a minimum are each monotone in their operands, so raising
any node value never lowers any value of the step, rounding included: a
larger seed gives pointwise smaller values.  A wider box widens every
filter, so it gives pointwise smaller values on the same step; but a box
that outruns the flow also shortens the step, and tubes of two step sizes
are not ordered.  ``alpha_floor``, a per-axis floor under the wave speeds
the step is sized by, lets solves of two boxes share one step.  There is
no dissipation term, and stability puts no limit on the step: the
one-cell rule below serves the filter and the accuracy.

**The step.**  ``dt = horizon / ceil(horizon * max_i s_i / h_i)`` with
``s_i = max(max |rate_i|, |lo_i|, |hi_i|)`` over the nodes (:func:`time_step`):
the largest step that moves no node more than one cell along any axis and
keeps the box filter within one cell, as its two-point form needs.  It has
no knob.  A shorter step smears the field through more interpolations: at
half a cell the zero-box tubes of both benchmark workloads called more
unsafe starts safe, and took twice the steps.  A longer step tests the
obstacle less often and would need a filter that reaches past one cell
(CHANGES.md records the sweep).  All-zero speeds take one step of the
whole horizon, which leaves the seed as it is.

**Memory.**  The map is each node's lowest cell corner as one flat index
(``intp``) and its n offsets ``f`` and their complements ``1 - f`` in
float32: ``8 + 8n`` bytes a node.  Each solve steps in the field, the
filtered field and ``max(n + 1, 3)`` scratch buffers, all float32, so a
3-D node costs 56 bytes (5.1 MB at 45^3); the step loop allocates no array.
Each of the ``2^n`` corner gathers, ``np.take(W[offset:], base,
mode="clip")``, reads its corner at a fixed flat offset from the base
index, which stays below the node count by construction.

**Rounding.**  The kernel steps in float32 (``_DTYPE``).  The departure
scan reads each node's rate from the speed scan, rounded to float32 in the
buffer its offsets then overwrite, so the scan holds no array beyond the
map; the midpoint's rate, the departure points, their cells and the time
accounting stay float64, and each offset and weight is rounded once when
the map stores it.  Every snapshot, the seed's included, is the stepped
float32 field widened to float64, exactly: the seed snapshot is the seed
the kernel steps from, and rounding to nearest keeps every sign of the
exact distance, so its mask is the exact distance's.
``scene.field_to_csv`` stores every snapshot in float32's shortest text.

The entry point fixes the tube's direction and the disturbance sense, and
both are the conservative choice for a safety question:

* ``solve_brt`` follows the flow forward from each node with the
  disturbance helping it reach the target, so the tube holds every state
  that reaches the target under some admissible disturbance.
* ``solve_frt`` solves the same problem on the reversed flow, with the
  disturbance box reflected, seeded from the initial set; the tube
  over-approximates everything reachable under some admissible
  disturbance.

A solve hands each snapshot to its ``sink`` the moment it takes it: the
seed field, the field every ``snapshot_stride`` steps, and the final
field.  ``sink(time, field)`` returns what the ``TubeResult`` records for
that snapshot.  The default sink returns the field, so the result holds
every snapshot in memory.  ``scene.TubeWriter`` writes each one to the
tube's store file and returns the file name instead, so a solve holds its
workspace and one snapshot at a time; only the final field is kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import ClosedLoopSystem, nominal_rate_batch
from .geometry import (
    Grid,
    ScalarField,
    ShapeSet,
    cell_coordinates,
    level_set_from_shapes,
    zero_sublevel_mask,
)

__all__ = [
    "SolverConfig",
    "TubeResult",
    "brt_workspace",
    "solve_brt",
    "solve_frt",
    "time_step",
]

_MAX_STEPS = 2_000_000

# The dtype of every array the kernel steps in.  See the module notes.
_DTYPE = np.float32


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for a tube solve.

    The step is fixed by the system and the grid (see :func:`time_step`),
    and ``snapshot_stride`` counts steps.  Every solve runs to
    ``horizon``: an early stop would under-approximate the tube.
    """

    horizon: float = 10.0
    snapshot_stride: int = 10

    def __post_init__(self):
        if not 0 < self.horizon < math.inf:
            raise ValueError("horizon must be positive and finite")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")


@dataclass(frozen=True)
class TubeResult:
    """Time-stamped snapshots, the final field, and the step count.

    Snapshot times run 0 to -T for backward tubes and 0 to +T for forward
    tubes; the first snapshot is always the seed field, rounded to float32
    as the kernel steps from it, and the last the final field, at time -T
    or +T.  Each snapshot pairs its time with what the solve's sink
    returned for it: the field itself by default, the name of the file it
    was written to under a store writer
    (``scene.TubeWriter``), which keeps no snapshot in memory.  ``final``
    is the final field either way.
    ``direction`` is ``"backward"`` or ``"forward"``.
    """

    snapshots: tuple
    config: SolverConfig
    grid: Grid
    direction: str
    steps_taken: int
    final: ScalarField

    def final_mask(self) -> np.ndarray:
        return zero_sublevel_mask(self.final)

    def masks(self):
        """Each snapshot's time and tube mask; the snapshots must be fields."""
        return [(t, zero_sublevel_mask(f)) for t, f in self.snapshots]

    @property
    def times(self) -> list:
        return [t for t, _ in self.snapshots]


# ---------------------------------------------------------------------------
# The step size and the departure map
# ---------------------------------------------------------------------------

def _wave_speeds(sys: ClosedLoopSystem, grid: Grid, rates=None) -> np.ndarray:
    """Per axis, the largest of ``max |rate_i|`` over the nodes, ``|lo_i|``
    and ``|hi_i|``, from a rate scan one block of nodes at a time; with
    ``rates``, the node rates also land in that ``(n, num_nodes)`` array."""
    b = sys.bounds
    speeds = np.maximum(np.abs(b.upper), np.abs(b.lower))
    for a, points in grid.point_blocks():
        block = nominal_rate_batch(sys, points)
        np.maximum(speeds, np.abs(block).max(axis=0), out=speeds)
        if rates is not None:
            rates[:, a:a + len(points)] = block.T
    return speeds


def time_step(horizon: float, speeds, grid: Grid) -> tuple:
    """``(dt, steps)``: the step count that moves nothing by more than one
    cell a step, ``ceil(horizon * max_i speeds_i / h_i)`` and at least
    one, and the step ``horizon / steps`` that spans the horizon in it."""
    cells = horizon * float(np.max(np.asarray(speeds, dtype=float) / grid.spacing))
    if not cells <= _MAX_STEPS:
        raise ValueError("configuration requires an unreasonable number of steps")
    steps = max(1, math.ceil(cells))
    return horizon / steps, steps


class _Workspace:
    """The departure map of one system on one grid in one direction for
    one horizon, and the buffers a solve steps in.

    The evolution is always the backward, reach-unsafe one; a forward tube
    follows the reversed flow with the disturbance box reflected.  None of
    the seed's data enters, so solves of the system on the grid for any
    seed, one after another, share one workspace.
    """

    def __init__(self, sys: ClosedLoopSystem, grid: Grid, horizon: float, forward: bool,
                 alpha_floor=None):
        n = sys.n_state
        if n != grid.dims:
            raise ValueError("system state dimension does not match grid dimension")
        self.system, self.grid, self.horizon, self.forward = sys, grid, horizon, forward
        size = grid.num_nodes
        # The offsets' buffer holds the node rates, rounded to float32,
        # until the departure scan overwrites each block with its offsets.
        self.offsets = np.empty((n, size), _DTYPE)
        speeds = _wave_speeds(sys, grid, self.offsets)
        if not np.isfinite(speeds).all():
            raise RuntimeError("the closed loop's rates are not finite on the grid")
        if alpha_floor is not None:
            speeds = np.maximum(speeds, alpha_floor)
        self.dt, self.steps = time_step(horizon, speeds, grid)
        self.strides = [math.prod(grid.counts[axis + 1:]) for axis in range(n)]

        # The departure map: base flat index, offsets and their complements.
        step = -self.dt if forward else self.dt
        self.base = np.empty(size, np.intp)
        flat = np.asarray(self.strides, dtype=np.intp)
        for a, points in grid.point_blocks():
            block = slice(a, a + len(points))
            mid = points + (0.5 * step) * self.offsets[:, block].T.astype(float)
            departure = points + step * nominal_rate_batch(sys, mid)
            if not np.isfinite(departure).all():
                raise RuntimeError("the closed loop's rates are not finite on the grid")
            cell, frac = cell_coordinates(grid, np.clip(departure, grid.lo, grid.hi))
            self.base[block] = cell @ flat
            self.offsets[:, block] = frac.T
        self.complements = 1 - self.offsets

        # The box filter's reach along each axis, in cells: up and down.
        upper, lower = sys.bounds.upper, sys.bounds.lower
        hi, lo = (-lower, -upper) if forward else (upper, lower)
        self.reach = [
            [_DTYPE(min(1.0, self.dt * r / h)) for r in (hi[axis], -lo[axis])]
            for axis, h in enumerate(grid.spacing)]
        for array in (self.base, self.offsets, self.complements):
            array.flags.writeable = False

        self.values = np.empty(size, _DTYPE)
        self._filtered = np.empty(size, _DTYPE)
        self._scratch = [np.empty(size, _DTYPE) for _ in range(max(n + 1, 3))]

    def load(self, field: ScalarField) -> None:
        """Start a solve from ``field``, each value rounded to the kernel's
        dtype."""
        self.values[:] = field.values.ravel()

    def snapshot(self, time_tag: float) -> ScalarField:
        """A copy of ``values`` widened to a float64 field; the buffers are
        reused."""
        return ScalarField(self.grid, self.values.reshape(self.grid.counts), time_tag)

    def _filter(self) -> np.ndarray:
        """``values`` after the box's min filter along every axis, in the
        filtered buffer.  Along each axis the filter is ``min(w, t_up)``
        and then ``min(., t_down)``, skipping a direction the box does not
        reach; an axis the box does not widen is left out."""
        axes = [axis for axis, reach in enumerate(self.reach) if any(reach)]
        t, u = self._scratch[0], self._scratch[1]
        buffers = (self._filtered, self._scratch[2])
        w, size = self.values, self.values.size
        for i, axis in enumerate(axes):
            out = buffers[(len(axes) - 1 - i) % 2]  # the last axis ends in _filtered
            s, count = self.strides[axis], self.grid.counts[axis]
            w3, t3, u3 = (a.reshape(-1, count, s) for a in (w, t, u))
            src = w
            for f, up in zip(self.reach[axis], (True, False)):
                if not f:
                    continue
                g = _DTYPE(1) - f
                # t = g w + f w_next, with w_next each node's neighbour one
                # cell up (down) the axis; the last (first) node along the
                # axis is its own neighbour.
                here, there = ((slice(0, size - s), slice(s, size)) if up
                               else (slice(s, size), slice(0, size - s)))
                np.multiply(w[here], g, out=t[here])
                np.multiply(w[there], f, out=u[here])
                np.add(t[here], u[here], out=t[here])
                edge = -1 if up else 0
                np.multiply(w3[:, edge], g, out=t3[:, edge])
                np.multiply(w3[:, edge], f, out=u3[:, edge])
                np.add(t3[:, edge], u3[:, edge], out=t3[:, edge])
                np.minimum(src, t, out=out)
                src = out
            w = out
        return w

    def _interpolate(self, w: np.ndarray, out: np.ndarray, axis: int = 0, offset: int = 0):
        """``out`` = the multilinear interpolant of ``w`` at the departure
        points, the cell corners from ``offset`` on along ``axis`` and
        later axes; one scratch buffer per axis holds the upper half."""
        if axis == len(self.strides):
            np.take(w[offset:], self.base, out=out, mode="clip")
            return
        upper = self._scratch[axis + 1]
        self._interpolate(w, out, axis + 1, offset)
        self._interpolate(w, upper, axis + 1, offset + self.strides[axis])
        np.multiply(out, self.complements[axis], out=out)
        np.multiply(upper, self.offsets[axis], out=upper)
        np.add(out, upper, out=out)

    def step(self) -> float:
        """Advance ``values`` one step; returns the smallest new value, which
        is not finite if any new value is not."""
        w = self._filter()
        out = self._scratch[0]
        self._interpolate(w, out)
        np.minimum(self.values, out, out=self.values)
        return float(self.values.min())


def brt_workspace(sys: ClosedLoopSystem, grid: Grid, config: SolverConfig) -> _Workspace:
    """The workspace of backward solves of ``sys`` on ``grid`` over
    ``config``'s horizon: pass it to every ``solve_brt`` of the system on
    the grid, whatever its target, for them to share one departure map."""
    return _Workspace(sys, grid, config.horizon, False)


def _check_inside_grid(shapes: ShapeSet, grid: Grid, label: str) -> None:
    lo, hi = shapes.bounding_box()
    if np.any(lo < grid.lo) or np.any(hi > grid.hi):
        raise ValueError(f"{label} set extends outside the grid bounds")


def _keep(time: float, field: ScalarField) -> ScalarField:
    return field


def _solve(seed: ShapeSet, sys: ClosedLoopSystem, config: SolverConfig, grid: Grid,
           forward: bool, alpha_floor=None, sink=_keep, workspace=None) -> TubeResult:
    _check_inside_grid(seed, grid, "seed")
    if workspace is None:
        workspace = _Workspace(sys, grid, config.horizon, forward, alpha_floor)
    elif (workspace.system is not sys or workspace.grid is not grid
          or workspace.horizon != config.horizon or workspace.forward != forward
          or alpha_floor is not None):
        raise ValueError("the workspace was made for another system, grid or horizon, "
                         "or without alpha_floor")
    ws, sign, steps = workspace, (1.0 if forward else -1.0), workspace.steps

    # The seed snapshot is the seed as the kernel steps from it, rounded to
    # float32, so every snapshot of a tube is a float32 field.
    ws.load(level_set_from_shapes(grid, seed))
    snapshots = [(0.0, sink(0.0, ws.snapshot(0.0)))]
    for k in range(1, steps + 1):
        if not math.isfinite(ws.step()):
            raise RuntimeError(f"tube solve produced non-finite values at step {k - 1}")
        if k % config.snapshot_stride == 0 and k < steps:
            t = sign * config.horizon * k / steps
            snapshots.append((t, sink(t, ws.snapshot(t))))

    # The last step's snapshot is the final field, whatever the stride.
    final = ws.snapshot(sign * config.horizon)
    snapshots.append((sign * config.horizon, sink(sign * config.horizon, final)))
    return TubeResult(
        snapshots=tuple(snapshots),
        config=config,
        grid=grid,
        direction="forward" if forward else "backward",
        steps_taken=steps,
        final=final,
    )


def solve_brt(target: ShapeSet, sys: ClosedLoopSystem, config: SolverConfig, grid: Grid,
              alpha_floor=None, sink=_keep, workspace=None) -> TubeResult:
    """Backward reachable tube seeded from the target set's distance field.

    Snapshot masks are nested nondecreasing toward ``-horizon``; the final
    mask is the set of states that can reach the target within the horizon
    under some admissible disturbance (the disturbance helps reach it).
    ``sink`` receives each snapshot as it is taken (see the module notes).
    A ``workspace`` from :func:`brt_workspace` for ``sys``, ``grid`` and
    the horizon lets solves for several targets share one departure map;
    without one the solve makes its own.  ``alpha_floor`` is a per-axis
    floor under the wave speeds the step is sized by (see the module
    notes).
    """
    return _solve(target, sys, config, grid, False, alpha_floor, sink, workspace)


def solve_frt(initial: ShapeSet, sys: ClosedLoopSystem, config: SolverConfig, grid: Grid,
              alpha_floor=None, sink=_keep) -> TubeResult:
    """Forward reachable tube grown from the initial set.

    The disturbance is extremized to enlarge the tube, so the result
    over-approximates the states reachable under some admissible
    disturbance; an under-approximation could falsely certify safety.
    ``sink`` receives each snapshot as it is taken (see the module notes).
    """
    return _solve(initial, sys, config, grid, True, alpha_floor, sink)
