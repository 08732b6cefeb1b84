"""Pointwise and allocating references for the tube kernel.

The package computes tubes with one flat, in-place semi-Lagrangian stepper
(``reachverify.solver._Workspace``).  The tests check it against the
independent forms kept here: scalar one-sided differences, the closed-form
Hamiltonian in both disturbance senses, a single-state closed-loop rate,
the exhaustive box-corner extremum, whole-grid wave speeds, a greedy
rollout tube on coarse grids, the exact backward reachable set of a double
integrator pushed by a bounded disturbance, an off-grid safety query, the
field intersection, and the stepper written with a fresh array per
operation.  No command runs any of them.
"""

import itertools
import math

import numpy as np

from reachverify.dynamics import ClosedLoopSystem, nominal_rate_batch
from reachverify.error_bounds import DisturbanceBounds
from reachverify.geometry import (
    Grid,
    ScalarField,
    ShapeSet,
    _check_same_grid,
    interpolate,
    interpolate_many,
    signed_distance,
)
from reachverify.oracle import _rk4_batch
from reachverify.verification import VerificationReport

_MODES = ("reach_goal", "reach_unsafe")


# ---------------------------------------------------------------------------
# Geometry and single-state rates
# ---------------------------------------------------------------------------

def field_intersection(a: ScalarField, b: ScalarField) -> ScalarField:
    """Pointwise maximum; sublevel sets intersect."""
    _check_same_grid(a, b)
    return ScalarField(a.grid, np.maximum(a.values, b.values), a.time_tag)


def rate(sys: ClosedLoopSystem, state, d) -> np.ndarray:
    """Closed-loop rate ``plant(s, policy(s)) + d`` with ``d`` validated."""
    s = np.asarray(state, dtype=float)
    d = np.asarray(d, dtype=float)
    if s.shape != (sys.n_state,) or d.shape != (sys.n_state,):
        raise ValueError(f"state and disturbance must have shape ({sys.n_state},)")
    if not np.isfinite(s).all():
        raise ValueError("state contains non-finite values")
    tol = 1e-12
    if not (np.all(d <= sys.bounds.upper + tol) and np.all(d >= sys.bounds.lower - tol)):
        raise ValueError(f"disturbance {d} lies outside the bounded error set")
    return nominal_rate(sys, s) + d


def nominal_rate(sys: ClosedLoopSystem, state) -> np.ndarray:
    """Undisturbed closed-loop rate at one state: a one-row batch."""
    s = np.asarray(state, dtype=float)
    return nominal_rate_batch(sys, s[None, :])[0]


# ---------------------------------------------------------------------------
# Spatial derivatives and Hamiltonian pieces
# ---------------------------------------------------------------------------

def _one_sided_diffs(values: np.ndarray, axis: int, h: float):
    """Backward and forward differences with zero-slope (copy) ghost values:
    the stepper's differences, as whole arrays.

    With copied ghosts the stepper's boundary update is a monotone function
    of its neighbors, so the discrete comparison principle holds up to the
    domain edge and enlarging the disturbance box can never shrink a tube
    anywhere.  Extrapolating ghosts lose that property at boundary nodes the
    flow crosses.
    """
    nd = values.ndim
    sl_hi = [slice(None)] * nd
    sl_lo = [slice(None)] * nd
    sl_hi[axis] = slice(1, None)
    sl_lo[axis] = slice(None, -1)
    interior = (values[tuple(sl_hi)] - values[tuple(sl_lo)]) / h

    zero_shape = list(values.shape)
    zero_shape[axis] = 1
    zeros = np.zeros(zero_shape, values.dtype)
    p_minus = np.concatenate([zeros, interior], axis=axis)
    p_plus = np.concatenate([interior, zeros], axis=axis)
    return p_minus, p_plus


def upwind_gradients(field: ScalarField):
    """Per-dimension one-sided gradients ``(p_minus, p_plus)``.

    Both lists hold value arrays shaped like the field.  At boundary nodes
    the missing one-sided difference is the adjacent interior difference
    (a linearly extrapolated ghost value), so linear fields differentiate
    exactly everywhere.
    """
    grid = field.grid
    p_minus, p_plus = [], []
    for axis in range(grid.dims):
        pm, pp = _one_sided_diffs(field.values, axis, grid.spacing[axis])
        pm_t, pp_t = np.moveaxis(pm, axis, 0), np.moveaxis(pp, axis, 0)
        pm_t[0] = pm_t[1]
        pp_t[-1] = pp_t[-2]
        p_minus.append(pm)
        p_plus.append(pp)
    return p_minus, p_plus


def optimal_disturbance(p, bounds: DisturbanceBounds, mode: str = "reach_goal") -> np.ndarray:
    """Box extremizer of ``p . d``: the matching-sign corner, zero on ties."""
    p = np.asarray(p, dtype=float)
    if mode == "reach_goal":
        hi, lo = bounds.upper, bounds.lower
    elif mode == "reach_unsafe":
        hi, lo = bounds.lower, bounds.upper
    else:
        raise ValueError(f"mode must be one of {_MODES}")
    return np.where(p > 0, hi, np.where(p < 0, lo, 0.0))


def _box_extremum(p, bounds: DisturbanceBounds, mode: str):
    # Componentwise closed form of extremum over the box of p . d.
    a = p * bounds.upper
    b = p * bounds.lower
    if mode == "reach_goal":
        return np.maximum(a, b)
    return np.minimum(a, b)


def analytic_hamiltonian(s, p, sys: ClosedLoopSystem, mode: str = "reach_goal") -> float:
    """Closed-form extremized Hamiltonian ``p . f(s) +/- sum_i |p_i| d_i``.

    Equals ``p . rate(sys, s, optimal_disturbance(p, bounds, mode))`` for
    any costate ``p``.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    p = np.asarray(p, dtype=float)
    f = nominal_rate(sys, s)
    return float(p @ f + np.sum(_box_extremum(p, sys.bounds, mode)))


def wave_speeds(sys: ClosedLoopSystem, grid: Grid) -> np.ndarray:
    """Per axis, the largest of ``max |rate_i|`` over all nodes at once and
    the box's ``|lower_i|`` and ``|upper_i|``: the speeds the step is sized
    by."""
    rates = nominal_rate_batch(sys, grid.flat_points())
    box = np.maximum(np.abs(sys.bounds.upper), np.abs(sys.bounds.lower))
    return np.maximum(np.abs(rates).max(axis=0), box)


def step_count(horizon: float, speeds, grid: Grid) -> int:
    """Steps of at most one cell each: ``ceil(horizon * max_i s_i / h_i)``,
    at least one."""
    return max(1, math.ceil(horizon * float(np.max(np.asarray(speeds) / grid.spacing))))


# ---------------------------------------------------------------------------
# Brute-force extrema, tubes and queries
# ---------------------------------------------------------------------------

def corner_extremum(p, bounds: DisturbanceBounds, mode: str = "reach_goal"):
    """Exhaustive extremum of ``p . d`` over the box corners plus ``d = 0``.

    Returns ``(value, d_star)``; ties prefer the zero disturbance.
    """
    p = np.asarray(p, dtype=float)
    n = bounds.dims
    if n > 10:
        raise ValueError("corner enumeration is limited to 10 dimensions")
    candidates = [np.zeros(n)]
    for corner in itertools.product(*zip(bounds.lower, bounds.upper)):
        candidates.append(np.asarray(corner))
    values = [float(p @ d) for d in candidates]
    pick = int(np.argmax(values)) if mode == "reach_goal" else int(np.argmin(values))
    return values[pick], candidates[pick]


def exhaustive_brt_small(
    sys: ClosedLoopSystem,
    target: ShapeSet,
    grid: Grid,
    horizon: float,
    dt: float,
) -> np.ndarray:
    """Greedy rollout tube on a coarse grid, used as a sanity oracle.

    Every node is rolled out under the per-step corner disturbance that
    most decreases the signed distance to the target; nodes whose
    trajectory touches the target within the horizon are marked.  This is
    a conservative cross-check, not an exact tube.
    """
    if grid.dims > 2:
        raise ValueError("the exhaustive oracle is limited to 2 dimensions")
    if any(c > 41 for c in grid.counts):
        raise ValueError("the exhaustive oracle is limited to 41 nodes per dimension")

    candidates = [np.zeros(grid.dims)]
    if np.any(sys.bounds.upper > 0) or np.any(sys.bounds.lower < 0):
        for corner in itertools.product(*zip(sys.bounds.lower, sys.bounds.upper)):
            candidates.append(np.asarray(corner))

    states = grid.flat_points().copy()
    reached = target.signed_distance(states) <= 0.0
    n_steps = int(round(horizon / dt))

    for _ in range(n_steps):
        active = ~reached
        if not active.any():
            break
        cur = states[active]
        best_next = None
        best_sd = None
        for d in candidates:
            nxt = _rk4_batch(sys, cur, np.broadcast_to(d, cur.shape), dt)
            sd = target.signed_distance(nxt)
            if best_sd is None:
                best_next, best_sd = nxt, sd
            else:
                better = sd < best_sd
                best_next = np.where(better[:, None], nxt, best_next)
                best_sd = np.where(better, sd, best_sd)
        states[active] = best_next
        newly = best_sd <= 0.0
        idx = np.where(active)[0]
        reached[idx[newly]] = True

    return reached.reshape(grid.counts)


def double_integrator_brt(x, v, r: float, d_max: float, horizon: float) -> np.ndarray:
    """Whether the double integrator x' = v, v' = d with |d| <= ``d_max``
    reaches the target |x| <= ``r`` within ``horizon`` from each state
    ``(x, v)`` under some disturbance: its exact backward reachable tube.

    From x > r the push d = -d_max gives the least x(t) at every t, and
    x(t) = x + v t - d_max t^2 / 2 is then concave, so over [0, horizon] it
    is least at an end: the state reaches the target if and only if
    x(horizon) <= r.  From x < -r the same holds mirrored.  This is the
    minimum-time problem of classical optimal control (Bryson & Ho,
    *Applied Optimal Control*, 1975).
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    fall = 0.5 * d_max * horizon ** 2
    return ((np.abs(x) <= r)
            | ((x > r) & (x + v * horizon - fall <= r))
            | ((x < -r) & (x + v * horizon + fall >= -r)))


def is_state_safe(report: VerificationReport, state) -> bool:
    """Off-grid safety query via the interpolated backward-tube value.

    The state must lie inside the initial set; safe means the interpolated
    union tube value is strictly positive there.
    """
    if report.brt_field is None or report.initial_set is None:
        raise ValueError("report carries no tube field for off-grid queries")
    s = np.asarray(state, dtype=float)
    if signed_distance(report.initial_set, s) > 0.0:
        raise ValueError(f"state {s} lies outside the initial set")
    return interpolate(report.brt_field, s) > 0.0


# ---------------------------------------------------------------------------
# The allocating stepper
# ---------------------------------------------------------------------------

def _shifted(values: np.ndarray, axis: int, up: bool) -> np.ndarray:
    """Each node's neighbour one node up (down) ``axis``; the last (first)
    node along the axis is its own."""
    n = values.shape[axis]
    keep = np.take(values, [n - 1] if up else [0], axis=axis)
    rest = np.take(values, range(1, n) if up else range(n - 1), axis=axis)
    return np.concatenate([rest, keep] if up else [keep, rest], axis=axis)


def box_filter(values: np.ndarray, reach, dtype) -> np.ndarray:
    """The min filter of the disturbance box: along each axis in turn,
    ``min(v, (1 - f) v + f v_up)`` for the upward reach ``f`` in cells and
    then the same downward, skipping a zero reach."""
    for axis, fractions in enumerate(reach):
        out = values
        for f, up in zip(fractions, (True, False)):
            if f:
                f = dtype(f)
                g = dtype(1) - f
                out = np.minimum(out, g * values + f * _shifted(values, axis, up))
        values = out
    return values


def departure_points(sys_cl, grid, dt, forward):
    """Where one explicit-midpoint step of length ``dt`` of the flow
    (reversed for a forward tube) carries each node, moved onto the grid's
    box: ``x + s f(x + s f(x) / 2)`` with ``s = -dt`` or ``dt``, and the
    node rate ``f(x)`` rounded to float32 as the solver stores it."""
    step = -dt if forward else dt
    points = grid.flat_points()
    rates = nominal_rate_batch(sys_cl, points).astype(np.float32).astype(float)
    mid = points + (0.5 * step) * rates
    return np.clip(points + step * nominal_rate_batch(sys_cl, mid), grid.lo, grid.hi)


def reference_solve(seed, sys_cl, config, grid, forward, dtype=np.float32, alpha_floor=None):
    """The semi-Lagrangian stepper with a fresh array per operation, on
    values of ``dtype``: ``(snapshots, steps_taken)``; ``alpha_floor`` is a
    per-axis floor under the wave speeds, as in the solver.

    Each step is ``V <- min(V, I[W](departure))`` with ``W`` the
    :func:`box_filter` of ``V`` and ``I`` ``geometry.interpolate_many`` in
    ``dtype``.  As in the solver, the rates, departure points and time
    accounting are float64; the stepped values start from the exact
    distance rounded to ``dtype``, and every snapshot, the seed's
    included, is the stepped values widened to float64."""
    speeds = wave_speeds(sys_cl, grid)
    if alpha_floor is not None:
        speeds = np.maximum(speeds, alpha_floor)
    steps = step_count(config.horizon, speeds, grid)
    dt = config.horizon / steps
    departures = departure_points(sys_cl, grid, dt, forward)
    b = sys_cl.bounds
    hi, lo = (-b.lower, -b.upper) if forward else (b.upper, b.lower)
    reach = [(min(1.0, dt * hi[i] / h), min(1.0, dt * -lo[i] / h))
             for i, h in enumerate(grid.spacing)]
    sign = 1.0 if forward else -1.0
    values = seed.signed_distance(grid.flat_points()).reshape(grid.counts).astype(dtype)
    snapshots = [(0.0, values.astype(np.float64))]
    for k in range(1, steps + 1):
        filtered = ScalarField(grid, box_filter(values, reach, dtype))
        moved = interpolate_many(filtered, departures, dtype).astype(dtype)
        values = np.minimum(values, moved.reshape(grid.counts))
        if k == steps:
            snapshots.append((sign * config.horizon, values.astype(np.float64)))
        elif k % config.snapshot_stride == 0:
            snapshots.append((sign * config.horizon * k / steps, values.astype(np.float64)))
    return snapshots, steps
