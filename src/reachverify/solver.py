"""Level-set evolution of reachable tubes on a grid.

The tube is the zero sublevel set of a value function evolved from the
exact signed distance of the seed set.  Each explicit step combines:

* first-order one-sided differences (the stepper closes the boundary with
  zero-slope ghost values, which keeps the update monotone up to the
  domain edge; the standalone gradient routine fills each boundary entry
  with the adjacent interior difference instead, exact for linear fields),
* a Lax-Friedrichs numerical Hamiltonian with per-dimension dissipation
  bounds ``alpha_i >= max |rate_i| + max(|d_i^-|, |d_i^+|)``,
* two-stage TVD Runge-Kutta time integration, and
* per-stage freezing ``min(0, H)`` so values never increase and the tube
  only grows; consecutive tube masks are therefore nested by construction.

The entry point fixes the tube's direction and the disturbance sense, and
both are the conservative choice for a safety question:

* ``solve_brt`` integrates the terminal-value problem toward negative
  times from the target's distance field, with the disturbance helping
  states reach the target (it minimizes the Hamiltonian), so the tube
  holds every state that reaches the target under some admissible
  disturbance.
* ``solve_frt`` solves the same backward problem on the reversed vector
  field, with the disturbance box reflected, seeded from the initial set;
  the disturbance helps the tube grow, so it over-approximates everything
  reachable under some admissible disturbance.

The disturbance extremum over its box has a closed form: each component
contributes ``max(p_i d_i^+, p_i d_i^-)`` when maximizing the Hamiltonian
(seed set is a goal) and the minimum of the two when minimizing (seed set
is an unsafe region), which for symmetric bounds is ``+/- |p_i| d_i^+``.
The tube stepper always minimizes; the scalar references below take the
sense as their ``mode`` argument.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import ClosedLoopSystem, nominal_rate, nominal_rate_batch
from .error_bounds import DisturbanceBounds
from .geometry import Grid, ScalarField, ShapeSet, level_set_from_shapes, zero_sublevel_mask

__all__ = [
    "SolverConfig",
    "TubeResult",
    "upwind_gradients",
    "optimal_disturbance",
    "analytic_hamiltonian",
    "dissipation_coefficients",
    "lax_friedrichs_H",
    "cfl_dt",
    "step",
    "solve_brt",
    "solve_frt",
]

_MODES = ("reach_goal", "reach_unsafe")
_MAX_STEPS = 2_000_000


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for a tube solve.

    ``convergence_eps`` stops early once the largest per-step value change
    falls below it; ``None`` uses ``1e-6`` times the domain diameter.
    """

    horizon: float
    cfl_factor: float = 0.5
    snapshot_stride: int = 10
    convergence_eps: float | None = None

    def __post_init__(self):
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if not 0 < self.cfl_factor <= 1:
            raise ValueError("cfl_factor must lie in (0, 1]")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")
        if self.convergence_eps is not None and self.convergence_eps < 0:
            raise ValueError("convergence_eps must be >= 0")


@dataclass(frozen=True)
class TubeResult:
    """Time-stamped value-function snapshots plus solve diagnostics.

    Snapshot times run 0 to -T for backward tubes and 0 to +T for forward
    tubes; the first snapshot is always the seed field and the last the
    final field.  ``direction`` is ``"backward"`` or ``"forward"``.
    """

    snapshots: tuple
    config: SolverConfig
    grid: Grid
    direction: str
    steps_taken: int
    max_abs_h: float
    converged_early: bool

    def final_field(self) -> ScalarField:
        return self.snapshots[-1][1]

    def final_mask(self) -> np.ndarray:
        return zero_sublevel_mask(self.final_field())

    def masks(self):
        return [(t, zero_sublevel_mask(f)) for t, f in self.snapshots]

    @property
    def times(self) -> list:
        return [t for t, _ in self.snapshots]


# ---------------------------------------------------------------------------
# Spatial derivatives
# ---------------------------------------------------------------------------

def _one_sided_diffs(values: np.ndarray, axis: int, h: float):
    """Backward and forward differences with zero-slope (copy) ghost values.

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
    zeros = np.zeros(zero_shape)
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


# ---------------------------------------------------------------------------
# Hamiltonian pieces
# ---------------------------------------------------------------------------

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


def _wave_speeds(rates: np.ndarray, bounds: DisturbanceBounds) -> np.ndarray:
    return np.max(np.abs(rates), axis=0) + np.maximum(
        np.abs(bounds.upper), np.abs(bounds.lower)
    )


def dissipation_coefficients(
    sys: ClosedLoopSystem, bounds: DisturbanceBounds, grid: Grid
) -> np.ndarray:
    """Per-dimension bounds on ``|dH/dp_i|`` from a full-grid rate scan.

    The Hamiltonian is piecewise linear in the costate, so
    ``|rate_i| + max(|d_i^-|, d_i^+)`` maximized over all nodes bounds the
    derivative exactly on the sampled set.
    """
    return _wave_speeds(nominal_rate_batch(sys, grid.flat_points()), bounds)


def lax_friedrichs_H(s, p_minus, p_plus, sys: ClosedLoopSystem, mode: str, alpha) -> float:
    """Dissipated numerical Hamiltonian at one state.

    Evaluates the analytic Hamiltonian at the gradient midpoint and
    subtracts ``sum_i alpha_i (p_i^+ - p_i^-) / 2``.
    """
    pm = np.asarray(p_minus, dtype=float)
    pp = np.asarray(p_plus, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha < 0):
        raise ValueError("dissipation coefficients must be nonnegative")
    h_mid = analytic_hamiltonian(s, 0.5 * (pm + pp), sys, mode)
    return float(h_mid - np.sum(alpha * (pp - pm) * 0.5))


def cfl_dt(config: SolverConfig, alpha, grid: Grid) -> float:
    """Stable explicit step ``cfl_factor / sum_i (alpha_i / spacing_i)``.

    Degenerate all-zero wave speeds fall back to one hundredth of the
    horizon.
    """
    alpha = np.asarray(alpha, dtype=float)
    denom = float(np.sum(alpha / grid.spacing))
    if denom <= 0.0:
        return config.horizon / 100.0
    return config.cfl_factor / denom


# ---------------------------------------------------------------------------
# Time stepping
# ---------------------------------------------------------------------------

class _Workspace:
    """Precomputed grid-resident quantities for one tube solve.

    The evolution is always the backward, reach-unsafe one; a forward tube
    is the backward tube of the reversed flow with the disturbance box
    reflected, which keeps the extremum cooperative so the tube
    over-approximates.
    """

    def __init__(self, sys: ClosedLoopSystem, grid: Grid, forward: bool, alpha_floor=None):
        n = sys.n_state
        if n != grid.dims:
            raise ValueError("system state dimension does not match grid dimension")
        rates = nominal_rate_batch(sys, grid.flat_points())
        rate_grid = rates.T.reshape((n, *grid.counts))
        if forward:
            self.rate_grid = -rate_grid
            self.hi = -sys.bounds.lower
            self.lo = -sys.bounds.upper
        else:
            self.rate_grid = rate_grid
            self.hi = sys.bounds.upper
            self.lo = sys.bounds.lower
        self.grid = grid
        alpha = _wave_speeds(rates, sys.bounds)
        if alpha_floor is not None:
            floor = np.asarray(alpha_floor, dtype=float)
            if np.any(floor < alpha - 1e-12):
                raise ValueError("alpha_floor must dominate the computed wave-speed bounds")
            alpha = floor
        self.alpha = alpha

    def numerical_hamiltonian(self, values: np.ndarray) -> np.ndarray:
        # Dissipated Hamiltonian for the update V += dt * min(0, H_hat).
        # The evolution variable runs opposite to physical time, so the
        # Lax-Friedrichs term enters with a plus sign here; distributing the
        # update shows it acts as forward diffusion.  Equivalent to one full
        # step of the unfrozen reversed-flow PDE clamped by min(V_new, V_old).
        h_total = np.zeros_like(values)
        for axis in range(self.grid.dims):
            pm, pp = _one_sided_diffs(values, axis, self.grid.spacing[axis])
            pmid = 0.5 * (pm + pp)
            h_total += pmid * self.rate_grid[axis] + np.minimum(
                pmid * self.hi[axis], pmid * self.lo[axis]
            )
            h_total += self.alpha[axis] * 0.5 * (pp - pm)
        return h_total

    def rhs(self, values: np.ndarray):
        h_hat = self.numerical_hamiltonian(values)
        return np.minimum(0.0, h_hat), float(np.max(np.abs(h_hat)))

    def rk2_step(self, values: np.ndarray, dt: float):
        r1, h1 = self.rhs(values)
        v1 = values + dt * r1
        r2, h2 = self.rhs(v1)
        v2 = v1 + dt * r2
        return 0.5 * (values + v2), max(h1, h2)


def step(field: ScalarField, sys: ClosedLoopSystem, config: SolverConfig, dt: float) -> ScalarField:
    """One backward TVD-RK2 freezing step; values never increase pointwise.

    The time tag moves by ``-dt``.  A forward step is a backward step of
    the reversed system (negated rates, reflected disturbance box).
    Raises on steps beyond the CFL bound.
    """
    ws = _Workspace(sys, field.grid, False)
    limit = cfl_dt(config, ws.alpha, field.grid)
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    if dt > limit * (1 + 1e-9):
        raise ValueError(f"dt={dt} violates the CFL bound {limit}")
    new_values, _ = ws.rk2_step(field.values, dt)
    return ScalarField(field.grid, new_values, field.time_tag - dt)


def _check_inside_grid(shapes: ShapeSet, grid: Grid, label: str) -> None:
    lo, hi = shapes.bounding_box()
    if np.any(lo < grid.lo) or np.any(hi > grid.hi):
        raise ValueError(f"{label} set extends outside the grid bounds")


def _solve(seed: ShapeSet, sys: ClosedLoopSystem, config: SolverConfig, grid: Grid,
           forward: bool, alpha_floor=None) -> TubeResult:
    _check_inside_grid(seed, grid, "seed")
    ws = _Workspace(sys, grid, forward, alpha_floor)
    dt_nom = cfl_dt(config, ws.alpha, grid)
    if config.horizon / dt_nom > _MAX_STEPS:
        raise ValueError("configuration requires an unreasonable number of steps")
    eps = config.convergence_eps
    if eps is None:
        eps = 1e-6 * float(np.linalg.norm(grid.hi - grid.lo))
    sign = 1.0 if forward else -1.0

    values = level_set_from_shapes(grid, seed).values
    snapshots = [(0.0, ScalarField(grid, values, 0.0))]
    max_h = 0.0
    tau = 0.0
    steps = 0
    last_snap_tau = 0.0
    converged = False

    while tau < config.horizon * (1 - 1e-12):
        dt = min(dt_nom, config.horizon - tau)
        new_values, h_seen = ws.rk2_step(values, dt)
        if not np.isfinite(new_values).all():
            raise RuntimeError(f"tube solve produced non-finite values at step {steps}")
        steps += 1
        tau += dt
        max_h = max(max_h, h_seen)
        delta = float(np.max(np.abs(new_values - values)))
        values = new_values
        if steps % config.snapshot_stride == 0:
            snapshots.append((sign * tau, ScalarField(grid, values, sign * tau)))
            last_snap_tau = tau
        if delta < eps:
            converged = True
            break

    if last_snap_tau != tau:
        snapshots.append((sign * tau, ScalarField(grid, values, sign * tau)))

    return TubeResult(
        snapshots=tuple(snapshots),
        config=config,
        grid=grid,
        direction="forward" if forward else "backward",
        steps_taken=steps,
        max_abs_h=max_h,
        converged_early=converged,
    )


def solve_brt(target: ShapeSet, sys: ClosedLoopSystem, config: SolverConfig, grid: Grid,
              alpha_floor=None) -> TubeResult:
    """Backward reachable tube seeded from the target set's distance field.

    Snapshot masks are nested nondecreasing toward ``-horizon``; the final
    mask is the set of states that can reach the target within the horizon
    under some admissible disturbance (the disturbance helps reach it).
    """
    return _solve(target, sys, config, grid, False, alpha_floor)


def solve_frt(initial: ShapeSet, sys: ClosedLoopSystem, config: SolverConfig, grid: Grid,
              alpha_floor=None) -> TubeResult:
    """Forward reachable tube grown from the initial set.

    The disturbance is extremized to enlarge the tube, so the result
    over-approximates the states reachable under some admissible
    disturbance; an under-approximation could falsely certify safety.
    """
    return _solve(initial, sys, config, grid, True, alpha_floor)
