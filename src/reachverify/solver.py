"""Level-set evolution of reachable tubes on a grid.

The tube is the zero sublevel set of a value function evolved from the
exact signed distance of the seed set.  Each explicit step combines:

* first-order one-sided differences, closed at the boundary with
  zero-slope (copy) ghost values, which keep the update monotone up to the
  domain edge, so enlarging the disturbance box never shrinks a tube,
* a Lax-Friedrichs numerical Hamiltonian with per-dimension dissipation
  bounds ``alpha_i >= max |rate_i| + max(|d_i^-|, |d_i^+|)``,
* two-stage TVD Runge-Kutta time integration, and
* per-stage freezing ``min(0, H)`` so values never increase and the tube
  only grows; consecutive tube masks are therefore nested by construction.

The stepper works on flat arrays over the nodes in C order.  The
Hamiltonian's coefficients (rates, dissipation bounds, box bounds) do not
depend on the seed, so solves of one system on one grid can share one
read-only set from one rate scan.  Each running solve steps in its own set
of buffers, allocated before the solve starts; the step loop allocates no
array.  Along an axis of flat stride ``s`` (the product of the later node
counts) one zero-padded buffer of ``N + s`` entries holds both one-sided
differences: at flat node ``j`` the backward difference is ``diff[j]`` and
the forward one ``diff[j + s]``, and zeros at the first node along the
axis stand in for both copy ghosts.  Every operation is then a contiguous 1-D ufunc with an
output buffer.  The kernel keeps the operations and their order of the
allocating array expressions it replaced, so tubes are bitwise-identical
to theirs; a rewrite is allowed only where it is exact in IEEE arithmetic,
never a reciprocal of the spacing or a reassociated sum.  The exact
rewrites are:

* ``max |dV|`` as ``max(V_old - V_new)``, since no stage raises a value;
* the 1/2 of the gradient midpoint folded into the stored rates, box
  bounds and dissipation coefficients: halving a normal number is exact,
  so ``(p/2) r == p (r/2)``;
* products and sums updated in place (``p *= rate/2; p += box; H += p``),
  which round exactly as the expressions that wrote a fresh array;
* ``min(p d, -p d)`` as ``-|p| d`` when the box is symmetric
  (``lower == -upper``, the zero box included).

The last two may flip the sign of a zero term, never a bit of ``H``: it
starts at +0.0, and a sum is -0.0 only when both terms are, so ``H``, the
values, ``max |H|`` and every snapshot are unchanged.  The tests keep the
allocating form as the reference.

The kernel steps in one dtype, float32 (``_DTYPE``): the coefficients,
both fields and every scratch buffer.  At 45^3 the step is memory bound, and
float32 halves the bytes each ufunc streams.  Every scalar operand (the
spacing, ``dt``, the halved box and dissipation bounds) is cast to it once,
because under NumPy 2 a float64 scalar widens the whole ufunc it enters.
The rate scan, the seed's exact distance, the wave speeds ``alpha``,
:func:`cfl_dt` and the time accounting stay float64: each halved rate,
coefficient and seed value is rounded once when it is stored.  Every
snapshot, the seed snapshot included, is the stepped float32 field widened
to float64, exactly: the seed snapshot is the seed the kernel steps from,
rounded to float32.  Its tube mask is the exact distance's: rounding to
nearest keeps every sign, and only a distance in (0, 7e-46) would round
to zero.  The tubes are therefore the allocating form run in float32, bit
for bit, and ``scene.field_to_csv`` stores every snapshot in float32's
shortest text.  Against the float64 kernel the values move by at most
1.9e-6 on the benchmark's 45^3 ``air`` tubes and 2.4e-5 on its 101^2
``land`` tubes, and no mask or verdict of either workload changes; against
the allocating form in float64 a 41^3 ``air`` tube moves by 1.7e-6 and
land-sized tubes of a learned loop by 9.4e-6 (the tests allow 2e-5).  The first-order
scheme's own error is about a cell, 0.07 to 0.2 wide on those grids: the
rounding sits three to five orders of magnitude under it.

Several tubes of one system on one grid may use more than one CPU.  Tubes
of different targets are independent, so :func:`brt_workspaces` for
``tubes`` solves runs ``min(tubes, usable CPUs)`` of them at once, each in
a lane (a thread of its own), on a grid of at least ``_THREAD_NODES``
nodes, and one at a time below it; numpy releases the interpreter lock
inside its array loops.  A lane pays only when its array operations are
long enough to outweigh the interpreter's work between them.  Each lane
steps its solve in its own buffer set, made with the rest in the calling
thread, and every solve steps in the thread that calls it, so the tubes
are the same bits however many lanes run.

Measured with ``tools/thread_breakeven.py`` (float32 kernel, 60 steps,
median of 10 alternating pairs, 2 vCPUs), two lanes against one tube
after the other ran 0.68x at 151^2, 0.80x at 181^2, 0.97x at 193^2 and
201^2 and 1.26x at 251^2; 0.86x at 33^3, 0.81x at 35^3, 1.12x at 37^3,
1.26x at 41^3 and 1.41x at 45^3.  Over two such runs 35^3 read 0.81-1.03x
and 37^3 1.03-1.12x.  The break-even lies between 40 401 and 63 001 nodes
in 2-D and between 42 875 and 50 653 in 3-D, hence 44 000.  One solve is
not split across threads: cut into two slabs of axis-0 planes, the
benchmark's learned 45^3 ``air`` solves ran no faster than in one thread.

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

The stepper always minimizes the Hamiltonian over the disturbance box,
and the minimum has a closed form: each component contributes
``min(p_i d_i^+, p_i d_i^-)``, which for symmetric bounds is
``-|p_i| d_i^+``.

A solve hands each snapshot to its ``sink`` the moment it takes it: the
seed field, the field every ``snapshot_stride`` steps, and the final
field.  ``sink(time, field)`` returns what the ``TubeResult`` records for
that snapshot.  The default sink returns the field, so the result holds
every snapshot in memory.  ``scene.TubeWriter`` writes each one to the
tube's store file and returns the file name instead, so a solve holds its
workspace and one snapshot at a time; only the final field is kept.
"""

from __future__ import annotations

import contextlib
import math
import os
import queue
from dataclasses import dataclass

import numpy as np

from .dynamics import ClosedLoopSystem, nominal_rate_batch
from .error_bounds import DisturbanceBounds
from .geometry import Grid, ScalarField, ShapeSet, level_set_from_shapes, zero_sublevel_mask

__all__ = [
    "SolverConfig",
    "TubeResult",
    "brt_workspaces",
    "cfl_dt",
    "solve_brt",
    "solve_frt",
]

_MAX_STEPS = 2_000_000

# The fewest nodes each lane's array operations must cover, from the
# measured break-evens in the module notes.
_THREAD_NODES = 44000

# The dtype of every array the kernel steps in.  See the module notes.
_DTYPE = np.float32


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for a tube solve.

    ``cfl_factor`` is the step as a fraction of the monotone limit
    ``dt * sum_i alpha_i / h_i <= 1`` of Lax-Friedrichs with TVD-RK2
    (see :func:`cfl_dt`); the default 0.7 keeps a margin below it.
    ``snapshot_stride`` counts steps, so a larger ``cfl_factor`` spaces
    snapshots further apart in time.  Every solve runs to ``horizon``:
    an early stop would under-approximate the tube.
    """

    horizon: float = 10.0
    cfl_factor: float = 0.7
    snapshot_stride: int = 10

    def __post_init__(self):
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if not 0 < self.cfl_factor <= 1:
            raise ValueError("cfl_factor must lie in (0, 1]")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")


@dataclass(frozen=True)
class TubeResult:
    """Time-stamped snapshots, the final field, and solve diagnostics.

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
    max_abs_h: float
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
# Wave speeds and the step size
# ---------------------------------------------------------------------------

def _wave_speeds(rates: np.ndarray, bounds: DisturbanceBounds) -> np.ndarray:
    return np.max(np.abs(rates), axis=0) + np.maximum(
        np.abs(bounds.upper), np.abs(bounds.lower)
    )


def _rate_scan(sys: ClosedLoopSystem, bounds: DisturbanceBounds, grid: Grid,
               out: np.ndarray | None = None, scale: float = 1.0) -> np.ndarray:
    """Wave speeds of a full-grid rate scan, one block of nodes at a time;
    with ``out``, ``scale`` times the rates also land in that
    ``(n, num_nodes)`` buffer.

    The running maximum of the blocks' wave speeds is bitwise
    ``_wave_speeds`` of all the rates: rounding ``m + c`` is monotone in
    ``m``.
    """
    alpha = np.zeros(grid.dims)
    for a, points in grid.point_blocks():
        rates = nominal_rate_batch(sys, points)
        np.maximum(alpha, _wave_speeds(rates, bounds), out=alpha)
        if out is not None:
            np.multiply(rates.T, scale, out=out[:, a:a + len(points)])
    return alpha


def cfl_dt(config: SolverConfig, alpha, grid: Grid) -> float:
    """Stable explicit step ``cfl_factor / sum_i (alpha_i / spacing_i)``.

    The scheme is monotone for ``dt * sum_i alpha_i / spacing_i <= 1``
    (Osher & Shu, SIAM J. Numer. Anal. 1991), which ``cfl_factor <= 1``
    keeps.  All-zero wave speeds leave ``H`` at zero everywhere, so
    nothing moves and one step spans the whole horizon.
    """
    alpha = np.asarray(alpha, dtype=float)
    denom = float(np.sum(alpha / grid.spacing))
    if denom <= 0.0:
        return config.horizon
    return config.cfl_factor / denom


# ---------------------------------------------------------------------------
# Time stepping
# ---------------------------------------------------------------------------

def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _lanes(grid: Grid, tubes: int) -> int:
    """How many of ``tubes`` solves on ``grid`` run at once, each on a
    thread of its own, by the per-thread rule of the module notes."""
    return min(tubes, _usable_cpus()) if grid.num_nodes >= _THREAD_NODES else 1


class _Coefficients:
    """The Hamiltonian's coefficients for solves of one system on one grid
    in one direction: the halved rates of one blocked rate scan, the
    dissipation bounds ``alpha`` and their halves, the halved box bounds
    and whether the box is symmetric.

    The evolution is always the backward, reach-unsafe one; a forward tube
    is the backward tube of the reversed flow with the disturbance box
    reflected, which keeps the extremum cooperative so the tube
    over-approximates.  None of the target's data enters, so every solve
    of the system on the grid reads the same coefficients, and the arrays
    are read-only so that concurrent solves can share them.
    """

    def __init__(self, sys: ClosedLoopSystem, grid: Grid, forward: bool, alpha_floor=None):
        n = sys.n_state
        if n != grid.dims:
            raise ValueError("system state dimension does not match grid dimension")
        # Every coefficient of the Hamiltonian is stored halved, so the
        # kernel never halves the central difference.
        self.half_rate = np.empty((n, grid.num_nodes), _DTYPE)
        alpha = _rate_scan(sys, sys.bounds, grid, self.half_rate, -0.5 if forward else 0.5)
        upper, lower = sys.bounds.upper, sys.bounds.lower
        hi, lo = (-lower, -upper) if forward else (upper, lower)
        self.half_hi, self.half_lo = (0.5 * hi).astype(_DTYPE), (0.5 * lo).astype(_DTYPE)
        self.symmetric = bool(np.array_equal(lower, -upper))
        self.grid = grid
        if alpha_floor is not None:
            floor = np.array(alpha_floor, dtype=float)  # made read-only below
            if np.any(floor < alpha - 1e-12):
                raise ValueError("alpha_floor must dominate the computed wave-speed bounds")
            alpha = floor
        self.alpha = alpha
        self.half_alpha = (0.5 * alpha).astype(_DTYPE)
        self.spacing = grid.spacing.astype(_DTYPE)
        self.strides = [math.prod(grid.counts[axis + 1:]) for axis in range(n)]
        for array in (self.half_rate, self.half_hi, self.half_lo, self.alpha, self.half_alpha,
                      self.spacing):
            array.flags.writeable = False


class _Workspace:
    """One solve's buffers over shared coefficients: the whole flat fields
    ``values`` and ``_next`` in C order and the kernel's scratch buffers.
    Everything is allocated here, and ``rk2_step`` advances ``values`` in
    place.

    ``diff`` holds the nodes plus the largest stride.  Its zeros sit at the
    first node along each axis and past the last node.
    """

    def __init__(self, coefficients: _Coefficients):
        self.coefficients = coefficients
        size = coefficients.grid.num_nodes
        self.values = np.empty(size, _DTYPE)
        self._next = np.empty(size, _DTYPE)
        self.h, self.p, self.a = (np.empty(size, _DTYPE) for _ in range(3))
        self.b = None if coefficients.symmetric else np.empty(size, _DTYPE)
        # Shared by every axis; entries past the last node stay zero for good.
        self.diff = np.zeros(size + max(coefficients.strides), _DTYPE)

    def load(self, field: ScalarField) -> None:
        """Start a solve from ``field``, each value rounded to the kernel's
        dtype."""
        self.values[:] = field.values.ravel()

    def snapshot(self, time_tag: float) -> ScalarField:
        """A copy of ``values`` widened to a float64 field; the buffers are
        reused."""
        grid = self.coefficients.grid
        return ScalarField(grid, self.values.reshape(grid.counts), time_tag)

    def _differences(self, v: np.ndarray, axis: int):
        # Backward differences at node i sit in diff[i], forward ones in
        # diff[i + s]; the first node along the axis holds a zero slope,
        # which is both its own copy ghost and the last node's.
        c = self.coefficients
        s, size, diff = c.strides[axis], v.size, self.diff
        d = diff[s:size]
        np.subtract(v[s:size], v[:size - s], out=d)
        np.divide(d, c.spacing[axis], out=d)
        diff[:size].reshape(-1, c.grid.counts[axis], s)[:, 0, :] = 0.0
        return diff[:size], diff[s:size + s]

    def hamiltonian(self, v: np.ndarray) -> np.ndarray:
        """Dissipated Hamiltonian of the flat field ``v``, in a buffer that
        the next call overwrites.

        The update is V += dt * min(0, H_hat).  The evolution variable runs
        opposite to physical time, so the Lax-Friedrichs term enters with
        a plus sign here; distributing the update shows it acts as forward
        diffusion.  Equivalent to one full step of the unfrozen
        reversed-flow PDE clamped by min(V_new, V_old).
        """
        c = self.coefficients
        h, p, a, b = self.h, self.p, self.a, self.b
        h.fill(0.0)
        for axis in range(c.grid.dims):
            pm, pp = self._differences(v, axis)
            np.add(pm, pp, out=p)
            # The box term goes to ``a``, free until the dissipation term.
            if c.symmetric:
                # min(p d, -p d) with d = hi/2 >= 0
                np.absolute(p, out=a)
                np.multiply(a, -c.half_hi[axis], out=a)
            else:
                np.multiply(p, c.half_hi[axis], out=b)
                np.multiply(p, c.half_lo[axis], out=a)
                np.minimum(b, a, out=a)
            np.multiply(p, c.half_rate[axis], out=p)
            np.add(p, a, out=p)
            np.add(h, p, out=h)
            np.subtract(pp, pm, out=a)
            np.multiply(a, c.half_alpha[axis], out=a)
            np.add(h, a, out=h)
        return h

    def _advance(self, v: np.ndarray, out: np.ndarray, dt) -> float:
        # out = v + dt * min(0, H_hat), from the Hamiltonian of the last
        # ``hamiltonian`` call; returns its max |H_hat|.
        h = self.h
        h_abs = max(float(h.max()), -float(h.min()))
        np.minimum(0.0, h, out=h)
        np.multiply(h, dt, out=h)
        np.add(v, h, out=out)
        return h_abs

    def rk2_step(self, dt: float):
        """Advance ``values`` one TVD-RK2 freezing step.

        Returns the step's max |H_hat| and max |change|.  The change is
        taken as ``max(values - new)``: each stage only lowers values, so
        ``new <= values`` holds exactly, and a NaN or -inf among the new
        values makes it non-finite.
        """
        values, new = self.values, self._next
        dt = _DTYPE(dt)  # a float64 scalar would widen every ufunc it enters
        self.hamiltonian(values)
        h_abs = self._advance(values, new, dt)
        self.hamiltonian(new)
        h_abs = max(h_abs, self._advance(new, new, dt))
        # new = (values + new) / 2
        np.add(values, new, out=new)
        np.multiply(new, 0.5, out=new)
        np.subtract(values, new, out=self.h)
        delta = float(self.h.max())
        self.values, self._next = new, values
        return h_abs, delta


class _Workspaces:
    """The coefficients of one system's tubes on one grid and a buffer set
    over them for each of the ``lanes`` solves that may run at once.

    Everything is allocated here, in the calling thread, and a solve takes
    a free set for its duration and gives it back: a solve on a worker
    thread only steps, and solves run one after another reuse one set.  A
    solve waits while every set is taken.  ``_lanes`` decides from the
    number of ``tubes`` how many run.
    """

    def __init__(self, sys: ClosedLoopSystem, grid: Grid, forward: bool, tubes: int = 1,
                 alpha_floor=None):
        if tubes < 1:
            raise ValueError("tubes must be >= 1")
        self.system = sys
        self.coefficients = _Coefficients(sys, grid, forward, alpha_floor)
        self._free = queue.SimpleQueue()
        self.lanes = _lanes(grid, tubes)
        for _ in range(self.lanes):
            self._free.put(_Workspace(self.coefficients))

    @contextlib.contextmanager
    def take(self):
        """Lend a free buffer set for the ``with`` block."""
        workspace = self._free.get()
        try:
            yield workspace
        finally:
            self._free.put(workspace)


def brt_workspaces(sys: ClosedLoopSystem, grid: Grid, tubes: int) -> _Workspaces:
    """Workspaces for ``tubes`` backward solves of ``sys`` on ``grid`` from
    one rate scan: pass them to every ``solve_brt`` of the system on the
    grid, whatever its target, and run up to ``lanes`` of the solves at
    once."""
    return _Workspaces(sys, grid, False, tubes)


def _check_inside_grid(shapes: ShapeSet, grid: Grid, label: str) -> None:
    lo, hi = shapes.bounding_box()
    if np.any(lo < grid.lo) or np.any(hi > grid.hi):
        raise ValueError(f"{label} set extends outside the grid bounds")


def _keep(time: float, field: ScalarField) -> ScalarField:
    return field


def _solve(seed: ShapeSet, sys: ClosedLoopSystem, config: SolverConfig, grid: Grid,
           forward: bool, alpha_floor=None, sink=_keep, workspaces=None) -> TubeResult:
    _check_inside_grid(seed, grid, "seed")
    if workspaces is None:
        workspaces = _Workspaces(sys, grid, forward, alpha_floor=alpha_floor)
    elif (workspaces.system is not sys or workspaces.coefficients.grid is not grid
          or alpha_floor is not None):
        raise ValueError("the workspaces were made for another system or grid, "
                         "or without alpha_floor")
    dt_nom = cfl_dt(config, workspaces.coefficients.alpha, grid)
    if config.horizon / dt_nom > _MAX_STEPS:
        raise ValueError("configuration requires an unreasonable number of steps")
    sign = 1.0 if forward else -1.0
    end = config.horizon * (1 - 1e-12)

    with workspaces.take() as ws:
        # The seed snapshot is the seed as the kernel steps from it, rounded
        # to float32, so every snapshot of a tube is a float32 field.
        ws.load(level_set_from_shapes(grid, seed))
        snapshots = [(0.0, sink(0.0, ws.snapshot(0.0)))]
        max_h = 0.0
        tau = 0.0
        steps = 0

        while tau < end:
            dt = min(dt_nom, config.horizon - tau)
            h_seen, delta = ws.rk2_step(dt)
            if not math.isfinite(delta):
                raise RuntimeError(f"tube solve produced non-finite values at step {steps}")
            steps += 1
            tau += dt
            max_h = max(max_h, h_seen)
            if steps % config.snapshot_stride == 0 and tau < end:
                snapshots.append((sign * tau, sink(sign * tau, ws.snapshot(sign * tau))))

        # The last step's snapshot is the final field, whatever the stride.
        final = ws.snapshot(sign * tau)
    snapshots.append((sign * tau, sink(sign * tau, final)))
    return TubeResult(
        snapshots=tuple(snapshots),
        config=config,
        grid=grid,
        direction="forward" if forward else "backward",
        steps_taken=steps,
        max_abs_h=max_h,
        final=final,
    )


def solve_brt(target: ShapeSet, sys: ClosedLoopSystem, config: SolverConfig, grid: Grid,
              alpha_floor=None, sink=_keep, workspaces=None) -> TubeResult:
    """Backward reachable tube seeded from the target set's distance field.

    Snapshot masks are nested nondecreasing toward ``-horizon``; the final
    mask is the set of states that can reach the target within the horizon
    under some admissible disturbance (the disturbance helps reach it).
    ``sink`` receives each snapshot as it is taken (see the module notes).
    ``workspaces`` from :func:`brt_workspaces` for ``sys`` and ``grid``
    lets solves for several targets share one rate scan; without them the
    solve makes its own.
    """
    return _solve(target, sys, config, grid, False, alpha_floor, sink, workspaces)


def solve_frt(initial: ShapeSet, sys: ClosedLoopSystem, config: SolverConfig, grid: Grid,
              alpha_floor=None, sink=_keep) -> TubeResult:
    """Forward reachable tube grown from the initial set.

    The disturbance is extremized to enlarge the tube, so the result
    over-approximates the states reachable under some admissible
    disturbance; an under-approximation could falsely certify safety.
    ``sink`` receives each snapshot as it is taken (see the module notes).
    """
    return _solve(initial, sys, config, grid, True, alpha_floor, sink)
