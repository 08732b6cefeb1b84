"""Trajectory-level ground truth, independent of the PDE solver.

Everything here answers reachability questions by integrating actual
trajectories: fixed-step RK4 rollouts with pluggable disturbance
strategies and Monte-Carlo estimation of the safe initial states, the
cross-check the tubes are compared with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import ClosedLoopSystem, nominal_rate_batch, rk4_increment
from .error_bounds import DisturbanceBounds
from .geometry import Grid, ShapeSet, signed_distance

__all__ = [
    "Trajectory",
    "MonteCarloResult",
    "rollout",
    "mc_ground_truth",
    "sample_in_shapes",
]


@dataclass(frozen=True)
class Trajectory:
    """Sampled closed-loop trajectory.

    ``actions[i]`` and ``disturbances[i]`` are held over
    ``[times[i], times[i+1]]``, so they have one entry fewer than the
    state and time arrays.
    """

    times: np.ndarray
    states: np.ndarray
    actions: np.ndarray
    disturbances: np.ndarray
    terminal: str
    left_domain: bool = False

    def __post_init__(self):
        if not (len(self.times) == len(self.states) == len(self.actions) + 1):
            raise ValueError("trajectory arrays are misaligned")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("trajectory times must be strictly increasing")

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _rk4_batch(sys: ClosedLoopSystem, states: np.ndarray, d: np.ndarray, dt: float) -> np.ndarray:
    # Disturbance held constant over the step (zero-order hold).
    return states + rk4_increment(lambda s: nominal_rate_batch(sys, s) + d, states, dt)


def _draw_disturbance(strategy, bounds: DisturbanceBounds, state, t, rng) -> np.ndarray:
    if strategy == "zero":
        return np.zeros(bounds.dims)
    if strategy == "random":
        if rng is None:
            raise ValueError("the random disturbance strategy needs an rng")
        return rng.uniform(bounds.lower, bounds.upper)
    if callable(strategy):
        d = np.asarray(strategy(state, t), dtype=float)
        if not bounds.contains(d):
            raise ValueError(f"disturbance strategy returned {d} outside the bounds")
        return d
    raise ValueError(f"unknown disturbance strategy {strategy!r}")


def rollout(
    sys: ClosedLoopSystem,
    s0,
    horizon: float,
    dt: float,
    disturbance_strategy="zero",
    obstacles: ShapeSet | None = None,
    goal: ShapeSet | None = None,
    rng: np.random.Generator | None = None,
    domain: Grid | None = None,
) -> Trajectory:
    """Fixed-step RK4 rollout of the closed-loop system.

    Stops early when an obstacle is hit (signed distance <= 0) or the goal
    is entered; otherwise runs the full horizon.  Leaving the domain box is
    flagged on the result but does not stop integration.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    s = np.asarray(s0, dtype=float).copy()
    if s.shape != (sys.n_state,):
        raise ValueError(f"s0 must have shape ({sys.n_state},)")

    times = [0.0]
    states = [s.copy()]
    actions = []
    disturbances = []
    left = False
    terminal = "horizon_exhausted"

    def _inside(shapes):
        return shapes is not None and signed_distance(shapes, s) <= 0.0

    if _inside(obstacles):
        terminal = "hit_obstacle"
    elif _inside(goal):
        terminal = "reached_goal"
    else:
        n_steps = int(round(horizon / dt))
        for k in range(n_steps):
            d = _draw_disturbance(disturbance_strategy, sys.bounds, s, k * dt, rng)
            a = sys.policy.batch(s[None, :])[0]
            s = _rk4_batch(sys, s[None, :], d[None, :], dt)[0]
            times.append((k + 1) * dt)
            states.append(s.copy())
            actions.append(a)
            disturbances.append(d)
            if domain is not None and (np.any(s < domain.lo) or np.any(s > domain.hi)):
                left = True
            if _inside(obstacles):
                terminal = "hit_obstacle"
                break
            if _inside(goal):
                terminal = "reached_goal"
                break

    actions_arr = (
        np.asarray(actions) if actions else np.empty((0, sys.policy.bounds.dims))
    )
    disturbances_arr = (
        np.asarray(disturbances) if disturbances else np.empty((0, sys.n_state))
    )
    return Trajectory(
        times=np.asarray(times),
        states=np.asarray(states),
        actions=actions_arr,
        disturbances=disturbances_arr,
        terminal=terminal,
        left_domain=left,
    )


# ---------------------------------------------------------------------------
# Monte-Carlo safe-set estimation
# ---------------------------------------------------------------------------

def sample_in_shapes(shapes: ShapeSet, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform samples inside a shape union via bounding-box rejection."""
    lo, hi = shapes.bounding_box()
    out = np.empty((count, shapes.dims))
    filled = 0
    while filled < count:
        batch = rng.uniform(lo, hi, size=(max(count, 64), shapes.dims))
        inside = shapes.signed_distance(batch) <= 0.0
        take = batch[inside][: count - filled]
        out[filled : filled + len(take)] = take
        filled += len(take)
    return out


@dataclass(frozen=True)
class MonteCarloResult:
    samples: np.ndarray
    safe: np.ndarray
    horizon: float
    dt: float
    num_draws: int
    seed: int

    @property
    def safe_fraction(self) -> float:
        return float(np.mean(self.safe))


def _disturbance_sequences(bounds, n_steps, sample_idx, draw_idx, seed):
    # Each (sample, draw) pair owns an independent stream keyed by its
    # indices, so enlarging the draw count only appends new sequences.
    rng = np.random.default_rng([seed, 1009, sample_idx, draw_idx])
    return rng.uniform(bounds.lower, bounds.upper, size=(n_steps, bounds.dims))


def mc_ground_truth(
    sys: ClosedLoopSystem,
    initial: ShapeSet,
    obstacles: ShapeSet,
    horizon: float,
    dt: float,
    num_samples: int,
    num_disturbance_draws: int = 16,
    include_zero_draw: bool = True,
    seed: int = 0,
) -> MonteCarloResult:
    """Per-sample safety flags from batched trajectory rollouts.

    A start is safe when none of its rollouts, across all disturbance
    draws, touches any obstacle within the horizon.  Fully reproducible
    from the seed.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    if num_disturbance_draws < 1 and not include_zero_draw:
        raise ValueError("no rollout would run: 0 disturbance draws and include_zero_draw "
                         "is false")
    rng = np.random.default_rng([seed, 7])
    samples = sample_in_shapes(initial, num_samples, rng)
    n_steps = int(round(horizon / dt))

    hit = obstacles.signed_distance(samples) <= 0.0

    # None is the zero draw.  A draw's sequences are built when it runs,
    # and only for the starts no earlier draw has hit.
    draws = ([None] if include_zero_draw else []) + list(range(num_disturbance_draws))
    for j in draws:
        if hit.all():
            break
        idx = np.flatnonzero(~hit)
        seq = None if j is None else np.stack(
            [_disturbance_sequences(sys.bounds, n_steps, i, j, seed) for i in idx]
        )
        rows = np.arange(len(idx))  # rows of seq still running
        states = samples[idx]
        for k in range(n_steps):
            if len(states) == 0:
                break
            d = np.zeros_like(states) if seq is None else seq[rows, k]
            states = _rk4_batch(sys, states, d, dt)
            now_hit = obstacles.signed_distance(states) <= 0.0
            if now_hit.any():
                hit[idx[rows[now_hit]]] = True
                states = states[~now_hit]
                rows = rows[~now_hit]

    return MonteCarloResult(
        samples=samples,
        safe=~hit,
        horizon=horizon,
        dt=dt,
        num_draws=num_disturbance_draws,
        seed=seed,
    )
