"""Trajectory-level ground truth, independent of the PDE solver.

Monte-Carlo estimation of the safe initial states by integrating actual
trajectories: fixed-step RK4 rollouts of sampled starts under the zero
disturbance and random disturbance sequences, the cross-check the tubes
are compared with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import ClosedLoopSystem, nominal_rate_batch, rk4_increment
from .geometry import ShapeSet

__all__ = [
    "MonteCarloResult",
    "mc_ground_truth",
    "sample_in_shapes",
]


def _rk4_batch(sys: ClosedLoopSystem, states: np.ndarray, d: np.ndarray, dt: float) -> np.ndarray:
    # Disturbance held constant over the step (zero-order hold).
    return states + rk4_increment(lambda s: nominal_rate_batch(sys, s) + d, states, dt)


def _rollout_steps(horizon: float, dt: float, num_samples: int, draws: int = 0) -> int:
    """The ``round(horizon / dt)`` fixed steps a rollout takes; a ValueError
    unless ``horizon`` and ``dt`` are finite and positive and give at
    least one step, there is a sample and the draw count is not negative."""
    if num_samples < 1:
        raise ValueError(f"num_samples must be >= 1, not {num_samples}")
    if draws < 0:
        raise ValueError(f"the number of disturbance draws must be >= 0, not {draws}")
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be finite and > 0, not {horizon}")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, not {dt}")
    steps = horizon / dt
    if not (math.isfinite(steps) and round(steps) >= 1):
        raise ValueError(f"horizon {horizon} is under half a dt step of {dt}: "
                         "no step would run")
    return round(steps)


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
    seed: int = 0,
) -> MonteCarloResult:
    """Per-sample safety flags from batched trajectory rollouts.

    Each start is rolled out ``round(horizon / dt)`` RK4 steps under the
    zero disturbance and under ``num_disturbance_draws`` random sequences
    from the box, one value held over each step.  A start is safe when none
    of its rollouts touches an obstacle (signed distance <= 0), at the
    start or after any step.  Fully reproducible from the seed.  On a zero
    box every draw would replay the zero draw, so none is made.
    """
    n_steps = _rollout_steps(horizon, dt, num_samples, num_disturbance_draws)
    if not (np.any(sys.bounds.upper) or np.any(sys.bounds.lower)):
        num_disturbance_draws = 0
    rng = np.random.default_rng([seed, 7])
    samples = sample_in_shapes(initial, num_samples, rng)

    hit = obstacles.signed_distance(samples) <= 0.0

    # None is the zero draw.  A draw's sequences are built when it runs,
    # and only for the starts no earlier draw has hit.
    for j in [None, *range(num_disturbance_draws)]:
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

    return MonteCarloResult(samples=samples, safe=~hit)
