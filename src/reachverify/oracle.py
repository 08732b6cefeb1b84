"""Trajectory-level ground truth, independent of the PDE solver.

Monte-Carlo estimation of the safe initial states by integrating actual
trajectories: fixed-step RK4 rollouts of sampled starts under the zero
disturbance and random disturbance sequences, the cross-check the tubes
are compared with.

The rollouts run on every usable CPU: the starts are cut into one
contiguous shard per CPU, the first shard rolls out in the calling process
and each other shard in a child made by ``os.fork()``, which sends its
starts' hit flags back through a pipe.  Processes, not threads: numpy's
many small calls on a rollout batch hold the GIL, so two threads run
slower than one.  A start's flag depends on its own rollouts only (each
disturbance sequence is keyed by its start and draw, and each trajectory
is its own rows of a batch), so every shard count gives the same flags.
"""

from __future__ import annotations

import math
import os
import signal
import sys
import threading
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


def _shard_count(num_samples: int) -> int:
    """One shard per usable CPU (``os.sched_getaffinity``) and at most one
    per start; one shard where either ``os`` function is missing or the
    calling process runs a second thread, which a fork would leave behind
    in a child holding whatever it had locked."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) \
            or threading.active_count() > 1:
        return 1
    return min(len(os.sched_getaffinity(0)), num_samples)


def _fork_shard(roll_out, lo: int, hi: int, hit: np.ndarray) -> tuple[int, int]:
    """A child that runs ``roll_out(lo, hi)`` and writes ``hit[lo:hi]``,
    packed to bits, to a pipe; returns its pid and the pipe's read end.  A
    child that raises prints its traceback and exits with code 1."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, read_fd
    code = 1
    try:
        os.close(read_fd)
        roll_out(lo, hi)
        with open(write_fd, "wb") as fh:
            fh.write(np.packbits(hit[lo:hi]).tobytes())
        code = 0
    except Exception:
        sys.excepthook(*sys.exc_info())
    finally:
        try:
            sys.stderr.flush()
        finally:  # the child never returns into the caller's code
            os._exit(code)


def _run_shards(roll_out, hit: np.ndarray, shards: int) -> None:
    """``roll_out`` over every start, in ``shards`` contiguous shards as
    ``np.array_split`` cuts them: the first in this process, each other in
    a forked child whose flags are copied into ``hit``.  Every child is
    reaped before this returns or raises; a failed child is a RuntimeError
    naming its shard."""
    edges = np.cumsum([0, *map(len, np.array_split(hit, shards))]).tolist()
    cuts = list(zip(edges, edges[1:]))
    children, packed = [], []  # (pid, read fd) and flag bytes per forked shard
    try:
        for lo, hi in cuts[1:]:
            children.append(_fork_shard(roll_out, lo, hi, hit))
        roll_out(*cuts[0])
        for _, read_fd in children:
            with open(read_fd, "rb", closefd=False) as fh:
                packed.append(fh.read())
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        codes = []
        for pid, read_fd in children:
            os.close(read_fd)
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for shard, ((lo, hi), code, data) in enumerate(zip(cuts[1:], codes, packed), 1):
        if code != 0 or len(data) != (hi - lo + 7) // 8:
            raise RuntimeError(f"Monte-Carlo shard {shard} of {shards} (starts {lo} to {hi - 1}) "
                               f"exited with code {code} after sending {len(data)} bytes")
        hit[lo:hi] = np.unpackbits(np.frombuffer(data, np.uint8), count=hi - lo).astype(bool)


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

    The starts roll out in one shard per usable CPU (see the module
    notes), the first in this process and the others in forked children;
    the result is the same at any shard count.  A failed child is a
    RuntimeError, raised once every child has exited.
    """
    n_steps = _rollout_steps(horizon, dt, num_samples, num_disturbance_draws)
    if not (np.any(sys.bounds.upper) or np.any(sys.bounds.lower)):
        num_disturbance_draws = 0
    rng = np.random.default_rng([seed, 7])
    samples = sample_in_shapes(initial, num_samples, rng)

    hit = obstacles.signed_distance(samples) <= 0.0

    def roll_out(lo: int, hi: int) -> None:
        # None is the zero draw.  A draw's sequences are built when it
        # runs, and only for the starts of lo:hi no earlier draw has hit.
        for j in [None, *range(num_disturbance_draws)]:
            if hit[lo:hi].all():
                break
            idx = lo + np.flatnonzero(~hit[lo:hi])
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

    _run_shards(roll_out, hit, _shard_count(num_samples))
    return MonteCarloResult(samples=samples, safe=~hit)
