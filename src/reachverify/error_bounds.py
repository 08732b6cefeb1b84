"""Bounded model-error estimation from validation residuals.

A trained one-step model is compared against held-out transitions; the
per-dimension residual statistics yield a symmetric box of rate-space
disturbance bounds (``(|mean| + k * sd) / dt_env`` per dimension, ``k = 3``
by default).  Residuals are per-step deltas; dividing by the sample period
puts the bounds in the same units as the continuous-time dynamics they
augment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .nn import MlpModel, TransitionDataset, forward_batch, json_value

__all__ = [
    "ResidualStats",
    "DisturbanceBounds",
    "residual_matrix",
    "residuals",
    "k_sigma_bounds",
    "coverage_check",
    "save_bounds",
    "load_bounds",
]


@dataclass(frozen=True)
class ResidualStats:
    """Per-dimension statistics of prediction residuals (predicted - true)."""

    mean: np.ndarray
    sd: np.ndarray
    count: int

    def __post_init__(self):
        if self.count < 2:
            raise ValueError("residual statistics need at least 2 samples")
        if np.any(self.sd < 0):
            raise ValueError("standard deviations must be nonnegative")


@dataclass(frozen=True)
class DisturbanceBounds:
    """Per-dimension box of additive rate disturbances, symmetric by default."""

    upper: np.ndarray
    lower: np.ndarray
    k_sigma: float = 0.0
    dt_env: float = 1.0

    def __post_init__(self):
        upper = np.asarray(self.upper, dtype=float)
        lower = np.asarray(self.lower, dtype=float)
        if upper.shape != lower.shape or upper.ndim != 1:
            raise ValueError("upper and lower bounds must be 1-D arrays of equal length")
        if not (np.isfinite(upper).all() and np.isfinite(lower).all()):
            raise ValueError("upper and lower bounds must be finite")
        if np.any(upper < 0) or np.any(lower > 0):
            raise ValueError("upper bounds must be >= 0 and lower bounds <= 0")
        upper.setflags(write=False)
        lower.setflags(write=False)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "lower", lower)

    @property
    def dims(self) -> int:
        return len(self.upper)

    @staticmethod
    def zero(dims: int, dt_env: float = 1.0) -> "DisturbanceBounds":
        z = np.zeros(dims)
        return DisturbanceBounds(upper=z, lower=z.copy(), k_sigma=0.0, dt_env=dt_env)


def residual_matrix(model: MlpModel, validation: TransitionDataset) -> np.ndarray:
    """Per-step residuals ``predicted - observed`` as a ``(count, n)`` array."""
    pred = forward_batch(model, validation.inputs())
    return pred - validation.deltas


def residuals(model: MlpModel, validation: TransitionDataset) -> ResidualStats:
    """Per-dimension residual statistics over the validation set."""
    if len(validation) == 0:
        raise ValueError("validation set is empty")
    r = residual_matrix(model, validation)
    return ResidualStats(
        mean=r.mean(axis=0),
        sd=r.std(axis=0),
        count=len(r),
    )


def k_sigma_bounds(
    stats: ResidualStats, k: float = 3.0, dt_env: float = 1.0
) -> DisturbanceBounds:
    """Symmetric bounds ``(|mean| + k * sd) / dt_env`` per dimension.

    Including the mean magnitude guards against a biased model at the cost
    of extra conservatism.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if dt_env <= 0:
        raise ValueError("dt_env must be positive")
    upper = (np.abs(stats.mean) + k * stats.sd) / dt_env
    return DisturbanceBounds(upper=upper, lower=-upper, k_sigma=k, dt_env=dt_env)


def coverage_check(bounds: DisturbanceBounds, residual_rows: np.ndarray) -> float:
    """Fraction of per-step residuals inside the bounds in every dimension.

    Residual rows are per-step deltas and are converted to rate units with
    the sample period stored on the bounds.
    """
    rows = np.asarray(residual_rows, dtype=float)
    if rows.ndim != 2 or len(rows) == 0:
        raise ValueError("expected a nonempty (count, n) residual array")
    rates = rows / bounds.dt_env
    inside = (rates >= bounds.lower) & (rates <= bounds.upper)
    return float(np.mean(np.all(inside, axis=1)))


def save_bounds(bounds: DisturbanceBounds, path) -> None:
    doc = {
        "upper": bounds.upper.tolist(),
        "lower": bounds.lower.tolist(),
        "k_sigma": bounds.k_sigma,
        "dt_env": bounds.dt_env,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_bounds(path) -> DisturbanceBounds:
    """Load a :func:`save_bounds` file; a malformed one is a ValueError."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        return DisturbanceBounds(
            upper=json_value(tuple[float, ...], doc["upper"], "upper"),
            lower=json_value(tuple[float, ...], doc["lower"], "lower"),
            k_sigma=json_value(float, doc["k_sigma"], "k_sigma"),
            dt_env=json_value(float, doc["dt_env"], "dt_env"),
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed bounds file {path}: {exc}") from exc
