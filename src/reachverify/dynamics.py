"""Closed-loop vector fields: plants, policies, and disturbance injection.

A closed-loop system couples a plant (a learned one-step model turned into
a rate by dividing by its sample period, or one of the two analytic
reference plants) with a deterministic policy and a box of additive rate
disturbances.  The closed-loop rate is ``plant_rate(s, policy(s)) + d``,
so the disturbance enters purely additively and
``rate(s, d) - rate(s, 0) = d`` exactly.

Everything runs on ``(k, n)`` stacks of rows: a plant is any object with
``n_state``, ``n_action`` and ``rate_batch(states, actions)``, a policy
clips its actions in ``batch``, and a single state is a one-row batch.

Reference plants are first-order kinematic point masses: planar motion
commanded by speed and heading, and spatial motion commanded by speed,
heading, and pitch.  The spatial plant reduces to the planar one on the
zero-pitch slice.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .error_bounds import DisturbanceBounds
from .nn import MlpModel, forward_batch, load_model, save_model

__all__ = [
    "ActionBounds",
    "Policy",
    "ConstantPolicy",
    "MlpPolicy",
    "LearnedPlant",
    "LandPlant",
    "AirPlant",
    "ClosedLoopSystem",
    "nominal_rate_batch",
    "rk4_increment",
    "save_policy",
    "load_policy",
]


@dataclass(frozen=True)
class ActionBounds:
    """Per-dimension action box; policies clip everything they emit to it."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("action bounds must be 1-D arrays of equal length")
        if np.any(lo > hi):
            raise ValueError("action lower bounds exceed upper bounds")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dims(self) -> int:
        return len(self.lo)

    def clip(self, a: np.ndarray) -> np.ndarray:
        return np.clip(a, self.lo, self.hi)

    def sample(self, rng: np.random.Generator, size: int | tuple) -> np.ndarray:
        shape = (size, self.dims) if isinstance(size, int) else (*size, self.dims)
        return rng.uniform(self.lo, self.hi, size=shape)


class Policy:
    """Deterministic state-to-action map; subclasses provide ``_raw``."""

    def __init__(self, bounds: ActionBounds):
        self.bounds = bounds

    def _raw(self, states: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def batch(self, states: np.ndarray) -> np.ndarray:
        return self.bounds.clip(self._raw(np.asarray(states, dtype=float)))


class ConstantPolicy(Policy):
    def __init__(self, action, bounds: ActionBounds):
        super().__init__(bounds)
        self.action = bounds.clip(np.asarray(action, dtype=float))

    def _raw(self, states):
        return np.broadcast_to(self.action, (len(states), len(self.action)))


class MlpPolicy(Policy):
    """Policy backed by a network mapping state to action."""

    def __init__(self, model: MlpModel, bounds: ActionBounds):
        super().__init__(bounds)
        if model.n_outputs != bounds.dims:
            raise ValueError("policy network output size does not match action bounds")
        self.model = model

    def _raw(self, states):
        return forward_batch(self.model, states)


# ---------------------------------------------------------------------------
# Plants
# ---------------------------------------------------------------------------

class LandPlant:
    """Planar point mass: speed and heading command the velocity vector."""

    n_state = 2
    n_action = 2

    def rate_batch(self, states, actions):
        v, psi = actions[:, 0], actions[:, 1]
        return np.stack([v * np.cos(psi), v * np.sin(psi)], axis=1)


class AirPlant:
    """Spatial point mass commanded by speed, heading, and pitch."""

    n_state = 3
    n_action = 3

    def rate_batch(self, states, actions):
        v, psi, phi = actions[:, 0], actions[:, 1], actions[:, 2]
        cp = np.cos(phi)
        return np.stack([v * cp * np.cos(psi), v * cp * np.sin(psi), v * np.sin(phi)], axis=1)


class LearnedPlant:
    """One-step delta model interpreted as a rate via its sample period."""

    def __init__(self, model: MlpModel):
        meta = model.meta
        if model.n_inputs != meta.n_state + meta.n_action:
            raise ValueError("model input size does not match its declared state/action split")
        if model.n_outputs != meta.n_state:
            raise ValueError("model output size does not match its declared state size")
        if meta.dt_env <= 0:
            raise ValueError("model sample period must be positive")
        self.model = model
        self.n_state = meta.n_state
        self.n_action = meta.n_action
        self.dt_env = meta.dt_env

    def rate_batch(self, states, actions):
        rates = forward_batch(self.model, np.hstack([states, actions]))
        return np.divide(rates, self.dt_env, out=rates)


@dataclass(frozen=True)
class ClosedLoopSystem:
    """Plant under a fixed policy with additive bounded rate disturbance."""

    plant: object
    policy: Policy
    bounds: DisturbanceBounds

    def __post_init__(self):
        if self.bounds.dims != self.plant.n_state:
            raise ValueError("disturbance bounds dimension does not match plant state size")
        if self.policy.bounds.dims != self.plant.n_action:
            raise ValueError("policy action dimension does not match plant action size")

    @property
    def n_state(self) -> int:
        return self.plant.n_state


def nominal_rate_batch(sys: ClosedLoopSystem, states: np.ndarray) -> np.ndarray:
    """Undisturbed closed-loop rates for a ``(k, n)`` stack of states."""
    actions = sys.policy.batch(states)
    return sys.plant.rate_batch(states, actions)


def rk4_increment(rate, states: np.ndarray, dt: float) -> np.ndarray:
    """Classical RK4 increment over one step of ``dt`` for the batched rate
    function ``rate(states)``; inputs it closes over are held for the step."""
    k1 = rate(states)
    k2 = rate(states + 0.5 * dt * k1)
    k3 = rate(states + 0.5 * dt * k2)
    k4 = rate(states + dt * k3)
    return (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# ---------------------------------------------------------------------------
# Policy serialization (same JSON format as dynamics models)
# ---------------------------------------------------------------------------

def save_policy(policy: MlpPolicy, path) -> None:
    meta = replace(policy.model.meta, role="policy", action_lo=tuple(policy.bounds.lo),
                   action_hi=tuple(policy.bounds.hi))
    save_model(replace(policy.model, meta=meta), path)


def load_policy(path) -> MlpPolicy:
    model = load_model(path)
    if model.meta.role != "policy" or model.meta.action_lo is None:
        raise ValueError(f"{path} is not a policy file")
    return MlpPolicy(model, ActionBounds(model.meta.action_lo, model.meta.action_hi))
