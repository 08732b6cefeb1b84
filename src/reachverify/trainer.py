"""Simplified model-based training pipeline.

Produces the artifacts the verifier consumes: a transition dataset from
the reference plant, a one-step dynamics model fit to it, a policy
distilled from random-shooting planning through that model, and the
disturbance bounds estimated from the model's validation residuals.

Planning is plain random shooting: sample candidate action sequences,
roll each through the learned model, keep the first action of the
highest-return sequence.  The policy network is then fit supervised to
state/planned-action pairs, which yields the deterministic network the
tube solver needs.  Every random draw descends from a single root seed,
so whole runs replay bit for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .dynamics import ActionBounds, AirPlant, LandPlant, MlpPolicy, Policy, rk4_increment
from .error_bounds import DisturbanceBounds, k_sigma_bounds, residuals
from .nn import (
    _BLOCK_ROWS,
    MlpModel,
    ModelMeta,
    TrainingConfig,
    TransitionDataset,
    fit_mlp,
    forward_batch,
    train_dynamics_model,
)
from .scene import Scene, air_scene, land_scene

__all__ = [
    "MpcConfig",
    "RewardConfig",
    "TrainRunConfig",
    "TrainLoopResult",
    "ENVIRONMENTS",
    "environment",
    "make_navigation_reward",
    "collect_random_data",
    "mpc_actions",
    "distill_policy",
    "train_loop",
    "merge_datasets",
]


class Environment(NamedTuple):
    """A built-in ``env``: its reference plant, its action box and its scene."""

    plant: type
    action_bounds: ActionBounds
    scene: Callable[[], Scene]


ENVIRONMENTS = {
    "true_land": Environment(LandPlant, ActionBounds([0.0, -np.pi], [1.0, np.pi]), land_scene),
    "true_air": Environment(
        AirPlant, ActionBounds([0.0, -np.pi, -np.pi / 2], [1.0, np.pi, np.pi / 2]), air_scene),
}


def environment(env: str) -> Environment:
    """The ``ENVIRONMENTS`` entry of ``env``; an unknown name is a ValueError."""
    if env not in ENVIRONMENTS:
        raise ValueError(f"unknown environment {env!r}")
    return ENVIRONMENTS[env]


def merge_datasets(a: TransitionDataset, b: TransitionDataset) -> TransitionDataset:
    return TransitionDataset(
        np.concatenate([a.states, b.states]),
        np.concatenate([a.actions, b.actions]),
        np.concatenate([a.deltas, b.deltas]),
    )


def collect_random_data(
    plant,
    action_bounds: ActionBounds,
    box_lo,
    box_hi,
    count: int,
    dt: float,
    rng: np.random.Generator,
    policy: Policy | None = None,
    rollout_steps: int = 5,
) -> TransitionDataset:
    """Transition tuples from the reference plant.

    Without a policy: independent tuples with states uniform over the box
    and actions uniform over the action set.  With a policy: short
    on-policy rollouts from random starts until ``count`` tuples are
    collected.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    lo = np.asarray(box_lo, dtype=float)
    hi = np.asarray(box_hi, dtype=float)

    if policy is None:
        states = rng.uniform(lo, hi, size=(count, plant.n_state))
        actions = action_bounds.sample(rng, count)
        deltas = rk4_increment(lambda s: plant.rate_batch(s, actions), states, dt)
        return TransitionDataset(states, actions, deltas)

    all_s, all_a, all_d = [], [], []
    collected = 0
    while collected < count:
        batch = min(count - collected, max(1, count // rollout_steps))
        states = rng.uniform(lo, hi, size=(batch, plant.n_state))
        for _ in range(rollout_steps):
            actions = policy.batch(states)
            deltas = rk4_increment(lambda s: plant.rate_batch(s, actions), states, dt)
            all_s.append(states)
            all_a.append(actions)
            all_d.append(deltas)
            states = states + deltas
            collected += batch
            if collected >= count:
                break
    s = np.concatenate(all_s)[:count]
    a = np.concatenate(all_a)[:count]
    d = np.concatenate(all_d)[:count]
    return TransitionDataset(s, a, d)


@dataclass(frozen=True)
class RewardConfig:
    """The weights of :func:`make_navigation_reward`, relative to the goal
    distance's weight 1: a return is linear in the weights and the planner
    keeps only its argmax, so a goal weight would only rescale the others."""

    obstacle_weight: float = 10.0
    obstacle_margin: float = 0.3
    action_cost: float = 0.01


def make_navigation_reward(scene: Scene, config: RewardConfig = RewardConfig()):
    """Reward on (state batch, action batch): negative goal distance with a
    hinge penalty inside the obstacle margin and a quadratic action cost."""
    goal_center = scene.goal_set.primitives[0].center
    obstacles = scene.obstacles

    def reward(states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        dist = np.linalg.norm(states - goal_center, axis=1)
        sd = obstacles.signed_distance(states)
        penalty = np.maximum(0.0, config.obstacle_margin - sd)
        effort = np.sum(actions * actions, axis=1)
        return -dist - config.obstacle_weight * penalty - config.action_cost * effort

    return reward


# ---------------------------------------------------------------------------
# Random-shooting planning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MpcConfig:
    """The lookahead, the candidate count and the discount of
    :func:`mpc_actions` when it labels the distillation states."""

    horizon: int = 6
    candidates: int = 192
    discount: float = 0.9

    def __post_init__(self):
        for name in ("horizon", "candidates"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, not {getattr(self, name)}")
        if not 0 <= self.discount < 1:
            raise ValueError("discount must lie in [0, 1)")


def mpc_actions(
    model: MlpModel,
    reward,
    states: np.ndarray,
    horizon: int,
    candidates: int,
    discount: float,
    action_bounds: ActionBounds,
    rng: np.random.Generator,
) -> np.ndarray:
    """First actions of the best sampled sequences, one per input state.

    Each candidate sequence is one action drawn uniformly from the action
    set and held over the whole lookahead, which keeps the scored return
    attributable to the action being ranked.  States are planned in chunks
    of ``_BLOCK_ROWS // candidates`` (at least one), so each chunk's
    candidates roll through the model as one network block; returns are
    discounted sums of rewards at the predicted successor states.  The
    chunks draw their candidates in state order, the order of one draw
    for all states.
    """
    if horizon < 1 or candidates < 1:
        raise ValueError("horizon and candidates must be >= 1")
    states = np.asarray(states, dtype=float)
    m = action_bounds.dims
    out = np.empty((len(states), m))
    chunk = max(1, _BLOCK_ROWS // candidates)
    for start in range(0, len(states), chunk):
        block = states[start : start + chunk]
        k = len(block)
        acts = action_bounds.sample(rng, (k, candidates)).reshape(k * candidates, m)
        cur = np.repeat(block, candidates, axis=0)
        returns = np.zeros(k * candidates)
        for t in range(horizon):
            cur = cur + forward_batch(model, np.hstack([cur, acts]))
            returns += discount**t * reward(cur, acts)
        best = returns.reshape(k, candidates).argmax(axis=1)
        out[start : start + chunk] = acts.reshape(k, candidates, m)[np.arange(k), best]
    return out


def distill_policy(
    model: MlpModel,
    reward,
    states: np.ndarray,
    action_bounds: ActionBounds,
    mpc: MpcConfig,
    policy_config: TrainingConfig,
    seed: int,
) -> tuple[MlpPolicy, float]:
    """Fit a policy network to planned actions at the given states; ``seed``
    draws the planner's candidates and, in a generator of its own, the
    network's initial weights and batch order.

    Returns the policy and the root-mean-square action error against the
    planning labels.  The network's bounded output covers the action box
    symmetrically and the policy clips to the box on top.
    """
    states = np.asarray(states, dtype=float)
    if len(states) < 100:
        raise ValueError("distillation needs at least 100 state samples")
    labels = mpc_actions(model, reward, states, mpc.horizon, mpc.candidates, mpc.discount,
                         action_bounds, np.random.default_rng(seed))
    if np.all(labels == labels[0]):
        warnings.warn("planned actions are identical at every state; fitting anyway")
    scale = np.maximum(np.maximum(np.abs(action_bounds.lo), np.abs(action_bounds.hi)), 1e-6)
    meta = ModelMeta(
        n_state=states.shape[1],
        n_action=action_bounds.dims,
        dt_env=model.meta.dt_env,
        role="policy",
        action_lo=tuple(action_bounds.lo),
        action_hi=tuple(action_bounds.hi),
    )
    net, _ = fit_mlp(states, labels, policy_config, scale, meta, seed)
    policy = MlpPolicy(net, action_bounds)
    fit_rms = float(np.sqrt(np.mean((policy.batch(states) - labels) ** 2)))
    return policy, fit_rms


# ---------------------------------------------------------------------------
# Outer loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainRunConfig:
    """A train run, laid out as its config file; ``scene`` is read by the
    ``train`` command, not by :func:`train_loop`, which takes the scene."""

    scene: str | None = None
    env: str = "true_land"
    initial_samples: int = 300
    outer_iterations: int = 1
    samples_per_iteration: int = 500
    rollout_steps: int = 5
    distill_states: int = 400
    k_sigma: float = 3.0
    dt_env: float = 0.1
    seed: int = 0
    mpc: MpcConfig = field(default_factory=MpcConfig)
    reward: RewardConfig = field(default_factory=RewardConfig)
    training: TrainingConfig = field(
        default_factory=lambda: TrainingConfig(epochs=3000, lr_schedule="cosine")
    )
    policy_training: TrainingConfig = field(
        default_factory=lambda: TrainingConfig(
            hidden_sizes=(16, 16), epochs=500, lr_schedule="cosine"
        )
    )

    def __post_init__(self):
        environment(self.env)
        for name in ("initial_samples", "outer_iterations", "samples_per_iteration",
                     "rollout_steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, not {getattr(self, name)}")
        if self.distill_states < 100:
            raise ValueError(f"distill_states must be >= 100, not {self.distill_states}")


@dataclass(frozen=True)
class TrainLoopResult:
    model: MlpModel
    policy: MlpPolicy
    bounds: DisturbanceBounds
    dataset: TransitionDataset
    validation: TransitionDataset
    logs: dict


def train_loop(config: TrainRunConfig, scene: Scene) -> TrainLoopResult:
    """Alternate model fitting, policy distillation, and data collection.

    Each outer iteration refits the model on everything collected so far,
    distills a fresh policy through it, then appends on-policy transitions,
    so the dataset grows strictly every iteration.  Returns the last fitted
    artifacts plus a JSON-serializable log of per-iteration errors.
    """
    env = environment(config.env)
    plant, action_bounds = env.plant(), env.action_bounds
    reward = make_navigation_reward(scene, config.reward)
    seeds = np.random.SeedSequence(config.seed).generate_state(4 * config.outer_iterations + 1)
    rng_init = np.random.default_rng(seeds[0])

    data = collect_random_data(
        plant, action_bounds, scene.grid.lo, scene.grid.hi,
        config.initial_samples, config.dt_env, rng_init,
    )

    logs = {"env": config.env, "seed": config.seed, "iterations": []}
    model = policy = bounds = result = None
    for k in range(config.outer_iterations):
        s_train, s_distill, s_collect, s_states = seeds[4 * k + 1 : 4 * k + 5]
        result = train_dynamics_model(data, config.training, config.dt_env, int(s_train))
        model = result.model
        stats = residuals(model, result.validation)
        bounds = k_sigma_bounds(stats, config.k_sigma, config.dt_env)

        rng_states = np.random.default_rng(int(s_states))
        distill_pts = rng_states.uniform(
            scene.grid.lo, scene.grid.hi, size=(config.distill_states, plant.n_state)
        )
        policy, fit_rms = distill_policy(
            model, reward, distill_pts, action_bounds, config.mpc,
            config.policy_training, int(s_distill),
        )

        new = collect_random_data(
            plant, action_bounds, scene.grid.lo, scene.grid.hi,
            config.samples_per_iteration, config.dt_env,
            np.random.default_rng(int(s_collect)),
            policy=policy, rollout_steps=config.rollout_steps,
        )
        size_before = len(data)
        data = merge_datasets(data, new)

        logs["iterations"].append(
            {
                "iteration": k,
                "dataset_size": size_before,
                "dataset_size_after": len(data),
                "validation_error": result.validation_error,
                "baseline_error": result.baseline_error,
                "residual_sd": stats.sd.tolist(),
                "residual_mean": stats.mean.tolist(),
                "bound_upper": bounds.upper.tolist(),
                "policy_fit_rms": fit_rms,
                "final_train_loss": result.epoch_losses[-1],
            }
        )

    return TrainLoopResult(
        model=model,
        policy=policy,
        bounds=bounds,
        dataset=data,
        validation=result.validation,
        logs=logs,
    )
