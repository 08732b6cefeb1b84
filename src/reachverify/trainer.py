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
from dataclasses import dataclass, field, replace

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
from .scene import Scene

__all__ = [
    "TrainRunConfig",
    "TrainLoopResult",
    "make_plant",
    "default_action_bounds",
    "make_navigation_reward",
    "collect_random_data",
    "mpc_actions",
    "distill_policy",
    "train_loop",
    "merge_datasets",
]


def make_plant(env: str):
    if env == "true_land":
        return LandPlant()
    if env == "true_air":
        return AirPlant()
    raise ValueError(f"unknown environment {env!r}")


def default_action_bounds(env: str) -> ActionBounds:
    if env == "true_land":
        return ActionBounds([0.0, -np.pi], [1.0, np.pi])
    if env == "true_air":
        return ActionBounds([0.0, -np.pi, -np.pi / 2], [1.0, np.pi, np.pi / 2])
    raise ValueError(f"unknown environment {env!r}")


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


def make_navigation_reward(
    scene: Scene,
    goal_weight: float = 1.0,
    obstacle_weight: float = 10.0,
    obstacle_margin: float = 0.3,
    action_cost: float = 0.01,
):
    """Reward on (state batch, action batch): negative goal distance with a
    hinge penalty inside the obstacle margin and a quadratic action cost."""
    goal_center = scene.goal_set.primitives[0].center
    obstacles = scene.obstacles

    def reward(states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        dist = np.linalg.norm(states - goal_center, axis=1)
        sd = obstacles.signed_distance(states)
        penalty = np.maximum(0.0, obstacle_margin - sd)
        effort = np.sum(actions * actions, axis=1)
        return -goal_weight * dist - obstacle_weight * penalty - action_cost * effort

    return reward


# ---------------------------------------------------------------------------
# Random-shooting planning
# ---------------------------------------------------------------------------

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
    mpc_horizon: int,
    mpc_candidates: int,
    discount: float,
    policy_config: TrainingConfig,
    rng: np.random.Generator,
) -> tuple[MlpPolicy, float]:
    """Fit a policy network to planned actions at the given states.

    Returns the policy and the root-mean-square action error against the
    planning labels.  The network's bounded output covers the action box
    symmetrically and the policy clips to the box on top.
    """
    states = np.asarray(states, dtype=float)
    if len(states) < 100:
        raise ValueError("distillation needs at least 100 state samples")
    labels = mpc_actions(
        model, reward, states, mpc_horizon, mpc_candidates, discount, action_bounds, rng
    )
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
    net, _ = fit_mlp(states, labels, policy_config, scale, meta)
    policy = MlpPolicy(net, action_bounds)
    fit_rms = float(np.sqrt(np.mean((policy.batch(states) - labels) ** 2)))
    return policy, fit_rms


# ---------------------------------------------------------------------------
# Outer loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainRunConfig:
    env: str = "true_land"
    initial_samples: int = 300
    outer_iterations: int = 1
    samples_per_iteration: int = 500
    rollout_steps: int = 5
    mpc_horizon: int = 6
    mpc_candidates: int = 192
    discount: float = 0.9
    goal_weight: float = 1.0
    obstacle_weight: float = 10.0
    obstacle_margin: float = 0.3
    action_cost: float = 0.01
    distill_states: int = 400
    k_sigma: float = 3.0
    dt_env: float = 0.1
    seed: int = 0
    model_training: TrainingConfig = field(
        default_factory=lambda: TrainingConfig(epochs=3000, lr_schedule="cosine")
    )
    policy_training: TrainingConfig = field(
        default_factory=lambda: TrainingConfig(
            hidden_sizes=(16, 16), epochs=500, lr_schedule="cosine"
        )
    )

    def __post_init__(self):
        if self.initial_samples < 1 or self.outer_iterations < 1:
            raise ValueError("sample and iteration counts must be positive")
        if not 0 <= self.discount < 1:
            raise ValueError("discount must lie in [0, 1)")


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
    plant = make_plant(config.env)
    action_bounds = default_action_bounds(config.env)
    reward = make_navigation_reward(
        scene,
        config.goal_weight,
        config.obstacle_weight,
        config.obstacle_margin,
        config.action_cost,
    )
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
        train_cfg = replace(config.model_training, seed=int(s_train))
        result = train_dynamics_model(data, train_cfg, dt_env=config.dt_env)
        model = result.model
        stats = residuals(model, result.validation)
        bounds = k_sigma_bounds(stats, config.k_sigma, config.dt_env)

        rng_states = np.random.default_rng(int(s_states))
        distill_pts = rng_states.uniform(
            scene.grid.lo, scene.grid.hi, size=(config.distill_states, plant.n_state)
        )
        policy_cfg = replace(config.policy_training, seed=int(s_distill))
        policy, fit_rms = distill_policy(
            model, reward, distill_pts, action_bounds,
            config.mpc_horizon, config.mpc_candidates, config.discount,
            policy_cfg, np.random.default_rng(int(s_distill)),
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
