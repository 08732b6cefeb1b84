import tracemalloc

import numpy as np
import pytest

from reachverify.dynamics import ActionBounds
from reachverify.nn import _BLOCK_ROWS, MlpModel, ModelMeta, TrainingConfig, forward_batch
from reachverify.scene import land_scene
from reachverify.trainer import (
    TrainRunConfig,
    collect_random_data,
    default_action_bounds,
    distill_policy,
    make_navigation_reward,
    make_plant,
    merge_datasets,
    mpc_actions,
    train_loop,
)

LAND_BOUNDS = default_action_bounds("true_land")


# The head c * tanh(x / c) of a wide scale c: within 1e-7 of x for |x| < 0.4.
HEAD_SCALE = 1e3


def linear_delta(actions, gain=0.1):
    """The delta linear_delta_model predicts: HEAD_SCALE * tanh(gain * a / HEAD_SCALE)."""
    return HEAD_SCALE * np.tanh(actions * (gain / HEAD_SCALE))


def linear_delta_model(gain=0.1):
    """Hand-built one-layer model predicting delta = linear_delta(action),
    nearly gain * action."""
    w1 = np.zeros((4, 2))
    w1[2, 0] = gain / HEAD_SCALE
    w1[3, 1] = gain / HEAD_SCALE
    return MlpModel(
        layer_sizes=(4, 2),
        weights=(w1,),
        biases=(np.zeros(2),),
        output_scale=np.full(2, HEAD_SCALE),
        meta=ModelMeta(n_state=2, n_action=2, dt_env=0.1),
    )


def test_collect_single_tuple():
    plant = make_plant("true_land")
    data = collect_random_data(
        plant, LAND_BOUNDS, [-1, -1], [1, 1], 1, 0.1, np.random.default_rng(0)
    )
    assert len(data) == 1
    assert data.states.shape == (1, 2)
    assert data.actions.shape == (1, 2)
    assert data.deltas.shape == (1, 2)


def test_collect_zero_velocity_gives_zero_deltas():
    plant = make_plant("true_land")
    frozen = ActionBounds([0.0, -np.pi], [0.0, np.pi])  # speed pinned to zero
    data = collect_random_data(
        plant, frozen, [-1, -1], [1, 1], 50, 0.1, np.random.default_rng(1)
    )
    assert np.allclose(data.deltas, 0.0)


def test_collect_speed_bound_limits_deltas():
    plant = make_plant("true_land")
    data = collect_random_data(
        plant, LAND_BOUNDS, [-1, -1], [8, 6], 1000, 0.1, np.random.default_rng(2)
    )
    assert np.linalg.norm(data.deltas, axis=1).max() <= 0.1 + 1e-9


def test_collect_on_policy_counts():
    plant = make_plant("true_land")
    from reachverify.dynamics import ConstantPolicy

    policy = ConstantPolicy([0.5, 0.3], LAND_BOUNDS)
    data = collect_random_data(
        plant, LAND_BOUNDS, [-1, -1], [1, 1], 37, 0.1,
        np.random.default_rng(3), policy=policy, rollout_steps=5,
    )
    assert len(data) == 37
    assert np.allclose(data.actions, [0.5, 0.3])


def test_mpc_single_candidate_returns_that_action():
    model = linear_delta_model()
    reward = lambda s, a: -np.linalg.norm(s, axis=1)
    rng_pick = np.random.default_rng(11)
    action = mpc_actions(model, reward, np.zeros((1, 2)), 4, 1, 0.9, LAND_BOUNDS, rng_pick)[0]
    rng_ref = np.random.default_rng(11)
    expected = LAND_BOUNDS.sample(rng_ref, (1, 1))[0, 0]
    assert np.array_equal(action, expected)


def test_mpc_argmax_property():
    model = linear_delta_model()
    goal = np.array([0.5, 0.5])
    reward = lambda s, a: -np.linalg.norm(s - goal, axis=1)
    state = np.array([0.0, 0.0])
    seed = 21
    action = mpc_actions(model, reward, state[None, :], 5, 32, 0.9, LAND_BOUNDS,
                         np.random.default_rng(seed))[0]

    # independent recomputation of every candidate's return
    rng = np.random.default_rng(seed)
    acts = LAND_BOUNDS.sample(rng, (1, 32))[0]
    best_value = -np.inf
    best_action = None
    for a in acts:
        s = state.copy()
        total = 0.0
        for t in range(5):
            s = s + linear_delta(a)
            total += 0.9**t * float(reward(s[None, :], a[None, :])[0])
        if total > best_value:
            best_value, best_action = total, a
    assert np.allclose(action, best_action)


def test_mpc_discount_zero_uses_first_step_only():
    model = linear_delta_model()
    goal = np.array([1.0, 0.0])

    def first_step_reward(s, a):
        return -np.linalg.norm(s - goal, axis=1)

    state = np.array([0.0, 0.0])
    seed = 5
    chosen = mpc_actions(model, first_step_reward, state[None, :], 6, 64, 0.0, LAND_BOUNDS,
                         np.random.default_rng(seed))[0]
    rng = np.random.default_rng(seed)
    acts = LAND_BOUNDS.sample(rng, (1, 64))[0]
    successors = state + linear_delta(acts)
    returns = first_step_reward(successors, acts)
    assert np.allclose(chosen, acts[np.argmax(returns)])


def test_mpc_points_toward_goal_with_linear_model():
    model = linear_delta_model()
    rng = np.random.default_rng(9)
    goal = np.array([2.0, 1.0])
    reward = lambda s, a: -np.linalg.norm(s - goal, axis=1)
    bounds = ActionBounds([-1.0, -1.0], [1.0, 1.0])  # action is a velocity here
    states = rng.uniform(-3, 3, size=(200, 2))
    states = states[np.linalg.norm(goal - states, axis=1) > 0.5]
    actions = mpc_actions(model, reward, states, 5, 128, 0.9, bounds, rng)
    to_goal = goal - states
    cosines = np.sum(actions * to_goal, axis=1) / (
        np.linalg.norm(actions, axis=1) * np.linalg.norm(to_goal, axis=1) + 1e-12
    )
    assert np.mean(cosines > 0.0) >= 0.95


def test_distill_constant_targets_and_warning():
    model = linear_delta_model()
    reward = lambda s, a: np.zeros(len(s))
    frozen = ActionBounds([0.3, 0.1], [0.3, 0.1])  # degenerate box -> constant labels
    states = np.random.default_rng(1).uniform(-1, 1, size=(150, 2))
    with pytest.warns(UserWarning):
        policy, fit_rms = distill_policy(
            model, reward, states, frozen, 3, 4, 0.9,
            TrainingConfig(epochs=50, hidden_sizes=(8,)), np.random.default_rng(0),
        )
    out = policy.batch(states)
    assert np.allclose(out, [0.3, 0.1], atol=1e-3)


def test_distill_requires_enough_states():
    model = linear_delta_model()
    with pytest.raises(ValueError):
        distill_policy(
            model, lambda s, a: np.zeros(len(s)),
            np.zeros((50, 2)), LAND_BOUNDS, 3, 4, 0.9,
            TrainingConfig(epochs=5), np.random.default_rng(0),
        )


def test_distilled_policy_respects_bounds(land_run):
    _, result, _ = land_run
    rng = np.random.default_rng(2)
    states = rng.uniform([-5, -5], [10, 10], size=(1000, 2))
    acts = result.policy.batch(states)
    assert np.all(acts >= LAND_BOUNDS.lo - 1e-12)
    assert np.all(acts <= LAND_BOUNDS.hi + 1e-12)


def test_distilled_policy_tracks_planner_on_held_out_states(land_run):
    scene, result, _ = land_run
    reward = make_navigation_reward(scene)
    rng = np.random.default_rng(555)
    held = rng.uniform(scene.grid.lo, scene.grid.hi, size=(300, 2))
    labels = mpc_actions(result.model, reward, held, 6, 192, 0.9, LAND_BOUNDS,
                         np.random.default_rng(556))
    err = np.abs(result.policy.batch(held) - labels).mean(axis=0)
    assert np.all(err < 0.1 * (LAND_BOUNDS.hi - LAND_BOUNDS.lo))


def _one_chunk_mpc(model, reward, states, horizon, candidates, discount, bounds, rng):
    """Random shooting with every state's candidates in one batch."""
    k, m = len(states), bounds.dims
    acts = bounds.sample(rng, (k, candidates)).reshape(k * candidates, m)
    cur = np.repeat(states, candidates, axis=0)
    returns = np.zeros(k * candidates)
    for t in range(horizon):
        cur = cur + forward_batch(model, np.hstack([cur, acts]))
        returns += discount**t * reward(cur, acts)
    best = returns.reshape(k, candidates).argmax(axis=1)
    return acts.reshape(k, candidates, m)[np.arange(k), best]


def test_mpc_memory_is_bounded_by_the_network_block(land_run):
    # The land distillation call: 400 states x 192 candidates.  In one
    # 76 800-row chunk it held 8.9 MB; chunked to one network block of
    # 21 x 192 rows it holds forward_batch's two block-sized hidden buffers
    # (2.1 MB at width 32) and under 0.5 MB of candidate arrays.
    scene, result, _ = land_run
    model, reward = result.model, make_navigation_reward(scene)
    states = np.random.default_rng(31).uniform(scene.grid.lo, scene.grid.hi, size=(400, 2))
    tracemalloc.start()
    try:
        labels = mpc_actions(model, reward, states, 6, 192, 0.9, LAND_BOUNDS,
                             np.random.default_rng(32))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows = _BLOCK_ROWS // 192 * 192
    buffers = sum(rows * w.shape[1] * 8 for w in model.weights[:-1])
    assert peak <= buffers + 1e6
    expected = _one_chunk_mpc(model, reward, states, 6, 192, 0.9, LAND_BOUNDS,
                              np.random.default_rng(32))
    assert np.array_equal(labels, expected)


FAST_CONFIG = TrainRunConfig(
    env="true_land",
    initial_samples=120,
    outer_iterations=2,
    samples_per_iteration=60,
    distill_states=110,
    mpc_horizon=3,
    mpc_candidates=16,
    model_training=TrainingConfig(epochs=40),
    policy_training=TrainingConfig(hidden_sizes=(8,), epochs=30),
    seed=4,
)


def test_train_loop_artifacts_and_growth():
    scene = land_scene((31, 31))
    result = train_loop(FAST_CONFIG, scene)
    assert result.model is not None and result.policy is not None
    assert result.bounds.dims == 2
    sizes = [it["dataset_size"] for it in result.logs["iterations"]]
    sizes_after = [it["dataset_size_after"] for it in result.logs["iterations"]]
    assert all(b > a for a, b in zip(sizes, sizes_after))
    assert sizes[1] == sizes_after[0]
    assert len(result.dataset) == 120 + 2 * 60


def test_train_loop_seed_reproducibility():
    scene = land_scene((31, 31))
    a = train_loop(FAST_CONFIG, scene)
    b = train_loop(FAST_CONFIG, scene)
    assert a.logs == b.logs
    assert np.array_equal(a.bounds.upper, b.bounds.upper)
    states = np.random.default_rng(0).uniform(-1, 1, size=(20, 2))
    assert np.array_equal(a.policy.batch(states), b.policy.batch(states))


def test_train_loop_validation_sd_trend():
    scene = land_scene((41, 41))
    cfg = TrainRunConfig(
        env="true_land",
        initial_samples=300,
        outer_iterations=2,
        samples_per_iteration=400,
        distill_states=150,
        mpc_horizon=4,
        mpc_candidates=32,
        model_training=TrainingConfig(epochs=600, lr_schedule="cosine"),
        policy_training=TrainingConfig(hidden_sizes=(8,), epochs=100),
        seed=0,
    )
    result = train_loop(cfg, scene)
    sds = [np.asarray(it["residual_sd"]) for it in result.logs["iterations"]]
    for earlier, later in zip(sds, sds[1:]):
        assert np.all(later <= 1.2 * earlier)


def test_merge_datasets():
    plant = make_plant("true_land")
    rng = np.random.default_rng(5)
    a = collect_random_data(plant, LAND_BOUNDS, [-1, -1], [1, 1], 10, 0.1, rng)
    b = collect_random_data(plant, LAND_BOUNDS, [-1, -1], [1, 1], 7, 0.1, rng)
    merged = merge_datasets(a, b)
    assert len(merged) == 17
    assert np.array_equal(merged.states[:10], a.states)


def test_reward_shape_and_obstacle_penalty():
    scene = land_scene((31, 31))
    reward = make_navigation_reward(scene, obstacle_weight=10.0, obstacle_margin=0.3)
    inside_obstacle = np.array([[4.0, 1.5]])
    free = np.array([[0.0, 0.0]])
    actions = np.zeros((1, 2))
    assert reward(inside_obstacle, actions)[0] < reward(free, actions)[0]


def test_run_config_validation():
    with pytest.raises(ValueError):
        TrainRunConfig(initial_samples=0)
    with pytest.raises(ValueError):
        TrainRunConfig(discount=1.0)
    with pytest.raises(ValueError):
        make_plant("true_sea")
