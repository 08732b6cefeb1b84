import numpy as np
import pytest

from reachverify.dynamics import (
    ActionBounds,
    AirPlant,
    ClosedLoopSystem,
    ConstantPolicy,
    LandPlant,
    LearnedPlant,
    MlpPolicy,
    Policy,
    load_policy,
    nominal_rate_batch,
    save_policy,
)
from reachverify.error_bounds import DisturbanceBounds
from reachverify.nn import MlpModel, ModelMeta, forward_batch
from reference import nominal_rate, rate


def small_model(rng, n_state=2, n_action=2, dt=0.1):
    n_in = n_state + n_action
    sizes = (n_in, 8, n_state)
    return MlpModel(
        layer_sizes=sizes,
        weights=tuple(rng.normal(size=(a, b)) * 0.5 for a, b in zip(sizes[:-1], sizes[1:])),
        biases=tuple(rng.normal(size=b) * 0.1 for b in sizes[1:]),
        output_scale=np.full(n_state, 0.2),
        meta=ModelMeta(n_state=n_state, n_action=n_action, dt_env=dt),
    )


def learned_system(rng, upper=(0.3, 0.4)):
    model = small_model(rng)
    plant = LearnedPlant(model)
    policy = ConstantPolicy([0.5, 0.2], ActionBounds([0, -np.pi], [1, np.pi]))
    upper = np.asarray(upper, dtype=float)
    return ClosedLoopSystem(plant, policy, DisturbanceBounds(upper, -upper)), model


def test_rate_additivity_exact():
    sys_cl, _ = learned_system(np.random.default_rng(0))
    rng = np.random.default_rng(1)
    for _ in range(20):
        s = rng.uniform(-2, 2, 2)
        d = rng.uniform(-0.3, 0.3, 2) * [1, 4 / 3]
        d = np.clip(d, sys_cl.bounds.lower, sys_cl.bounds.upper)
        diff = rate(sys_cl, s, d) - rate(sys_cl, s, np.zeros(2))
        assert np.allclose(diff, d, rtol=0, atol=1e-14)


def test_zero_weight_model_rate_equals_disturbance():
    model = MlpModel(
        layer_sizes=(4, 3, 2),
        weights=(np.zeros((4, 3)), np.zeros((3, 2))),
        biases=(np.zeros(3), np.zeros(2)),
        output_scale=np.ones(2),
        meta=ModelMeta(n_state=2, n_action=2, dt_env=0.1),
    )
    sys_cl = ClosedLoopSystem(
        LearnedPlant(model),
        ConstantPolicy([0.0, 0.0], ActionBounds([-1, -1], [1, 1])),
        DisturbanceBounds(np.array([0.2, 0.2]), np.array([-0.2, -0.2])),
    )
    d = np.array([0.1, -0.1])
    assert np.allclose(rate(sys_cl, [0.0, 0.0], d), d)


def test_learned_rate_is_scaled_forward_pass():
    sys_cl, model = learned_system(np.random.default_rng(2))
    s = np.array([0.0, 0.0])
    a = sys_cl.policy.batch(s[None, :])[0]
    expected = forward_batch(model, np.concatenate([s, a])[None, :])[0] / model.meta.dt_env
    assert np.array_equal(nominal_rate(sys_cl, s), expected)
    d = np.array([0.05, -0.05])
    assert np.allclose(rate(sys_cl, s, d) - expected, d, atol=1e-15)


def test_land_plant_rate_cases():
    states = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, -3.0]])
    actions = np.array([[1.0, 0.0], [1.0, np.pi / 2], [2.0, np.pi / 4]])
    expected = [[1.0, 0.0], [0.0, 1.0], [np.sqrt(2), np.sqrt(2)]]
    assert np.allclose(LandPlant().rate_batch(states, actions), expected, atol=1e-15)


def test_air_plant_rate_cases_and_norm():
    states = np.zeros((2, 3))
    actions = np.array([[1.0, 0.0, 0.0], [1.0, 0.3, np.pi / 2]])
    assert np.allclose(AirPlant().rate_batch(states, actions), [[1, 0, 0], [0, 0, 1]], atol=1e-15)
    rng = np.random.default_rng(3)
    v = rng.uniform(0, 2, 50)
    psi, phi = rng.uniform(-np.pi, np.pi, 50), rng.uniform(-np.pi / 2, np.pi / 2, 50)
    rates = AirPlant().rate_batch(np.zeros((50, 3)), np.stack([v, psi, phi], axis=1))
    assert np.linalg.norm(rates, axis=1) == pytest.approx(v)


def test_air_reduces_to_land_at_zero_pitch():
    rng = np.random.default_rng(4)
    v, psi = rng.uniform(0, 1, 20), rng.uniform(-np.pi, np.pi, 20)
    air = AirPlant().rate_batch(np.zeros((20, 3)), np.stack([v, psi, np.zeros(20)], axis=1))
    land = LandPlant().rate_batch(np.zeros((20, 2)), np.stack([v, psi], axis=1))
    assert np.allclose(air[:, :2], land)
    assert air[:, 2] == pytest.approx(0.0)


def test_policy_determinism_bitwise():
    rng = np.random.default_rng(5)
    model = small_model(rng, n_state=2, n_action=2)
    pol_model = MlpModel(
        layer_sizes=(2, 8, 2),
        weights=(rng.normal(size=(2, 8)), rng.normal(size=(8, 2))),
        biases=(rng.normal(size=8), rng.normal(size=2)),
        output_scale=np.array([1.0, np.pi]),
        meta=ModelMeta(n_state=2, n_action=2, dt_env=0.1, role="policy"),
    )
    policy = MlpPolicy(pol_model, ActionBounds([0, -np.pi], [1, np.pi]))
    s = np.array([0.37, -1.2])
    a1 = policy.batch(s[None, :])
    a2 = policy.batch(s[None, :])
    assert np.array_equal(a1, a2)


def test_policy_clipping():
    bounds = ActionBounds([0.0, -1.0], [1.0, 1.0])
    pol = ConstantPolicy([5.0, -3.0], bounds)
    assert np.array_equal(pol.batch(np.zeros((1, 2))), [[1.0, -1.0]])

    rng = np.random.default_rng(6)
    pol_model = MlpModel(
        layer_sizes=(2, 6, 2),
        weights=(rng.normal(size=(2, 6)) * 3, rng.normal(size=(6, 2)) * 3),
        biases=(rng.normal(size=6), rng.normal(size=2)),
        output_scale=np.array([2.0, 2.0]),  # wider than the box on purpose
        meta=ModelMeta(n_state=2, n_action=2, dt_env=0.1, role="policy"),
    )
    mlp_pol = MlpPolicy(pol_model, bounds)
    states = rng.uniform(-3, 3, size=(1000, 2))
    acts = mlp_pol.batch(states)
    assert np.all(acts >= bounds.lo) and np.all(acts <= bounds.hi)


def test_rate_rejects_out_of_bounds_disturbance():
    sys_cl, _ = learned_system(np.random.default_rng(7), upper=(0.1, 0.1))
    with pytest.raises(ValueError):
        rate(sys_cl, [0.0, 0.0], [0.2, 0.0])
    with pytest.raises(ValueError):
        rate(sys_cl, [0.0, 0.0], [0.05, 0.05, 0.05])


class _WavePolicy(Policy):
    """Each action component a smooth function of the matching state
    coordinate alone, computed elementwise, so a row's action does not
    depend on the rows batched with it."""

    def _raw(self, states):
        return self.bounds.hi * np.sin(3.0 * states + 0.5)


def _wave_system(plant, upper):
    # A closed loop of an analytic plant under a state-dependent policy
    # whose actions sweep the whole box, clipping at neither end.
    upper = np.asarray(upper, dtype=float)
    n = len(upper)
    policy = _WavePolicy(ActionBounds(-upper, upper))
    return ClosedLoopSystem(plant, policy, DisturbanceBounds.zero(n))


def test_nominal_rate_batch_matches_single():
    systems = {
        "land": _wave_system(LandPlant(), [1.0, np.pi]),
        "air": _wave_system(AirPlant(), [1.0, np.pi, 1.0]),
        "learned": learned_system(np.random.default_rng(8))[0],
    }
    rng = np.random.default_rng(9)
    for name, sys_cl in systems.items():
        states = rng.uniform(-1, 1, size=(40, sys_cl.n_state))
        batch = nominal_rate_batch(sys_cl, states)
        for i in range(0, 40, 7):
            single = nominal_rate(sys_cl, states[i])
            if name == "learned":
                # BLAS picks its matmul kernel by the row count, so a one-row
                # network pass may differ from a 40-row one in the last bits.
                assert np.allclose(batch[i], single, rtol=0.0, atol=1e-14)
            else:
                assert np.array_equal(batch[i], single)


def test_policy_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    pol_model = MlpModel(
        layer_sizes=(2, 8, 2),
        weights=(rng.normal(size=(2, 8)), rng.normal(size=(8, 2))),
        biases=(rng.normal(size=8), rng.normal(size=2)),
        output_scale=np.array([1.0, np.pi]),
        meta=ModelMeta(n_state=2, n_action=2, dt_env=0.1, role="policy"),
    )
    policy = MlpPolicy(pol_model, ActionBounds([0, -np.pi], [1, np.pi]))
    path = tmp_path / "policy.json"
    save_policy(policy, path)
    loaded = load_policy(path)
    states = rng.uniform(-2, 2, size=(50, 2))
    assert np.array_equal(policy.batch(states), loaded.batch(states))


def test_system_dimension_validation():
    plant = LandPlant()
    policy = ConstantPolicy([0.5, 0.0], ActionBounds([0, -np.pi], [1, np.pi]))
    with pytest.raises(ValueError):
        ClosedLoopSystem(plant, policy, DisturbanceBounds.zero(3))
    bad_policy = ConstantPolicy([0.5], ActionBounds([0.0], [1.0]))
    with pytest.raises(ValueError):
        ClosedLoopSystem(plant, bad_policy, DisturbanceBounds.zero(2))
