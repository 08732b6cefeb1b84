import numpy as np
import pytest

from reachverify.error_bounds import (
    DisturbanceBounds,
    ResidualStats,
    coverage_check,
    k_sigma_bounds,
    load_bounds,
    residual_matrix,
    residuals,
    save_bounds,
)
from reachverify.nn import MlpModel, ModelMeta, TransitionDataset, forward_batch


def zero_model(n_state=2, n_action=1):
    n_in = n_state + n_action
    return MlpModel(
        layer_sizes=(n_in, 4, n_state),
        weights=(np.zeros((n_in, 4)), np.zeros((4, n_state))),
        biases=(np.zeros(4), np.zeros(n_state)),
        output_scale=np.ones(n_state),
        meta=ModelMeta(n_state=n_state, n_action=n_action, dt_env=0.1),
    )


def test_perfect_model_zero_residuals():
    rng = np.random.default_rng(0)
    model = zero_model()
    states = rng.uniform(-1, 1, size=(20, 2))
    actions = rng.uniform(-1, 1, size=(20, 1))
    deltas = forward_batch(model, np.hstack([states, actions]))
    stats = residuals(model, TransitionDataset(states, actions, deltas))
    assert np.allclose(stats.sd, 0.0)
    assert np.allclose(stats.mean, 0.0)


def test_plus_minus_one_residuals():
    model = zero_model(n_state=1, n_action=1)
    states = np.zeros((2, 1))
    actions = np.zeros((2, 1))
    deltas = np.array([[1.0], [-1.0]])  # predictions are 0 -> residuals -/+1
    stats = residuals(model, TransitionDataset(states, actions, deltas))
    assert stats.mean[0] == pytest.approx(0.0)
    assert stats.sd[0] == pytest.approx(1.0)
    assert stats.count == 2


def test_k_sigma_arithmetic():
    stats = ResidualStats(mean=np.zeros(2), sd=np.array([0.001, 0.002]), count=10)
    b = k_sigma_bounds(stats, k=3.0, dt_env=0.1)
    assert np.allclose(b.upper, [0.03, 0.06])
    assert np.allclose(b.lower, [-0.03, -0.06])
    assert b.k_sigma == 3.0


def test_k_sigma_degenerate_sd():
    stats = ResidualStats(mean=np.array([0.004, -0.002]), sd=np.zeros(2), count=5)
    b = k_sigma_bounds(stats, k=3.0, dt_env=0.1)
    assert np.allclose(b.upper, [0.04, 0.02])


def test_gaussian_coverage_at_three_sigma():
    # Oracle: direct counting on a large seeded sample.
    rng = np.random.default_rng(123)
    rows = rng.normal(scale=[0.01, 0.03], size=(100_000, 2))
    stats = ResidualStats(mean=rows.mean(axis=0), sd=rows.std(axis=0), count=len(rows))
    b = k_sigma_bounds(stats, k=3.0, dt_env=0.1)
    assert coverage_check(b, rows) >= 0.99


def test_coverage_extremes():
    rows = np.array([[0.5, -0.2], [-0.3, 0.4], [0.1, 0.0]])
    maxed = DisturbanceBounds(
        upper=np.abs(rows).max(axis=0), lower=-np.abs(rows).max(axis=0), dt_env=1.0
    )
    assert coverage_check(maxed, rows) == 1.0
    zero = DisturbanceBounds.zero(2)
    assert coverage_check(zero, rows) == 0.0


def test_bounds_monotone_in_k():
    stats = ResidualStats(mean=np.array([0.001, 0.0]), sd=np.array([0.01, 0.02]), count=10)
    b1 = k_sigma_bounds(stats, k=1.0, dt_env=0.1)
    b2 = k_sigma_bounds(stats, k=2.5, dt_env=0.1)
    assert np.all(b1.upper <= b2.upper)


def test_coverage_monotone_in_bounds():
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(500, 2))
    small = DisturbanceBounds(upper=np.array([0.5, 0.5]), lower=-np.array([0.5, 0.5]))
    big = DisturbanceBounds(upper=np.array([1.5, 1.5]), lower=-np.array([1.5, 1.5]))
    assert coverage_check(small, rows) <= coverage_check(big, rows)


def test_residual_scaling_scales_bounds():
    rng = np.random.default_rng(6)
    rows = rng.normal(size=(200, 2))
    lam = 3.7

    def make_bounds(r):
        stats = ResidualStats(mean=r.mean(axis=0), sd=r.std(axis=0), count=len(r))
        return k_sigma_bounds(stats, k=3.0, dt_env=0.1)

    b1 = make_bounds(rows)
    b2 = make_bounds(lam * rows)
    assert np.allclose(b2.upper, lam * b1.upper)


def test_residual_matrix_shape_and_meaning():
    model = zero_model()
    rng = np.random.default_rng(7)
    states = rng.uniform(-1, 1, size=(30, 2))
    actions = rng.uniform(-1, 1, size=(30, 1))
    deltas = rng.normal(size=(30, 2))
    data = TransitionDataset(states, actions, deltas)
    r = residual_matrix(model, data)
    pred = forward_batch(model, data.inputs())
    assert np.array_equal(r, pred - deltas)


def test_bounds_validation_and_round_trip(tmp_path):
    with pytest.raises(ValueError):
        DisturbanceBounds(upper=np.array([-0.1]), lower=np.array([-0.2]))
    with pytest.raises(ValueError):
        DisturbanceBounds(upper=np.array([0.1]), lower=np.array([0.2]))
    b = DisturbanceBounds(
        upper=np.array([0.25, 0.5]), lower=np.array([-0.25, -0.5]),
        k_sigma=3.0, dt_env=0.1,
    )
    path = tmp_path / "bounds.json"
    save_bounds(b, path)
    loaded = load_bounds(path)
    assert np.array_equal(loaded.upper, b.upper)
    assert np.array_equal(loaded.lower, b.lower)
    assert loaded.k_sigma == b.k_sigma and loaded.dt_env == b.dt_env


@pytest.mark.parametrize("upper,lower", [([np.nan], [-0.1]), ([np.inf], [-0.1]),
                                         ([0.1], [-np.inf]), ([0.1], [np.nan])])
def test_bounds_reject_nonfinite_entries(upper, lower):
    with pytest.raises(ValueError, match="finite"):
        DisturbanceBounds(upper=np.array(upper), lower=np.array(lower))


def test_stats_validation():
    with pytest.raises(ValueError):
        ResidualStats(mean=np.zeros(2), sd=np.zeros(2), count=1)
    with pytest.raises(ValueError):
        ResidualStats(mean=np.zeros(2), sd=np.array([-0.1, 0.0]), count=5)
