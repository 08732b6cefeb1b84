import re
import tracemalloc

import numpy as np
import pytest

from reachverify.nn import (
    MlpModel,
    ModelMeta,
    TrainingConfig,
    TransitionDataset,
    fit_mlp,
    forward_batch,
    load_model,
    loss_and_gradient,
    save_model,
    split_dataset,
    train_dynamics_model,
)

META = ModelMeta(n_state=2, n_action=0, dt_env=0.1)


def random_model(sizes, rng, scale=1.0):
    weights = tuple(rng.normal(size=(a, b)) for a, b in zip(sizes[:-1], sizes[1:]))
    biases = tuple(rng.normal(size=b) for b in sizes[1:])
    return MlpModel(
        layer_sizes=tuple(sizes),
        weights=weights,
        biases=biases,
        output_scale=np.full(sizes[-1], scale),
        meta=META,
    )


def naive_forward(model, x):
    # Independent re-implementation with explicit loops.
    h = list(x)
    for layer in range(len(model.weights)):
        w, b = model.weights[layer], model.biases[layer]
        out = []
        for j in range(w.shape[1]):
            acc = b[j]
            for i in range(w.shape[0]):
                acc += h[i] * w[i, j]
            out.append(acc)
        if layer < len(model.weights) - 1:
            h = [np.tanh(v) for v in out]
        else:
            h = [model.output_scale[j] * np.tanh(v) for j, v in enumerate(out)]
    return np.asarray(h)


def test_zero_weights_tanh_gives_zero():
    sizes = (3, 4, 2)
    model = MlpModel(
        layer_sizes=sizes,
        weights=tuple(np.zeros((a, b)) for a, b in zip(sizes[:-1], sizes[1:])),
        biases=tuple(np.zeros(b) for b in sizes[1:]),
        output_scale=np.ones(2),
        meta=META,
    )
    assert np.array_equal(forward_batch(model, np.array([[1.0, -2.0, 3.0]]))[0], np.zeros(2))


def test_single_linear_identity_layer():
    # One layer with identity weights is the bare head: scale * tanh(x).
    scale = np.array([0.5, 2.0, 3.0])
    model = MlpModel(
        layer_sizes=(3, 3),
        weights=(np.eye(3),),
        biases=(np.zeros(3),),
        output_scale=scale,
        meta=META,
    )
    x = np.array([0.3, -1.2, 4.0])
    assert np.array_equal(forward_batch(model, x[None, :])[0], scale * np.tanh(x))


def test_forward_matches_naive_oracle():
    rng = np.random.default_rng(0)
    for _ in range(6):
        model = random_model((2, 16, 16, 2), rng, scale=1.7)
        for _ in range(5):
            x = rng.normal(size=2)
            got = forward_batch(model, x[None, :])[0]
            assert np.allclose(got, naive_forward(model, x), atol=1e-12)


def _whole_batch_forward(model, X):
    # Reference: each layer over all rows at once, as separate numpy steps.
    h = X
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        h = np.tanh(h @ w + b)
    return model.output_scale * h


def test_forward_batch_blocks_cover_every_row():
    # Three full 4096-row blocks and a 17-row remainder.
    rng = np.random.default_rng(11)
    model = random_model((4, 32, 16, 3), rng, scale=1.4)
    X = rng.normal(size=(3 * 4096 + 17, 4))
    got = forward_batch(model, X)
    assert got.shape == (len(X), 3)
    assert np.allclose(got, _whole_batch_forward(model, X), rtol=0.0, atol=1e-12)


def test_forward_batch_of_no_rows():
    model = random_model((3, 8, 2), np.random.default_rng(12))
    assert forward_batch(model, np.empty((0, 3))).shape == (0, 2)


def test_forward_batch_memory_is_bounded_by_the_block():
    # The air rate scan: 45^3 rows through a 6->32->32->3 net.  Whole-batch
    # evaluation holds two 91125 x 32 activations (about 47 MB); blocked,
    # the call needs the 2.2 MB result and two 1 MB block buffers.
    rng = np.random.default_rng(13)
    model = random_model((6, 32, 32, 3), rng)
    X = rng.uniform(-1.0, 1.0, size=(45**3, 6))
    tracemalloc.start()
    try:
        forward_batch(model, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


def test_output_bound_property():
    rng = np.random.default_rng(42)
    for _ in range(50):
        scale = float(rng.uniform(0.1, 5.0))
        model = random_model((4, 8, 3), rng, scale=scale)
        x = rng.normal(scale=100.0, size=4)
        y = forward_batch(model, x[None, :])[0]
        assert np.all(np.abs(y) <= scale + 1e-12)


def test_analytic_gradient_matches_central_differences():
    rng = np.random.default_rng(3)
    model = random_model((3, 6, 2), rng)
    X = rng.normal(size=(5, 3))
    Y = rng.normal(size=(5, 2)) * 0.5
    loss0, gw, gb = loss_and_gradient(model, X, Y)
    eps = 1e-6

    def loss_with(weights, biases):
        m = MlpModel(
            layer_sizes=model.layer_sizes,
            weights=tuple(weights),
            biases=tuple(biases),
            output_scale=model.output_scale,
            meta=model.meta,
        )
        return loss_and_gradient(m, X, Y)[0]

    for layer in range(len(model.weights)):
        w = model.weights[layer]
        for idx in [(0, 0), (w.shape[0] - 1, w.shape[1] - 1), (0, w.shape[1] - 1)]:
            wp = [x.copy() for x in model.weights]
            wm = [x.copy() for x in model.weights]
            wp[layer][idx] += eps
            wm[layer][idx] -= eps
            fd = (loss_with(wp, model.biases) - loss_with(wm, model.biases)) / (2 * eps)
            assert abs(fd - gw[layer][idx]) <= 1e-4 * max(1.0, abs(fd))
        bp = [x.copy() for x in model.biases]
        bm = [x.copy() for x in model.biases]
        bp[layer][0] += eps
        bm[layer][0] -= eps
        fd = (loss_with(model.weights, bp) - loss_with(model.weights, bm)) / (2 * eps)
        assert abs(fd - gb[layer][0]) <= 1e-4 * max(1.0, abs(fd))


def _make_dataset(rng, n, delta_fn):
    states = rng.uniform(-1, 1, size=(n, 2))
    actions = rng.uniform(-1, 1, size=(n, 2))
    deltas = delta_fn(states, actions)
    return TransitionDataset(states, actions, deltas)


def test_training_on_zero_targets():
    rng = np.random.default_rng(0)
    data = _make_dataset(rng, 200, lambda s, a: np.zeros_like(s))
    result = train_dynamics_model(data, TrainingConfig(epochs=30, seed=0))
    assert result.validation_error < 1e-6


def test_training_on_linear_targets():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(4, 2)) * 0.3
    data = _make_dataset(rng, 1000, lambda s, a: np.hstack([s, a]) @ A)
    result = train_dynamics_model(
        data, TrainingConfig(epochs=400, lr_schedule="cosine", seed=0)
    )
    var = float(np.mean(np.sum(data.deltas**2, axis=1)))
    assert result.validation_error < 1e-3 * var
    assert result.validation_error <= result.baseline_error
    # epoch losses non-increasing over any 10-epoch window, 5% tolerance
    losses = np.asarray(result.epoch_losses)
    assert np.all(losses[10:] <= losses[:-10] * 1.05)


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    model = random_model((4, 8, 8, 3), rng, scale=2.5)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    X = rng.normal(size=(100, 4))
    assert np.array_equal(forward_batch(model, X), forward_batch(loaded, X))
    for w1, w2 in zip(model.weights, loaded.weights):
        assert np.array_equal(w1, w2)


def test_load_rejects_truncated_and_mismatched(tmp_path):
    rng = np.random.default_rng(4)
    model = random_model((3, 5, 2), rng)
    path = tmp_path / "model.json"
    save_model(model, path)
    raw = path.read_text()
    (tmp_path / "broken.json").write_text(raw[: len(raw) // 2])
    with pytest.raises(ValueError):
        load_model(tmp_path / "broken.json")

    import json

    doc = json.loads(raw)
    doc["layer_sizes"] = [3, 6, 2]
    (tmp_path / "mismatch.json").write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_model(tmp_path / "mismatch.json")


def test_split_dataset_deterministic_and_tagged():
    rng = np.random.default_rng(5)
    data = _make_dataset(rng, 50, lambda s, a: s)
    t1, v1 = split_dataset(data, seed=9)
    t2, v2 = split_dataset(data, seed=9)
    assert np.array_equal(t1.states, t2.states)
    assert np.array_equal(v1.states, v2.states)
    assert (len(t1), len(v1)) == (40, 10)  # (train, validation) at val_fraction 0.2


@pytest.mark.parametrize("field", ["epochs", "batch_size"])
def test_training_config_rejects_nonpositive_counts(field):
    with pytest.raises(ValueError, match=field):
        TrainingConfig(**{field: 0})


def test_dataset_validation():
    with pytest.raises(ValueError):
        TransitionDataset(np.zeros((0, 2)), np.zeros((0, 1)), np.zeros((0, 2)))
    with pytest.raises(ValueError):
        TransitionDataset(np.zeros((3, 2)), np.zeros((2, 1)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        TransitionDataset(np.zeros((3, 2)), np.zeros((3, 1)), np.zeros((3, 3)))


def test_nan_in_training_raises():
    states = np.array([[1e300, 1e300]] * 10)
    data = TransitionDataset(states, states.copy(), states.copy())
    message = "training diverged: non-finite loss at epoch 0, step 0"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
            train_dynamics_model(data, TrainingConfig(epochs=5, learning_rate=1e200))

    # Finite data, but the first Adam steps, each about the learning rate,
    # push the weights to infinity: the loss on the third mini-batch is NaN.
    rng = np.random.default_rng(0)
    X, Y = rng.normal(size=(10, 3)), rng.normal(size=(10, 2))
    config = TrainingConfig(hidden_sizes=(4,), epochs=5, batch_size=4, learning_rate=1.7e308)
    message = "training diverged: non-finite loss at epoch 0, step 2"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
            fit_mlp(X, Y, config, 1.0, META)


# ---------------------------------------------------------------------------
# Reference trainer: one array per weight and bias, a fresh array for every
# intermediate result.  fit_mlp keeps one flat parameter vector and updates it
# in place; the elementwise arithmetic is the same, so results must agree bit
# for bit.
# ---------------------------------------------------------------------------

def _ref_loss_and_grads(weights, biases, scale, X, Y):
    acts = [X]
    for w, b in zip(weights, biases):
        acts.append(np.tanh(acts[-1] @ w + b))
    n = len(X)
    t = acts.pop()
    err = scale * t - Y
    loss = float(np.mean(np.sum(err * err, axis=1)))
    grad = 2.0 * err / n
    delta = grad * scale * (1.0 - t * t)
    grads_w = [None] * len(weights)
    grads_b = [None] * len(weights)
    for i in range(len(weights) - 1, -1, -1):
        grads_w[i] = acts[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ weights[i].T) * (1.0 - acts[i] * acts[i])
    return loss, grads_w, grads_b


def _ref_fit_mlp(X, Y, config, scale):
    sizes = (X.shape[1], *config.hidden_sizes, Y.shape[1])
    rng = np.random.default_rng(config.seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m_w = [np.zeros_like(w) for w in weights]
    v_w = [np.zeros_like(w) for w in weights]
    m_b = [np.zeros_like(b) for b in biases]
    v_b = [np.zeros_like(b) for b in biases]
    losses, step, n = [], 0, len(X)
    batch = min(config.batch_size, n)
    for epoch in range(config.epochs):
        if config.lr_schedule == "cosine":
            frac = epoch / max(1, config.epochs - 1)
            lr = config.learning_rate * (0.01 + 0.99 * 0.5 * (1 + np.cos(np.pi * frac)))
        else:
            lr = config.learning_rate
        order = rng.permutation(n)
        batch_losses = []
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            loss, gw, gb = _ref_loss_and_grads(weights, biases, scale, X[idx], Y[idx])
            batch_losses.append(loss)
            step += 1
            corr1 = 1.0 - beta1 ** step
            corr2 = 1.0 - beta2 ** step
            for i in range(len(weights)):
                m_w[i] = beta1 * m_w[i] + (1 - beta1) * gw[i]
                v_w[i] = beta2 * v_w[i] + (1 - beta2) * gw[i] ** 2
                m_b[i] = beta1 * m_b[i] + (1 - beta1) * gb[i]
                v_b[i] = beta2 * v_b[i] + (1 - beta2) * gb[i] ** 2
                weights[i] -= lr * (m_w[i] / corr1) / (np.sqrt(v_w[i] / corr2) + eps)
                biases[i] -= lr * (m_b[i] / corr1) / (np.sqrt(v_b[i] / corr2) + eps)
        losses.append(float(np.mean(batch_losses)))
    return weights, biases, losses


_FIT_CASES = [
    # (schedule, hidden_sizes, batch_size); n = 48 rows.
    ("constant", (8, 8), 16),
    ("cosine", (8, 8), 20),
    ("cosine", (8, 8), 16),
    ("constant", (6, 5, 7), 20),
    ("constant", (8, 8), 20),
    ("cosine", (8,), 16),
    ("cosine", (6, 5, 7), 64),
    ("cosine", (6, 5, 7), 48),
    ("constant", (8,), 64),
]


@pytest.mark.parametrize("schedule,hidden_sizes,batch_size", _FIT_CASES)
def test_fit_mlp_bitwise_equals_per_array_reference(schedule, hidden_sizes, batch_size):
    rng = np.random.default_rng(7)
    X = rng.normal(size=(48, 3))
    Y = np.tanh(X @ rng.normal(size=(3, 2))) * 0.8 + rng.normal(scale=0.05, size=(48, 2))
    scale = np.array([1.2, 0.9])
    config = TrainingConfig(
        hidden_sizes=hidden_sizes, learning_rate=3e-2, batch_size=batch_size, epochs=25, seed=5, lr_schedule=schedule,
    )
    model, losses = fit_mlp(X, Y, config, scale, META)
    ref_w, ref_b, ref_losses = _ref_fit_mlp(X, Y, config, scale)
    assert losses == ref_losses
    assert len(model.weights) == len(ref_w) == len(hidden_sizes) + 1
    for w, rw in zip(model.weights, ref_w):
        assert np.array_equal(w, rw)
    for b, rb in zip(model.biases, ref_b):
        assert np.array_equal(b, rb)


def test_loss_and_gradient_equals_reference_and_returns_fresh_arrays():
    rng = np.random.default_rng(8)
    for _ in range(6):
        model = random_model((3, 7, 5, 2), rng, scale=1.3)
        X = rng.normal(size=(9, 3))
        Y = rng.normal(size=(9, 2))
        X_before, Y_before = X.copy(), Y.copy()
        loss, gw, gb = loss_and_gradient(model, X, Y)
        ref_loss, ref_gw, ref_gb = _ref_loss_and_grads(
            model.weights, model.biases, model.output_scale, X, Y
        )
        assert loss == ref_loss
        assert all(np.array_equal(a, b) for a, b in zip(gw, ref_gw))
        assert all(np.array_equal(a, b) for a, b in zip(gb, ref_gb))
        assert np.array_equal(X, X_before) and np.array_equal(Y, Y_before)

        _, gw2, gb2 = loss_and_gradient(model, X, Y)
        for a in gw + gb:
            for b in gw2 + gb2:
                assert not np.shares_memory(a, b)
            for p in model.weights + model.biases:
                assert not np.shares_memory(a, p)


def test_trained_weights_own_their_memory():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(30, 3))
    Y = rng.normal(size=(30, 2)) * 0.3
    config = TrainingConfig(hidden_sizes=(6, 6), epochs=3, batch_size=8)
    model, _ = fit_mlp(X, Y, config, 1.0, META)
    params = model.weights + model.biases
    for i, a in enumerate(params):
        assert a.base is None
        assert not np.shares_memory(a, X) and not np.shares_memory(a, Y)
        for b in params[i + 1 :]:
            assert not np.shares_memory(a, b)
