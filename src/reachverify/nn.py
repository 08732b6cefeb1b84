"""Minimal feed-forward network engine built on numpy.

Every network has one form: tanh hidden layers and a bounded output head
``c * tanh``, which confines every output component to ``[-c, c]`` by
construction.  The module covers batched forward evaluation, supervised
training with analytic backpropagation and Adam updates, and a JSON weight
format whose floats round-trip exactly.

Training keeps all weights and biases in one flat parameter vector (the
per-layer arrays are views into it), writes the gradients of each
mini-batch into one buffer of the same layout, and applies the Adam update
to the whole vector with in-place ufuncs.

Batched evaluation runs over the rows in fixed blocks of 4096, so its
working memory is one block of hidden activations per layer (about 1 MB at
width 32) whatever the batch size: a rate scan over every grid node or a
planning batch over every candidate costs the result array and little
more.  Each row goes through the same operations in the same order as in a
whole-batch pass, but the BLAS library may pick its matmul kernel by the
block's shape, so a row's last bits can depend on the block it falls in
(differences of about 1e-15 have been seen against one whole-batch call).

Dynamics models map ``[state; action]`` to a per-step state delta; the same
machinery fits policy networks mapping state to action.

Every module that reads or writes package files imports ``nn``, so the
one decoder of JSON values (:func:`json_value`: scenes, models, policies,
bounds, tube manifests, run configs) and the one CSV row writer
(:func:`write_csv`) live here.
"""

from __future__ import annotations

import json
import math
import types
import typing
from dataclasses import asdict, dataclass

import numpy as np

__all__ = [
    "ModelMeta",
    "MlpModel",
    "TransitionDataset",
    "TrainingConfig",
    "DynamicsTrainResult",
    "forward_batch",
    "loss_and_gradient",
    "fit_mlp",
    "train_dynamics_model",
    "prediction_error",
    "split_dataset",
    "save_model",
    "load_model",
    "save_dataset",
    "load_dataset",
]

def json_value(tp, value, key: str):
    """``value``, read from a JSON file, checked as a ``tp``: an int may stand
    for a float and a list for a tuple, but a bool or a string is never a
    number and a float never an int.  A union takes the first member that
    fits.  Only types are checked; a mismatch is a ValueError naming ``key``."""
    union = typing.get_origin(tp) in (typing.Union, types.UnionType)
    options = typing.get_args(tp) if union else (tp,)
    for option in options:
        if typing.get_origin(option) is tuple and type(value) is list:
            return tuple(json_value(typing.get_args(option)[0], v, key) for v in value)
        if option is float and type(value) is int:
            return float(value)
        if type(value) is option:
            return value
    names = " or ".join("null" if t is type(None) else t.__name__ for t in options)
    raise ValueError(f"{key} must be {names}, not {json.dumps(value)}")


@dataclass(frozen=True)
class ModelMeta:
    """Semantic layout of a model's input/output vectors."""

    n_state: int
    n_action: int
    dt_env: float
    role: str = "dynamics"
    action_lo: tuple[float, ...] | None = None
    action_hi: tuple[float, ...] | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "ModelMeta":
        """A model file's meta block; each value is decoded as its field's type."""
        hints = typing.get_type_hints(ModelMeta)
        return ModelMeta(**{k: json_value(hints[k], d[k], k) for k in hints if k in d})


@dataclass(frozen=True)
class MlpModel:
    """Layered feed-forward network with tanh hidden layers and a bounded
    output head.

    ``weights[i]`` has shape ``(layer_sizes[i], layer_sizes[i+1])``; each
    layer computes ``z = h @ W + b``, a hidden layer passes on ``tanh(z)``
    and the output layer returns ``output_scale * tanh(z)``, so each output
    component lies in ``[-output_scale_i, output_scale_i]`` for any input.
    """

    layer_sizes: tuple
    weights: tuple
    biases: tuple
    output_scale: np.ndarray
    meta: ModelMeta

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        if len(sizes) < 2 or any(s <= 0 for s in sizes):
            raise ValueError(f"invalid layer sizes {sizes}")
        weights = tuple(np.asarray(w, dtype=float) for w in self.weights)
        biases = tuple(np.asarray(b, dtype=float) for b in self.biases)
        if len(weights) != len(sizes) - 1 or len(biases) != len(sizes) - 1:
            raise ValueError("number of weight/bias arrays does not match layer sizes")
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.shape != (sizes[i], sizes[i + 1]):
                raise ValueError(
                    f"weight {i} has shape {w.shape}, expected {(sizes[i], sizes[i + 1])}"
                )
            if b.shape != (sizes[i + 1],):
                raise ValueError(f"bias {i} has shape {b.shape}, expected ({sizes[i + 1]},)")
        scale = np.asarray(self.output_scale, dtype=float)
        if scale.shape == ():
            scale = np.full(sizes[-1], float(scale))
        if scale.shape != (sizes[-1],):
            raise ValueError(f"output_scale must have {sizes[-1]} entries")
        if not np.all(np.isfinite(scale)) or np.any(scale <= 0):
            raise ValueError("output_scale must be finite and positive")
        object.__setattr__(self, "layer_sizes", sizes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "biases", biases)
        object.__setattr__(self, "output_scale", scale)

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_outputs(self) -> int:
        return self.layer_sizes[-1]


# About 1 MB of hidden activations per block at width 32.
_BLOCK_ROWS = 4096


def forward_batch(model: MlpModel, inputs: np.ndarray) -> np.ndarray:
    """Evaluate the network on a batch of rows; no input validation.

    Rows are evaluated in blocks of ``_BLOCK_ROWS``: each hidden layer has
    one block-sized buffer, and the output layer writes straight into the
    ``(n, n_outputs)`` result.
    """
    n = len(inputs)
    last = len(model.weights) - 1
    out = np.empty((n, model.n_outputs))
    hidden = [np.empty((min(n, _BLOCK_ROWS), w.shape[1])) for w in model.weights[:-1]]
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        h = inputs[start:stop]
        for i, (w, b) in enumerate(zip(model.weights, model.biases)):
            z = out[start:stop] if i == last else hidden[i][: stop - start]
            np.matmul(h, w, out=z)
            z += b
            h = np.tanh(z, out=z)
        h *= model.output_scale
    return out


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransitionDataset:
    """Observed transition tuples ``(state, action, state delta)``."""

    states: np.ndarray
    actions: np.ndarray
    deltas: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.states, dtype=float)
        a = np.asarray(self.actions, dtype=float)
        d = np.asarray(self.deltas, dtype=float)
        if s.ndim != 2 or a.ndim != 2 or d.ndim != 2:
            raise ValueError("states, actions and deltas must be 2-D arrays")
        if not (len(s) == len(a) == len(d)):
            raise ValueError("states, actions and deltas must have equal length")
        if len(s) == 0:
            raise ValueError("dataset must be nonempty")
        if s.shape[1] != d.shape[1]:
            raise ValueError("state and delta dimensions differ")
        object.__setattr__(self, "states", s)
        object.__setattr__(self, "actions", a)
        object.__setattr__(self, "deltas", d)

    def __len__(self) -> int:
        return len(self.states)

    @property
    def n_state(self) -> int:
        return self.states.shape[1]

    @property
    def n_action(self) -> int:
        return self.actions.shape[1]

    def inputs(self) -> np.ndarray:
        return np.hstack([self.states, self.actions])


def split_dataset(
    data: TransitionDataset, val_fraction: float = 0.2, seed: int = 0
) -> tuple[TransitionDataset, TransitionDataset]:
    """Uniform random train/validation split, seeded."""
    rng = np.random.default_rng(seed)
    n = len(data)
    n_val = max(1, int(round(val_fraction * n)))
    if n_val >= n:
        raise ValueError("dataset too small to split")
    perm = rng.permutation(n)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    train, val = (
        TransitionDataset(data.states[idx], data.actions[idx], data.deltas[idx])
        for idx in (train_idx, val_idx)
    )
    return train, val


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainingConfig:
    """The settings :func:`fit_mlp` reads: the hidden layer widths, the Adam
    learning rate and its schedule, the mini-batch size, the epoch count
    and the seed of the initial weights and the batch order."""

    hidden_sizes: tuple[int, ...] = (32, 32)
    learning_rate: float = 1e-3
    batch_size: int = 64
    epochs: int = 500
    seed: int = 0
    lr_schedule: str = "constant"  # or "cosine", annealing to 1% of the base rate

    def __post_init__(self):
        if self.lr_schedule not in ("constant", "cosine"):
            raise ValueError("lr_schedule must be 'constant' or 'cosine'")
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


def _param_views(flat: np.ndarray, sizes):
    """Per-layer weight and bias views into one flat vector laid out as
    ``W0, b0, W1, b1, ...`` with each ``W`` row-major."""
    weights, biases = [], []
    start = 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        stop = start + fan_in * fan_out
        weights.append(flat[start:stop].reshape(fan_in, fan_out))
        biases.append(flat[stop : stop + fan_out])
        start = stop + fan_out
    return weights, biases


def _n_params(sizes) -> int:
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))


def _init_params(sizes, rng) -> np.ndarray:
    theta = np.zeros(_n_params(sizes))
    for w in _param_views(theta, sizes)[0]:
        fan_in, fan_out = w.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-limit, limit, size=(fan_in, fan_out))
    return theta


def _loss_and_grads(weights, biases, scale, X, Y, grads_w, grads_b):
    """Mean over rows of the squared error norm.

    Writes the parameter gradients into ``grads_w`` and ``grads_b``, arrays
    shaped like ``weights`` and ``biases``; ``X`` and ``Y`` are not modified.
    """
    n = len(X)
    last = len(weights) - 1
    acts = [X]
    for w, b in zip(weights, biases):
        z = acts[-1] @ w
        z += b
        acts.append(np.tanh(z, out=z))
    err = scale * acts[-1]
    err -= Y
    # Mean over rows of the row sums, as np.mean(np.sum(., axis=1)) adds
    # them, without the wrappers' per-call overhead.
    loss = float(np.add.reduce(np.add.reduce(err * err, axis=1))) / n

    # delta = dLoss/dz of each layer, from the top: 2 err / n times the
    # head's scale at the output, the next layer's delta @ W.T below it,
    # and at every layer times tanh' = 1 - a^2 of its output a, computed
    # in a's buffer.
    err *= 2.0
    err /= n
    err *= scale
    delta = err
    for i in range(last, -1, -1):
        a = acts[i + 1]
        np.multiply(a, a, out=a)
        np.subtract(1.0, a, out=a)
        delta *= a
        np.matmul(acts[i].T, delta, out=grads_w[i])
        np.add.reduce(delta, axis=0, out=grads_b[i])
        if i > 0:
            delta = delta @ weights[i].T
    return loss


def loss_and_gradient(model: MlpModel, X: np.ndarray, Y: np.ndarray):
    """Training loss and analytic parameter gradients for the given batch.

    Returns ``(loss, grads_w, grads_b)``; the gradient arrays are views into
    one buffer allocated for this call.
    """
    grads_w, grads_b = _param_views(np.empty(_n_params(model.layer_sizes)), model.layer_sizes)
    loss = _loss_and_grads(
        model.weights,
        model.biases,
        model.output_scale,
        np.asarray(X, dtype=float),
        np.asarray(Y, dtype=float),
        grads_w,
        grads_b,
    )
    return loss, grads_w, grads_b


def fit_mlp(
    X: np.ndarray,
    Y: np.ndarray,
    config: TrainingConfig,
    output_scale,
    meta: ModelMeta,
) -> tuple[MlpModel, list[float]]:
    """Fit an MLP to ``(X, Y)`` with mini-batch Adam.

    Returns the trained model and the full-dataset loss recorded after each
    epoch.  Aborts with ``RuntimeError`` if the loss turns non-finite.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    sizes = (X.shape[1], *config.hidden_sizes, Y.shape[1])
    rng = np.random.default_rng(config.seed)
    theta = _init_params(sizes, rng)
    weights, biases = _param_views(theta, sizes)
    grad = np.empty_like(theta)
    grads_w, grads_b = _param_views(grad, sizes)
    scale = np.asarray(output_scale, dtype=float)
    if scale.shape == ():
        scale = np.full(Y.shape[1], float(scale))

    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    step_buf = np.empty_like(theta)
    denom = np.empty_like(theta)

    losses: list[float] = []
    step = 0
    n = len(X)
    batch = min(config.batch_size, n)
    for epoch in range(config.epochs):
        if config.lr_schedule == "cosine":
            frac = epoch / max(1, config.epochs - 1)
            lr = config.learning_rate * (0.01 + 0.99 * 0.5 * (1 + np.cos(np.pi * frac)))
        else:
            lr = config.learning_rate
        order = rng.permutation(n)
        X_epoch, Y_epoch = X[order], Y[order]
        batch_losses = []
        for start in range(0, n, batch):
            loss = _loss_and_grads(
                weights, biases, scale, X_epoch[start : start + batch],
                Y_epoch[start : start + batch], grads_w, grads_b,
            )
            if not math.isfinite(loss):
                raise RuntimeError(
                    f"training diverged: non-finite loss at epoch {epoch}, step {step}"
                )
            batch_losses.append(loss)
            step += 1
            corr1 = 1.0 - beta1 ** step
            corr2 = 1.0 - beta2 ** step
            # m = beta1 m + (1 - beta1) g;  v = beta2 v + (1 - beta2) g^2
            m *= beta1
            np.multiply(grad, 1 - beta1, out=step_buf)
            m += step_buf
            v *= beta2
            np.multiply(grad, grad, out=step_buf)
            step_buf *= 1 - beta2
            v += step_buf
            # theta -= lr (m / corr1) / (sqrt(v / corr2) + eps)
            np.divide(m, corr1, out=step_buf)
            step_buf *= lr
            np.divide(v, corr2, out=denom)
            np.sqrt(denom, out=denom)
            denom += eps
            step_buf /= denom
            theta -= step_buf
        losses.append(float(np.mean(batch_losses)))

    model = MlpModel(
        layer_sizes=sizes,
        weights=tuple(w.copy() for w in weights),
        biases=tuple(b.copy() for b in biases),
        output_scale=scale,
        meta=meta,
    )
    return model, losses


@dataclass(frozen=True)
class DynamicsTrainResult:
    model: MlpModel
    validation: TransitionDataset
    epoch_losses: list
    validation_error: float
    baseline_error: float


def prediction_error(model: MlpModel, data: TransitionDataset) -> float:
    """Mean squared-norm prediction error of the model on a dataset."""
    pred = forward_batch(model, data.inputs())
    return float(np.mean(np.sum((pred - data.deltas) ** 2, axis=1)))


def train_dynamics_model(
    data: TransitionDataset, config: TrainingConfig, dt_env: float = 1.0
) -> DynamicsTrainResult:
    """Fit a state-delta prediction model on an 80/20 train/validation
    split seeded by ``config.seed``.

    The output head is ``tanh`` scaled per dimension to 1.5 times the
    largest ``|delta|`` seen in the training split, which bounds
    predictions without clipping the data.
    """
    train, val = split_dataset(data, 0.2, config.seed)
    scale = np.maximum(1.5 * np.max(np.abs(train.deltas), axis=0), 1e-6)
    meta = ModelMeta(n_state=train.n_state, n_action=train.n_action, dt_env=dt_env)
    model, losses = fit_mlp(train.inputs(), train.deltas, config, scale, meta)
    val_err = prediction_error(model, val)
    baseline = float(np.mean(np.sum(val.deltas ** 2, axis=1)))
    return DynamicsTrainResult(
        model=model,
        validation=val,
        epoch_losses=losses,
        validation_error=val_err,
        baseline_error=baseline,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def save_model(model: MlpModel, path) -> None:
    """Write the model as JSON; floats use shortest exact decimal form.

    Both activation names are written as ``"tanh"``, the one network form,
    so :func:`load_model` can refuse a file of any other form."""
    doc = {
        "layer_sizes": list(model.layer_sizes),
        "hidden_activation": "tanh",
        "output_activation": "tanh",
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "output_scale": model.output_scale.tolist(),
        "meta": model.meta.to_dict(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_model(path) -> MlpModel:
    """Load a model written by :func:`save_model`; ``load(save(m))`` is exact.

    Raises ``ValueError`` for malformed files, weight shapes that do not
    chain with the declared layer sizes, or an activation other than tanh.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
        for key in ("hidden_activation", "output_activation"):
            if json_value(str, doc[key], key) != "tanh":
                raise ValueError(f'{key} must be "tanh", not {json.dumps(doc[key])}')
        floats = tuple[float, ...]
        return MlpModel(
            layer_sizes=json_value(tuple[int, ...], doc["layer_sizes"], "layer_sizes"),
            weights=json_value(tuple[tuple[floats, ...], ...], doc["weights"], "weights"),
            biases=json_value(tuple[floats, ...], doc["biases"], "biases"),
            output_scale=json_value(floats | float, doc["output_scale"], "output_scale"),
            meta=ModelMeta.from_dict(doc["meta"]),
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed model file {path}: {exc}") from exc


def write_csv(path, header, chunks) -> None:
    """Write the ``header`` line, then each chunk of ``chunks``: a list of
    equal-length columns of cell text, written one line per row with the
    cells joined by ``,``.  Without rows only the header is written."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for cols in chunks:
            rows = list(map(",".join, zip(*cols)))
            if rows:
                fh.write("\n".join(rows) + "\n")


def save_dataset(data: TransitionDataset, path) -> None:
    n, m = data.n_state, data.n_action
    header = (
        [f"s{i}" for i in range(n)]
        + [f"a{i}" for i in range(m)]
        + [f"ds{i}" for i in range(n)]
    )
    cols = [
        map(repr, col.tolist())
        for block in (data.states, data.actions, data.deltas)
        for col in block.T
    ]
    write_csv(path, header, [cols])


def load_dataset(path, n_state: int, n_action: int) -> TransitionDataset:
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if raw.shape[1] != 2 * n_state + n_action:
        raise ValueError(
            f"dataset file has {raw.shape[1]} columns, expected {2 * n_state + n_action}"
        )
    return TransitionDataset(
        raw[:, :n_state],
        raw[:, n_state : n_state + n_action],
        raw[:, n_state + n_action :],
    )
