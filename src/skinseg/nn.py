"""Feed-forward network over normalized HSV with softmax output.

A small fully-connected classifier: affine + ReLU hidden layers, a
2-way softmax head trained with categorical cross-entropy and Adam.
Everything runs in double precision on plain numpy arrays; training is
single-threaded and bit-deterministic for a fixed seed (weights are
drawn layer by layer from Generator(PCG64(seed)), biases start at zero,
and each epoch reshuffles with the same generator).

Inference keeps no backprop cache across the batch: forward_batch
walks the rows in blocks of at most FORWARD_BLOCK_ROWS and holds only
the current block's activations, so its working memory does not grow
with the batch. Only training keeps every row's activations, for
backward.
"""

from dataclasses import dataclass

import numpy as np

from .classifiers import ClassProbabilities
from .colorspace import normalize_hsv_array
from .dataset import HsvSample, Label, hsv_arrays

INPUT_DIM = 3
OUTPUT_DIM = 2

_LOG_CLAMP = 1e-12

# rows per forward_batch block: a block's forward cache (119 float64
# columns) stays under 8 MB, and the per-block call overhead stays small
FORWARD_BLOCK_ROWS = 8192


@dataclass(frozen=True)
class MlpArchitecture:
    """Layer widths between the fixed 3-wide input and 2-way softmax output."""

    hidden_layers: tuple[int, ...] = (32, 16, 8)

    def __post_init__(self):
        if len(self.hidden_layers) < 1:
            raise ValueError("at least one hidden layer is required")
        if any(w < 1 for w in self.hidden_layers):
            raise ValueError(f"layer widths must be >= 1: {self.hidden_layers}")
        object.__setattr__(self, "hidden_layers", tuple(int(w) for w in self.hidden_layers))

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (INPUT_DIM, *self.hidden_layers, OUTPUT_DIM)


@dataclass
class MlpModel:
    arch: MlpArchitecture
    weights: list[np.ndarray]  # weights[l] has shape (fan_in, fan_out)
    biases: list[np.ndarray]

    def __post_init__(self):
        dims = self.arch.layer_dims
        if len(self.weights) != len(dims) - 1 or len(self.biases) != len(dims) - 1:
            raise ValueError("parameter count does not match architecture")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (dims[l], dims[l + 1]) or b.shape != (dims[l + 1],):
                raise ValueError(f"layer {l} shapes {w.shape}/{b.shape} do not match {dims}")


def init_model(arch: MlpArchitecture, rng: np.random.Generator) -> MlpModel:
    """Glorot-style uniform init: W ~ U(+/- sqrt(6/(fan_in+fan_out))), b = 0."""
    dims = arch.layer_dims
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(arch=arch, weights=weights, biases=biases)


def parameters(model: MlpModel) -> list[np.ndarray]:
    """Flat parameter list [W0, b0, W1, b1, ...] in layer order."""
    out = []
    for w, b in zip(model.weights, model.biases):
        out.extend((w, b))
    return out


def set_parameters(model: MlpModel, params: list[np.ndarray]) -> None:
    for l in range(len(model.weights)):
        model.weights[l] = params[2 * l]
        model.biases[l] = params[2 * l + 1]


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _forward_cached(model: MlpModel, x: np.ndarray):
    """Forward pass over a (N, 3) batch; returns (probs, cache).

    cache holds the input and every pre-activation, which is exactly what
    backprop needs.
    """
    activations = [x]
    pre_activations = []
    a = x
    last = len(model.weights) - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w + b
        pre_activations.append(z)
        a = softmax(z) if l == last else np.maximum(z, 0.0)
        activations.append(a)
    return activations[-1], (activations, pre_activations)


def forward_batch(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """(N, 3) inputs in [0, 1] -> (N, 2) softmax probabilities.

    Runs _forward_cached over blocks of at most FORWARD_BLOCK_ROWS rows
    and drops each block's cache before the next. The blocks are
    balanced so that none has a single row unless the batch does: numpy
    multiplies a one-row matrix with a matrix-vector kernel that can
    round differently, and a row's result must not depend on where the
    batch was cut.
    """
    x = np.asarray(x, dtype=np.float64)
    probs = np.empty((x.shape[0], OUTPUT_DIM))
    n_blocks = max(1, -(-x.shape[0] // FORWARD_BLOCK_ROWS))
    for a, out in zip(np.array_split(x, n_blocks), np.array_split(probs, n_blocks)):
        out[:] = _forward_cached(model, a)[0]
    return probs


def forward(model: MlpModel, x) -> ClassProbabilities:
    """Single input (3-vector in [0, 1]^3) -> class probabilities."""
    probs = forward_batch(model, np.asarray(x, dtype=np.float64).reshape(1, INPUT_DIM))[0]
    return ClassProbabilities(float(probs[0]), float(probs[1]))


def one_hot(label: Label) -> np.ndarray:
    return np.array([1.0, 0.0]) if label is Label.SKIN else np.array([0.0, 1.0])


def cross_entropy_loss(probs, target_one_hot) -> float:
    """-log of the probability assigned to the true class, argument clamped
    to [1e-12, 1]."""
    p_true = float(np.dot(np.asarray(probs, dtype=np.float64), target_one_hot))
    return -float(np.log(np.clip(p_true, _LOG_CLAMP, 1.0)))


def _batch_mean_loss(probs: np.ndarray, targets: np.ndarray) -> float:
    p_true = np.clip((probs * targets).sum(axis=1), _LOG_CLAMP, 1.0)
    return float(-np.log(p_true).mean())


def backward(model: MlpModel, cache, targets: np.ndarray) -> list[np.ndarray]:
    """Gradients of the batch-mean cross-entropy in parameters() order.

    The softmax + cross-entropy head collapses to (probs - one_hot) at the
    output; hidden layers propagate through the ReLU mask.
    """
    activations, pre_activations = cache
    n = targets.shape[0]
    grads: list[np.ndarray] = [None] * (2 * len(model.weights))
    dz = (activations[-1] - targets) / n
    for l in range(len(model.weights) - 1, -1, -1):
        grads[2 * l] = activations[l].T @ dz
        grads[2 * l + 1] = dz.sum(axis=0)
        if l > 0:
            da = dz @ model.weights[l].T
            dz = da * (pre_activations[l - 1] > 0.0)
    return grads


@dataclass
class AdamState:
    """First/second moment accumulators plus the shared hyperparameters."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-7

    @classmethod
    def fresh(cls, params: list[np.ndarray], **hyper) -> "AdamState":
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            **hyper,
        )


def adam_step(
    state: AdamState, params: list[np.ndarray], grads: list[np.ndarray]
) -> tuple[list[np.ndarray], AdamState]:
    """One Adam update; returns fresh parameter arrays and the new state.

    m <- b1 m + (1-b1) g;  v <- b2 v + (1-b2) g^2;  bias-corrected
    m_hat = m/(1-b1^t), v_hat = v/(1-b2^t);  p <- p - lr * m_hat/(sqrt(v_hat)+eps).
    """
    t = state.t + 1
    new_params, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m = state.beta1 * m + (1.0 - state.beta1) * g
        v = state.beta2 * v + (1.0 - state.beta2) * g * g
        m_hat = m / (1.0 - state.beta1**t)
        v_hat = v / (1.0 - state.beta2**t)
        new_params.append(p - state.lr * m_hat / (np.sqrt(v_hat) + state.eps))
        new_m.append(m)
        new_v.append(v)
    return new_params, AdamState(
        m=new_m, v=new_v, t=t, lr=state.lr, beta1=state.beta1, beta2=state.beta2, eps=state.eps
    )


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 12
    batch_size: int = 53
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def train(
    train_set: list[HsvSample],
    arch: MlpArchitecture = MlpArchitecture(),
    cfg: TrainConfig = TrainConfig(),
) -> tuple[MlpModel, list[float]]:
    """Mini-batch Adam training; returns the model and per-epoch mean loss.

    Inputs are the HSV channels scaled onto [0, 1]. Each epoch draws a
    fresh shuffle from the session generator, walks batches of
    cfg.batch_size (final short batch allowed), averages gradients over
    the batch and applies one Adam step per batch. The recorded epoch
    loss is the sample-weighted mean of the batch losses, i.e. the mean
    loss over all samples as each was visited during the epoch.
    """
    if not train_set:
        raise ValueError("training set is empty")
    hsv, skin = hsv_arrays(train_set)
    if skin.all() or not skin.any():
        raise ValueError("training set must contain both classes")
    x = normalize_hsv_array(hsv)
    targets = np.zeros((len(train_set), OUTPUT_DIM))
    targets[skin, 0] = 1.0
    targets[~skin, 1] = 1.0

    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    model = init_model(arch, rng)
    state = AdamState.fresh(parameters(model))
    n = len(train_set)

    history = []
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = perm[start : start + cfg.batch_size]
            probs, cache = _forward_cached(model, x[batch])
            loss_sum += _batch_mean_loss(probs, targets[batch]) * batch.size
            grads = backward(model, cache, targets[batch])
            new_params, state = adam_step(state, parameters(model), grads)
            set_parameters(model, new_params)
        history.append(loss_sum / n)
    return model, history


def mlp_predict_batch(model: MlpModel, hsv: np.ndarray) -> np.ndarray:
    """Vectorized prediction: (N, 3) uint8 HSV rows -> (N,) p_skin."""
    return forward_batch(model, normalize_hsv_array(hsv))[:, 0]
