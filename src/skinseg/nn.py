"""Feed-forward network over normalized HSV with softmax output.

A small fully-connected classifier: affine + ReLU hidden layers, a
2-way softmax head trained with categorical cross-entropy and Adam.
Everything runs in double precision on plain numpy arrays; training is
single-threaded and bit-deterministic for a fixed seed (weights are
drawn layer by layer from Generator(PCG64(seed)), biases start at zero,
and each epoch reshuffles with the same generator).

An MlpModel's weights and biases are views of one contiguous float64
vector, params, in W0, b0, W1, b1, ... order (the order backward
returns its gradients in). Training updates that vector, and the Adam
moment vectors of the same length, in place once per batch. Adam's
hyperparameters are the module constants ADAM_LR = 0.001,
ADAM_BETA1 = 0.9, ADAM_BETA2 = 0.999 and ADAM_EPS = 1e-7.

Inference keeps no backprop cache: forward_batch and mlp_predict_batch
walk the rows in blocks of at most FORWARD_BLOCK_ROWS and hold only one
buffer per layer input, feature-major ((fan_in + 1, rows), one row of
the array per unit plus a row of ones), so working memory does not grow
with the batch and a row's score does not depend on the batch it came
in. Each layer is one matmul of [W.T | b] with the bias as the last
column, which adds the bias last and so keeps the bits of W.T @ a + b
(_softmax_blocks says why, and where one-unit layers differ), and one
in-place ReLU. Training keeps every row's activations, row-major, for
backward, and adds its biases as a separate term.
"""

from dataclasses import dataclass, field

import numpy as np

from .colorspace import normalize_hsv_array
from .dataset import HsvSamples, hsv_arrays

INPUT_DIM = 3
OUTPUT_DIM = 2

_LOG_CLAMP = 1e-12

# rows per inference block: the widest layer input, 32 units plus the
# ones row by 2048 float64 rows, is 528 KB, so a layer's input and output
# stay in a 2 MB L2; 2048 scored the noise frames fastest of 1024-8192
FORWARD_BLOCK_ROWS = 2048

# inference zero-pads a ragged last block to a multiple of this many
# rows (FORWARD_BLOCK_ROWS is one), so BLAS never sees a ragged edge tile
_TAIL_ROWS = 16

ADAM_LR = 0.001
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-7


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
    """An MLP's parameters; weights and biases become views of params.

    The constructor copies the given arrays into params, in W0, b0, W1,
    b1, ... order, and replaces both lists by views of it, so an update
    of params is an update of every layer.
    """

    arch: MlpArchitecture
    weights: list[np.ndarray]  # weights[l] has shape (fan_in, fan_out)
    biases: list[np.ndarray]
    params: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dims = self.arch.layer_dims
        if len(self.weights) != len(dims) - 1 or len(self.biases) != len(dims) - 1:
            raise ValueError("parameter count does not match architecture")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (dims[l], dims[l + 1]) or b.shape != (dims[l + 1],):
                raise ValueError(f"layer {l} shapes {w.shape}/{b.shape} do not match {dims}")
        arrays = [a for pair in zip(self.weights, self.biases) for a in pair]
        self.params = np.concatenate(arrays, axis=None, dtype=np.float64)
        ends = np.cumsum([a.size for a in arrays])[:-1]
        views = [v.reshape(a.shape) for v, a in zip(np.split(self.params, ends), arrays)]
        self.weights, self.biases = views[0::2], views[1::2]


def init_model(arch: MlpArchitecture, rng: "np.random.Generator") -> MlpModel:
    """Glorot-style uniform init: W ~ U(+/- sqrt(6/(fan_in+fan_out))), b = 0."""
    dims = arch.layer_dims
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(arch=arch, weights=weights, biases=biases)


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


def _softmax_blocks(model: MlpModel, inputs: np.ndarray, scale: float):
    """Yield (start, e0, e1, total) for each block of inputs / scale.

    A block is at most FORWARD_BLOCK_ROWS rows of the (N, 3) inputs.
    e0 and e1 are the exponentials of its two logits, shifted by their
    maximum, and total = e0 + e1, so e0 / total is each row's p_skin.

    Each layer multiplies [W.T | b], (fan_out, fan_in + 1), by its input
    block (fan_in + 1, rows) whose last row is all ones, and the ReLU
    runs in place on the next layer's input. So the bias is the last
    term of every dot product: the BLAS gemm kernel sums over k in order
    and adds that 1.0 * b term last, which gives the bits of W.T @ a
    followed by += b. (With the bias first, the sum rounds differently.)
    numpy hands a one-unit layer's product to gemv instead, whose
    kernels sum a dot product in groups of columns, so such a layer adds
    its bias as a pass of its own; and as gemv rounds by layout, a
    one-unit first layer reads its input row-major, the layout of the
    rows as they arrive.

    The buffers are allocated once per call and their ones rows filled
    once. A ragged last block is zero-padded to a multiple of _TAIL_ROWS
    columns: BLAS computes the columns of a ragged edge tile differently
    from those of a full one, so without the padding the last bits of a
    row's score would depend on where the batch ends.
    """
    n = inputs.shape[0]
    layers = [np.hstack([w.T, b[:, None]]) for w, b in zip(model.weights, model.biases)]
    width = min(FORWARD_BLOCK_ROWS, n + -n % _TAIL_ROWS)
    acts = [np.empty((aug.shape[1], width)) for aug in layers]
    if layers[0].shape[0] == 1:
        acts[0] = np.empty((width, INPUT_DIM + 1)).T
    for a in acts:
        a[-1] = 1.0
    logits = np.empty((OUTPUT_DIM, width))
    for start in range(0, n, FORWARD_BLOCK_ROWS):
        rows = min(FORWARD_BLOCK_ROWS, n - start)
        cols = rows + -rows % _TAIL_ROWS
        np.divide(inputs[start : start + rows].T, scale, out=acts[0][:-1, :rows])
        acts[0][:-1, rows:cols] = 0.0
        for aug, a, nxt in zip(layers[:-1], acts, acts[1:]):
            z = nxt[:-1, :cols]
            if aug.shape[0] > 1:
                np.matmul(aug, a[:, :cols], out=z)
            else:
                np.matmul(aug[:, :-1], a[:-1, :cols], out=z)
                z += aug[:, -1:]
            np.maximum(z, 0.0, out=z)
        z0, z1 = np.matmul(layers[-1], acts[-1][:, :cols], out=logits[:, :cols])[:, :rows]
        mx = np.maximum(z0, z1)
        e0 = np.exp(z0 - mx)
        e1 = np.exp(z1 - mx)
        yield start, e0, e1, e0 + e1


def forward_batch(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """(N, 3) inputs in [0, 1] -> (N, 2) softmax probabilities.

    Scores the rows in blocks of at most FORWARD_BLOCK_ROWS, one matmul
    with the bias folded in and one in-place ReLU per layer (see
    _softmax_blocks). A row scores the same alone or in any batch, and
    as _forward_cached scores it up to the gemm kernel's rounding. The
    result is the transpose of a (2, N) array.
    """
    x = np.asarray(x)
    probs = np.empty((OUTPUT_DIM, x.shape[0]))
    for start, e0, e1, total in _softmax_blocks(model, x, 1.0):
        np.divide(e0, total, out=probs[0, start : start + total.size])
        np.divide(e1, total, out=probs[1, start : start + total.size])
    return probs.T


def cross_entropy_loss(probs, target_one_hot) -> float:
    """-log of the probability assigned to the true class, argument clamped
    to [1e-12, 1]."""
    p_true = float(np.dot(np.asarray(probs, dtype=np.float64), target_one_hot))
    return -float(np.log(np.clip(p_true, _LOG_CLAMP, 1.0)))


def _batch_mean_loss(probs: np.ndarray, targets: np.ndarray) -> float:
    p_true = np.clip((probs * targets).sum(axis=1), _LOG_CLAMP, 1.0)
    return float(-np.log(p_true).mean())


def backward(model: MlpModel, cache, targets: np.ndarray) -> list[np.ndarray]:
    """Gradients of the batch-mean cross-entropy as [dW0, db0, dW1, db1, ...].

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
    """First/second moment vectors, shaped like the parameter vector, and the step count."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def fresh(cls, params: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params))


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray) -> None:
    """One Adam update of params and of state, in place.

    m <- b1 m + (1-b1) g;  v <- b2 v + (1-b2) g^2;  bias-corrected
    m_hat = m/(1-b1^t), v_hat = v/(1-b2^t);  p <- p - lr * m_hat/(sqrt(v_hat)+eps).
    """
    state.t += 1
    state.m *= ADAM_BETA1
    state.m += (1.0 - ADAM_BETA1) * grads
    state.v *= ADAM_BETA2
    state.v += (1.0 - ADAM_BETA2) * grads * grads
    m_hat = state.m / (1.0 - ADAM_BETA1**state.t)
    v_hat = state.v / (1.0 - ADAM_BETA2**state.t)
    params -= ADAM_LR * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 12
    batch_size: int = 53
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def train(
    train_set: HsvSamples,
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
    state = AdamState.fresh(model.params)
    n = len(train_set)

    history = []
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = perm[start : start + cfg.batch_size]
            batch_targets = targets[batch]
            probs, cache = _forward_cached(model, x[batch])
            loss_sum += _batch_mean_loss(probs, batch_targets) * batch.size
            grads = backward(model, cache, batch_targets)
            adam_step(state, model.params, np.concatenate(grads, axis=None))
        history.append(loss_sum / n)
    return model, history


def mlp_predict_batch(model: MlpModel, hsv: np.ndarray) -> np.ndarray:
    """Vectorized prediction: (N, 3) uint8 HSV rows -> (N,) p_skin.

    Walks the blocks forward_batch walks, dividing each uint8 block by
    255.0 straight into the first layer's input (the bits of
    normalize_hsv_array), so no float copy of the whole batch and no
    non-skin column are held; a row scores the same in any batch.
    """
    p_skin = np.empty(hsv.shape[0])
    for start, e0, _, total in _softmax_blocks(model, hsv, 255.0):
        np.divide(e0, total, out=p_skin[start : start + total.size])
    return p_skin
