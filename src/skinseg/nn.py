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

A training step works on arrays of at most batch_size x 32, so the
number of numpy calls sets its cost. Once per epoch, train gathers the
uint8 HSV rows and skin flags in the shuffled order and builds the
scaled inputs and one-hot targets from them, into buffers allocated
once, so a batch is a contiguous slice; the softmax and the loss read
the two output columns instead of reducing over a length-2 axis; and
backward writes the gradients into views of the flat vector adam_step
reads. For backward a step keeps one array per layer: the batch, then
each layer's output, row-major. A ReLU output is above 0 exactly where
its pre-activation is, so backward reads its masks from the outputs and
no pre-activation is kept. The bits are those of a loop that indexes
each batch, applies softmax and concatenates the gradient list.

Inference keeps no backprop cache: forward_batch and mlp_predict_batch
walk the rows in blocks of at most FORWARD_BLOCK_ROWS and hold only one
buffer per layer input, feature-major ((fan_in + 1, rows), one row of
the array per unit plus a row of ones), so working memory does not grow
with the batch and a row's score does not depend on the batch it came
in. Each layer is one matmul of [W.T | b] with the bias as the last
column, which adds the bias last and so keeps the bits of W.T @ a + b
(_softmax_blocks says why, and where one-unit layers differ), and one
in-place ReLU. Training adds its biases as a separate term.
"""

from dataclasses import dataclass, field

import numpy as np

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
    """Forward pass over a (N, 3) batch; returns (probs, activations).

    activations holds one array per layer, which is all backward needs:
    the input, then each layer's output, probs last. No pre-activation
    is kept: each layer adds its bias to its matmul's output in place and
    runs its ReLU, or the softmax head, there too. The softmax takes the
    maximum and the sum of the two logit columns with one np.maximum and
    one add, the bits of softmax.
    """
    activations = [x]
    last = len(model.weights) - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        a = activations[-1] @ w
        a += b
        if l < last:
            np.maximum(a, 0.0, out=a)
        activations.append(a)
    a -= np.maximum(a[:, 0], a[:, 1])[:, None]
    np.exp(a, out=a)
    a /= (a[:, 0] + a[:, 1])[:, None]
    return a, activations


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


def backward(model: MlpModel, activations, targets: np.ndarray, out=None) -> list[np.ndarray]:
    """Gradients of the batch-mean cross-entropy as [dW0, db0, dW1, db1, ...].

    activations is _forward_cached's list: the input, then each layer's
    output. The softmax + cross-entropy head collapses to (probs -
    one_hot) at the output; hidden layers propagate through the ReLU
    mask, read from each output as output > 0, which holds exactly where
    the pre-activation is > 0 (NaN is neither). Each gradient is written
    into out, a list of arrays of those shapes (train passes views of
    one flat vector), or into a fresh list when out is None; the list is
    returned either way.
    """
    n = targets.shape[0]
    if out is None:
        out = [np.empty_like(p) for pair in zip(model.weights, model.biases) for p in pair]
    dz = (activations[-1] - targets) / n
    for l in range(len(model.weights) - 1, -1, -1):
        np.matmul(activations[l].T, dz, out=out[2 * l])
        np.add.reduce(dz, 0, out=out[2 * l + 1])
        if l > 0:
            dz = dz @ model.weights[l].T
            dz *= activations[l] > 0.0
    return out


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
    fresh shuffle from the session generator, gathers the HSV rows and
    skin flags in that order once and scales them into the inputs and
    one-hot targets, then walks batches of cfg.batch_size (final short
    batch allowed) as slices of them, averages gradients over the batch
    and applies one Adam step per batch. Backward writes the gradients
    into one flat vector, which Adam reads as it is. A batch's loss is
    the mean of -log of each row's true-class probability, clamped to
    [1e-12, 1]. The recorded epoch loss is the sample-weighted mean of
    the batch losses, i.e. the mean loss over all samples as each was
    visited during the epoch.
    """
    if not train_set:
        raise ValueError("training set is empty")
    hsv, skin = hsv_arrays(train_set)
    if skin.all() or not skin.any():
        raise ValueError("training set must contain both classes")

    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    model = init_model(arch, rng)
    state = AdamState.fresh(model.params)
    n = len(train_set)

    # backward writes into views of grad.params, the vector adam_step reads
    grad = MlpModel(arch, model.weights, model.biases)
    grads = [g for pair in zip(grad.weights, grad.biases) for g in pair]
    hs, skins = np.empty_like(hsv), np.empty_like(skin)
    xs, ts = np.empty(hsv.shape), np.empty((n, OUTPUT_DIM))
    history = []
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        # every index of a permutation is in range; mode="raise" would
        # gather through a temporary before writing out
        np.take(hsv, perm, axis=0, out=hs, mode="clip")
        np.take(skin, perm, axis=0, out=skins, mode="clip")
        np.divide(hs, 255.0, out=xs)  # the bits of normalize_hsv_array
        ts[:, 0] = skins
        ts[:, 1] = ~skins
        loss_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            stop = start + cfg.batch_size
            probs, activations = _forward_cached(model, xs[start:stop])
            p_true = np.where(skins[start:stop], probs[:, 0], probs[:, 1])
            np.maximum(p_true, _LOG_CLAMP, out=p_true)
            np.minimum(p_true, 1.0, out=p_true)
            # the batch's mean loss (what .mean() computes), weighted by its size
            m = p_true.shape[0]
            loss_sum -= float(np.add.reduce(np.log(p_true)) / m) * m
            backward(model, activations, ts[start:stop], out=grads)
            adam_step(state, model.params, grad.params)
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
