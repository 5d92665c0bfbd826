"""Per-pixel scalar references for the library's array paths.

Each function here computes one pixel (or one label pair) at a time in
straight-line code, and the tests compare the batch paths in
``skinseg`` against it element by element, the way ``refine`` is
compared against ``refine_brute_oracle``. Five references work on whole
arrays: ``forward_unfolded`` scores MLP rows with the bias added as its
own pass, ``train_unfused`` trains an MLP with a gather, a softmax, a
loss reduction and a gradient concatenation per batch,
``backward_from_pre_activations`` takes an MLP's gradients with ReLU
masks read from the pre-activations, ``distinct_colours`` finds an
image's distinct colours with ``np.unique``, and ``preorder_right``
finds a tree table's right children with a stack walk. Nothing in
``skinseg`` imports this module.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from skinseg.classifiers import BayesModel, ClassProbabilities, ThresholdRange, TreeModel
from skinseg.colorspace import _YCBCR_DEN, YcbcrPixel, _check_channel, normalize_hsv_array
from skinseg.dataset import HsvSamples, Label, hsv_arrays
from skinseg.metrics import ConfusionMatrix
from skinseg.neighbourhood import ProbabilityMap
from skinseg.nn import (
    _LOG_CLAMP,
    _TAIL_ROWS,
    FORWARD_BLOCK_ROWS,
    INPUT_DIM,
    OUTPUT_DIM,
    AdamState,
    MlpArchitecture,
    MlpModel,
    TrainConfig,
    adam_step,
    backward,
    forward_batch,
    init_model,
    softmax,
)

SKIN = ClassProbabilities(1.0, 0.0)
NON_SKIN = ClassProbabilities(0.0, 1.0)


# ---------------------------------------------------------------------------
# Colour conversions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RgbPixel:
    r: int
    g: int
    b: int

    def __post_init__(self):
        for name in ("r", "g", "b"):
            _check_channel(name, getattr(self, name))


@dataclass(frozen=True)
class HsvPixel:
    """Quantized HSV: hue scaled from [0, 360) onto [0, 255], s and v from [0, 1]."""

    h: int
    s: int
    v: int

    def __post_init__(self):
        for name in ("h", "s", "v"):
            _check_channel(name, getattr(self, name))


def rgb_to_hsv(p: RgbPixel) -> HsvPixel:
    """Convert an RGB pixel to quantized HSV.

    Hue is computed in degrees [0, 360) with the h = 0 convention at zero
    chroma, saturation as chroma/max (0 when max = 0), value as max/255.
    Each channel is scaled onto 0-255 and rounded half-up.
    """
    max_c = max(p.r, p.g, p.b)
    min_c = min(p.r, p.g, p.b)
    chroma = max_c - min_c

    # Hue in degrees times chroma, kept integral: H*C = 60*delta (+ sector offset).
    if chroma == 0:
        h = 0
    else:
        if max_c == p.r:
            hue_c = 60 * (p.g - p.b)
            if hue_c < 0:
                hue_c += 360 * chroma
        elif max_c == p.g:
            hue_c = 60 * (p.b - p.r) + 120 * chroma
        else:
            hue_c = 60 * (p.r - p.g) + 240 * chroma
        # round half up of 255 * (H*C) / (360*C)
        h = (510 * hue_c + 360 * chroma) // (720 * chroma)

    if max_c == 0:
        s = 0
    else:
        # round half up of 255 * chroma / max
        s = (510 * chroma + max_c) // (2 * max_c)

    return HsvPixel(h=h, s=s, v=max_c)


def _quantize_ratio(num: int, den: int) -> int:
    """Round num/den half up via integer floor division, then clamp to 0-255."""
    q = (2 * num + den) // (2 * den)
    return min(255, max(0, q))


def rgb_to_ycbcr(p: RgbPixel) -> YcbcrPixel:
    """Convert an RGB pixel to full-range BT.601 YCbCr.

    Y = 0.299 R + 0.587 G + 0.114 B, Cr = (R - Y) * 0.713 + 128,
    Cb = (B - Y) * 0.564 + 128; each rounded half-up and clamped to 0-255.
    """
    y_num = 299 * p.r + 587 * p.g + 114 * p.b  # over 1000
    cr_num = 713 * (701 * p.r - 587 * p.g - 114 * p.b) + 128 * _YCBCR_DEN
    cb_num = 564 * (886 * p.b - 299 * p.r - 587 * p.g) + 128 * _YCBCR_DEN
    return YcbcrPixel(
        y=_quantize_ratio(y_num, 1000),
        cr=_quantize_ratio(cr_num, _YCBCR_DEN),
        cb=_quantize_ratio(cb_num, _YCBCR_DEN),
    )


# ---------------------------------------------------------------------------
# Stage-1 classifiers
# ---------------------------------------------------------------------------

def contains(box: ThresholdRange, p: YcbcrPixel) -> bool:
    return (
        box.lower.y <= p.y <= box.upper.y
        and box.lower.cr <= p.cr <= box.upper.cr
        and box.lower.cb <= p.cb <= box.upper.cb
    )


def threshold_classify(p: RgbPixel, box: ThresholdRange = ThresholdRange()) -> ClassProbabilities:
    """Classify skin iff the pixel's YCbCr triple lies inside the box."""
    return SKIN if contains(box, rgb_to_ycbcr(p)) else NON_SKIN


def _bayes_scores(model: BayesModel, h: int, s: int, v: int) -> tuple[float, float]:
    tables = model.likelihood_tables()
    priors = model.priors
    scores = []
    for cls in range(2):
        score = priors[cls]
        for attr, value in enumerate((h, s, v)):
            score = score * tables[attr, cls, value]
        scores.append(float(score))
    return scores[0], scores[1]


def bayes_predict(model: BayesModel, p: HsvPixel) -> tuple[ClassProbabilities, bool]:
    """Posterior from prior times per-attribute likelihoods, normalized,
    and whether it fell back to the priors.

    The shared evidence term cancels in the normalization. If both class
    scores vanish (possible only at alpha = 0) the priors are returned
    with the fallback flag set.
    """
    score_skin, score_non = _bayes_scores(model, p.h, p.s, p.v)
    total = score_skin + score_non
    if total == 0.0:
        priors = model.priors
        return ClassProbabilities(float(priors[0]), float(priors[1])), True
    return ClassProbabilities(score_skin / total, score_non / total), False


def tree_predict(model: TreeModel, p: HsvPixel) -> ClassProbabilities:
    """The class frequencies of the leaf the pixel reaches."""
    n_skin, n_non = model.counts[model.route([(p.h, p.s, p.v)])[0]].tolist()
    return ClassProbabilities(n_skin / (n_skin + n_non), n_non / (n_skin + n_non))


def preorder_right(attribute) -> np.ndarray:
    """Each node's right child in a preorder tree table (0 at leaves), by a
    stack walk: a node after a split is its left child, and a node after a
    leaf is the right child of the latest split still lacking one."""
    right = np.zeros(len(attribute), dtype=np.int64)
    open_splits = []
    for node, attr in enumerate(attribute):
        if node and attribute[node - 1] < 0:
            right[open_splits.pop()] = node
        if attr >= 0:
            open_splits.append(node)
    return right


def forward(model: MlpModel, x) -> ClassProbabilities:
    """Single input (3-vector in [0, 1]^3) -> class probabilities."""
    probs = forward_batch(model, np.asarray(x, dtype=np.float64).reshape(1, INPUT_DIM))[0]
    return ClassProbabilities(float(probs[0]), float(probs[1]))


def forward_unfolded(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """(N, 3) inputs -> (N, 2) softmax probabilities, the bias a pass of its own.

    The same blocks, _TAIL_ROWS zero padding and softmax as forward_batch,
    but each layer computes W.T @ a, then a += b, then the ReLU: the
    arithmetic that folding the bias into the matmul must reproduce.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    probs = np.empty((OUTPUT_DIM, x.shape[0]))
    layers = [(w.T, b[:, None]) for w, b in zip(model.weights, model.biases)]
    for start in range(0, x.shape[0], FORWARD_BLOCK_ROWS):
        block = x[start : start + FORWARD_BLOCK_ROWS]
        rows = block.shape[0]
        if rows % _TAIL_ROWS:
            block = np.concatenate([block, np.zeros((-rows % _TAIL_ROWS, INPUT_DIM))])
        a = block.T
        for w_t, b in layers[:-1]:
            a = w_t @ a
            a += b
            np.maximum(a, 0.0, out=a)
        w_t, b = layers[-1]
        z = w_t @ a
        z += b
        z0, z1 = z[0, :rows], z[1, :rows]
        mx = np.maximum(z0, z1)
        e0 = np.exp(z0 - mx)
        e1 = np.exp(z1 - mx)
        total = e0 + e1
        np.divide(e0, total, out=probs[0, start : start + rows])
        np.divide(e1, total, out=probs[1, start : start + rows])
    return probs.T


def train_unfused(
    train_set: HsvSamples,
    arch: MlpArchitecture = MlpArchitecture(),
    cfg: TrainConfig = TrainConfig(),
) -> tuple[MlpModel, list[float]]:
    """nn.train written with one numpy call per step of the arithmetic.

    Each batch fancy-indexes x and the one-hot targets with its slice of
    the epoch's permutation, runs the forward pass with a + b and
    softmax over the last axis, takes the loss from (probs * targets)
    summed over the classes, clipped and averaged with .mean(), and
    hands Adam the concatenation of backward's gradient list. nn.train
    must give the same bits.
    """
    hsv, skin = hsv_arrays(train_set)
    x = normalize_hsv_array(hsv)
    targets = np.zeros((len(train_set), OUTPUT_DIM))
    targets[skin, 0] = 1.0
    targets[~skin, 1] = 1.0

    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    model = init_model(arch, rng)
    state = AdamState.fresh(model.params)
    n = len(train_set)
    last = len(model.weights) - 1

    history = []
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = perm[start : start + cfg.batch_size]
            batch_targets = targets[batch]
            activations = [x[batch]]
            for l, (w, b) in enumerate(zip(model.weights, model.biases)):
                z = activations[-1] @ w + b
                activations.append(softmax(z) if l == last else np.maximum(z, 0.0))
            probs = activations[-1]
            p_true = np.clip((probs * batch_targets).sum(axis=1), _LOG_CLAMP, 1.0)
            loss_sum += float(-np.log(p_true).mean()) * batch.size
            grads = backward(model, activations, batch_targets)
            adam_step(state, model.params, np.concatenate(grads, axis=None))
        history.append(loss_sum / n)
    return model, history


def pre_activations(model: MlpModel, x: np.ndarray) -> list[np.ndarray]:
    """Every layer's z = a @ w + b over the (N, 3) batch x, logits last."""
    zs, a = [], x
    for w, b in zip(model.weights, model.biases):
        zs.append(a @ w + b)
        a = np.maximum(zs[-1], 0.0)
    return zs


def backward_from_pre_activations(model: MlpModel, x: np.ndarray,
                                  targets: np.ndarray) -> list[np.ndarray]:
    """nn.backward's [dW0, db0, dW1, db1, ...] at the batch x, masked by z > 0.

    Recomputes the pre-activations and takes each hidden layer's ReLU
    mask from them, where nn.backward reads it from the layer outputs
    as max(z, 0) > 0. The rest is nn.backward's arithmetic, so the two
    give the same bits exactly where their masks agree, the ReLU kink
    z = +-0.0 included.
    """
    zs = pre_activations(model, x)
    inputs = [x] + [np.maximum(z, 0.0) for z in zs[:-1]]
    dz = (softmax(zs[-1]) - targets) / targets.shape[0]
    grads = []
    for l in range(len(zs) - 1, -1, -1):
        grads[:0] = [inputs[l].T @ dz, dz.sum(axis=0)]
        if l > 0:
            dz = (dz @ model.weights[l].T) * (zs[l - 1] > 0.0)
    return grads


# ---------------------------------------------------------------------------
# Distinct colours
# ---------------------------------------------------------------------------

def distinct_colours(pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(colours, inverse) of (..., 3) uint8 pixels by np.unique.

    colours are the distinct 24-bit RGB codes (R in the high byte) as
    uint32, ascending; inverse is each pixel's index into them, in pixel
    order.
    """
    px = pixels.reshape(-1, 3).astype(np.uint32)
    codes = (px[:, 0] << 16) | (px[:, 1] << 8) | px[:, 2]
    return np.unique(codes, return_inverse=True)


# ---------------------------------------------------------------------------
# Neighbourhood sums
# ---------------------------------------------------------------------------

def pixel(pmap: ProbabilityMap, x: int, y: int) -> ClassProbabilities:
    p = float(pmap.p_skin[y, x])
    return ClassProbabilities(p, 1.0 - p)


def neighbour_sums(pmap: ProbabilityMap, x: int, y: int, radius: int = 1):
    """Sums of p_skin and p_non_skin over the window around (x, y).

    The window is the (2*radius+1)^2 square minus the centre, clipped to
    the map; returns (skin_sum, non_skin_sum, count) where count is the
    number of in-bounds neighbours actually summed.
    """
    if not (0 <= x < pmap.width and 0 <= y < pmap.height):
        raise ValueError(f"centre ({x}, {y}) outside {pmap.width}x{pmap.height} map")
    skin_sum = 0.0
    non_sum = 0.0
    count = 0
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            if dx == 0 and dy == 0:
                continue
            nx, ny = x + dx, y + dy
            if 0 <= nx < pmap.width and 0 <= ny < pmap.height:
                skin_sum += pmap.p_skin[ny, nx]
                non_sum += 1.0 - pmap.p_skin[ny, nx]
                count += 1
    return skin_sum, non_sum, count


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def confusion(predicted: Sequence[Label], actual: Sequence[Label]) -> ConfusionMatrix:
    """Exact label counts; raises on length mismatch."""
    if len(predicted) != len(actual):
        raise ValueError(
            f"label sequences differ in length: {len(predicted)} vs {len(actual)}"
        )
    tp = fp = fn = tn = 0
    for pred, true in zip(predicted, actual):
        if true is Label.SKIN:
            if pred is Label.SKIN:
                tp += 1
            else:
                fn += 1
        else:
            if pred is Label.SKIN:
                fp += 1
            else:
                tn += 1
    return ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)
