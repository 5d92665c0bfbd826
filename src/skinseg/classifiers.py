"""Stage-1 pixel colour classifiers sharing one probability-output contract.

Three models are provided: a fixed YCbCr box threshold baseline, a naive
Bayes model counting per-attribute values over the 256-value HSV domain,
and a CART decision tree with Gini splits, stored as a preorder table of
node arrays. Every classifier emits a ClassProbabilities pair summing to
1; fitted models are immutable and safe for concurrent prediction.
"""

from dataclasses import dataclass

import numpy as np

from .colorspace import HsvPixel, RgbPixel, YcbcrPixel, rgb_to_ycbcr, rgb_to_ycbcr_array
from .dataset import HsvSample, HsvSamples, Label, hsv_arrays

DOMAIN_SIZE = 256  # each HSV attribute is quantized onto 0-255

_PROB_SUM_TOL = 1e-9


@dataclass(frozen=True)
class ClassProbabilities:
    """Per-pixel (p_skin, p_non_skin) pair; the two must sum to 1.

    fallback marks results where a degenerate zero-score situation was
    resolved by falling back to the class priors (only possible for the
    Bayes model at smoothing alpha = 0).
    """

    p_skin: float
    p_non_skin: float
    fallback: bool = False

    def __post_init__(self):
        if not (0.0 <= self.p_skin <= 1.0 and 0.0 <= self.p_non_skin <= 1.0):
            raise ValueError(f"probabilities out of [0,1]: {self.p_skin}, {self.p_non_skin}")
        if abs(self.p_skin + self.p_non_skin - 1.0) > _PROB_SUM_TOL:
            raise ValueError(
                f"probabilities must sum to 1: {self.p_skin} + {self.p_non_skin}"
            )

    @property
    def label(self) -> Label:
        """Argmax class; exact ties go to skin."""
        return Label.SKIN if self.p_skin >= self.p_non_skin else Label.NON_SKIN


SKIN = ClassProbabilities(1.0, 0.0)
NON_SKIN = ClassProbabilities(0.0, 1.0)


# ---------------------------------------------------------------------------
# Colour range threshold baseline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdRange:
    """Inclusive YCbCr box, channel order (Y, Cr, Cb)."""

    lower: YcbcrPixel = YcbcrPixel(0, 147, 60)
    upper: YcbcrPixel = YcbcrPixel(255, 180, 127)

    def __post_init__(self):
        for chan in ("y", "cr", "cb"):
            lo, hi = getattr(self.lower, chan), getattr(self.upper, chan)
            if lo > hi:
                raise ValueError(f"lower {chan}={lo} exceeds upper {chan}={hi}")

    def contains(self, p: YcbcrPixel) -> bool:
        return (
            self.lower.y <= p.y <= self.upper.y
            and self.lower.cr <= p.cr <= self.upper.cr
            and self.lower.cb <= p.cb <= self.upper.cb
        )


def threshold_classify(p: RgbPixel, box: ThresholdRange = ThresholdRange()) -> ClassProbabilities:
    """Classify skin iff the pixel's YCbCr triple lies inside the box."""
    return SKIN if box.contains(rgb_to_ycbcr(p)) else NON_SKIN


def threshold_scores(rgb: np.ndarray, box: ThresholdRange = ThresholdRange()) -> np.ndarray:
    """Vectorized threshold_classify: (N, 3) RGB rows -> (N,) skin scores in {0, 1}."""
    ycbcr = rgb_to_ycbcr_array(rgb)
    lo = np.array([box.lower.y, box.lower.cr, box.lower.cb])
    hi = np.array([box.upper.y, box.upper.cr, box.upper.cb])
    inside = np.all((ycbcr >= lo) & (ycbcr <= hi), axis=-1)
    return inside.astype(np.float64)


# ---------------------------------------------------------------------------
# Naive Bayes over unique attribute values (no binning)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BayesModel:
    """Per-attribute, per-class value counts plus class totals.

    counts has shape (3, 2, 256): attribute (h, s, v) x class (skin,
    non-skin) x attribute value. alpha is the Laplace pseudo-count;
    alpha = 0 reproduces the raw relative-frequency model. Both classes
    must have been seen, so the priors are defined.
    """

    counts: np.ndarray
    class_counts: np.ndarray  # (2,) totals: [skin, non-skin]
    alpha: float

    def __post_init__(self):
        if self.counts.shape != (3, 2, DOMAIN_SIZE):
            raise ValueError(f"counts must have shape (3, 2, 256), got {self.counts.shape}")
        if not 0 <= self.alpha < np.inf:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not (self.class_counts > 0).all() or (self.counts < 0).any():
            raise ValueError(f"class counts must be > 0 and value counts >= 0, "
                             f"got class counts {self.class_counts.tolist()}")

    @property
    def priors(self) -> np.ndarray:
        return self.class_counts / self.class_counts.sum()

    def likelihood_tables(self) -> np.ndarray:
        """(3, 2, 256) array of smoothed P(attribute=value | class)."""
        denom = (self.class_counts + DOMAIN_SIZE * self.alpha)[np.newaxis, :, np.newaxis]
        return (self.counts + self.alpha) / denom


def bayes_fit(train: HsvSamples | list[HsvSample], alpha: float = 1.0) -> BayesModel:
    """Count per-attribute values for each class and store priors.

    Raises ValueError when the training set is empty, a class is absent
    or alpha is negative.
    """
    if not train:
        raise ValueError("training set is empty")
    counts = np.zeros((3, 2, DOMAIN_SIZE), dtype=np.int64)
    class_counts = np.zeros(2, dtype=np.int64)
    hsv, skin = hsv_arrays(train)
    for cls, mask in enumerate((skin, ~skin)):
        class_counts[cls] = int(mask.sum())
        for attr in range(3):
            counts[attr, cls] = np.bincount(hsv[mask, attr], minlength=DOMAIN_SIZE)
    if class_counts[0] == 0 or class_counts[1] == 0:
        missing = "skin" if class_counts[0] == 0 else "non-skin"
        raise ValueError(f"training set has no {missing} samples")
    return BayesModel(counts=counts, class_counts=class_counts, alpha=float(alpha))


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


def bayes_predict(model: BayesModel, p: HsvPixel) -> ClassProbabilities:
    """Posterior from prior times per-attribute likelihoods, normalized.

    The shared evidence term cancels in the normalization. If both class
    scores vanish (possible only at alpha = 0) the priors are returned
    with the fallback flag set.
    """
    score_skin, score_non = _bayes_scores(model, p.h, p.s, p.v)
    total = score_skin + score_non
    if total == 0.0:
        priors = model.priors
        return ClassProbabilities(float(priors[0]), float(priors[1]), fallback=True)
    return ClassProbabilities(score_skin / total, score_non / total)


def bayes_predict_batch(model: BayesModel, hsv: np.ndarray) -> np.ndarray:
    """Vectorized bayes_predict: (N, 3) uint8 HSV rows -> (N,) p_skin."""
    hsv = np.asarray(hsv, dtype=np.int64)
    tables = model.likelihood_tables()
    priors = model.priors
    scores = np.empty((2, hsv.shape[0]))
    for cls in range(2):
        score = np.full(hsv.shape[0], priors[cls])
        for attr in range(3):
            score = score * tables[attr, cls, hsv[:, attr]]
        scores[cls] = score
    total = scores.sum(axis=0)
    degenerate = total == 0.0
    total[degenerate] = 1.0
    p_skin = scores[0] / total
    p_skin[degenerate] = priors[0]
    return p_skin


# ---------------------------------------------------------------------------
# CART decision tree with Gini impurity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TreeConfig:
    min_samples_split: int = 2
    max_depth: int | None = None

    def __post_init__(self):
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")


@dataclass(frozen=True)
class TreeModel:
    """A fitted CART tree as a preorder node table; node 0 is the root.

    Node i is a leaf when attribute[i] is -1 (its threshold and right
    are 0). Otherwise a pixel whose attribute (0 = h, 1 = s, 2 = v) is
    <= threshold[i] goes to the left child, node i + 1, and any other
    pixel to the right child, node right[i]. counts[i] holds the skin
    and non-skin training samples that reached node i; the arrays are
    coerced to int64, float64, int64 and (n, 2) int64.
    """

    attribute: np.ndarray
    threshold: np.ndarray
    right: np.ndarray
    counts: np.ndarray
    config: TreeConfig
    n_samples: int

    def __post_init__(self):
        for name, dtype in (("attribute", np.int64), ("threshold", np.float64),
                            ("right", np.int64), ("counts", np.int64)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))

    def depth(self) -> int:
        level, nodes = 0, np.zeros(1, dtype=np.int64)
        while True:
            nodes = nodes[self.attribute[nodes] >= 0]
            if nodes.size == 0:
                return level
            nodes = np.concatenate((nodes + 1, self.right[nodes]))
            level += 1

    def node_count(self) -> tuple[int, int]:
        """(internal nodes, leaves)."""
        internal = int((self.attribute >= 0).sum())
        return internal, self.attribute.size - internal

    def route(self, hsv: np.ndarray) -> np.ndarray:
        """The leaf each (N, 3) HSV row reaches (value <= threshold goes left).

        All rows descend together, one depth per round; a row leaves the
        rounds once it reaches a leaf.
        """
        hsv = np.asarray(hsv)
        node = np.zeros(hsv.shape[0], dtype=np.int64)
        rows = np.arange(hsv.shape[0])
        while rows.size:
            at = node[rows]
            attr = self.attribute[at]
            inner = attr >= 0
            rows, at, attr = rows[inner], at[inner], attr[inner]
            go_left = hsv[rows, attr] <= self.threshold[at]
            node[rows] = np.where(go_left, at + 1, self.right[at])
        return node


def _best_split(values: np.ndarray, skin: np.ndarray):
    """Best (attribute, threshold, gain) for one node, or None.

    Candidate thresholds are midpoints between consecutive distinct values
    of each attribute; the score is the Gini impurity decrease. Ties break
    toward the lowest attribute index, then the lowest threshold (strict
    greater-than comparisons scanning in that order).
    """
    n = values.shape[0]
    n_skin = int(skin.sum())
    n_non = n - n_skin
    parent_q = (n_skin * n_skin + n_non * n_non) / n

    best = None  # (gain, attribute, threshold)
    for attr in range(3):
        col = values[:, attr]
        skin_counts = np.bincount(col[skin], minlength=DOMAIN_SIZE)
        total_counts = np.bincount(col, minlength=DOMAIN_SIZE)
        present = np.nonzero(total_counts)[0]
        if present.size < 2:
            continue
        cum_total = np.cumsum(total_counts[present])[:-1]
        cum_skin = np.cumsum(skin_counts[present])[:-1]
        n_left = cum_total.astype(np.float64)
        n_right = n - n_left
        skin_left = cum_skin.astype(np.float64)
        skin_right = n_skin - skin_left
        non_left = n_left - skin_left
        non_right = n_right - skin_right
        q = (skin_left**2 + non_left**2) / n_left + (skin_right**2 + non_right**2) / n_right
        gains = (q - parent_q) / n
        i = int(np.argmax(gains))  # first max -> lowest threshold wins ties
        gain = float(gains[i])
        if best is None or gain > best[0]:
            threshold = (float(present[i]) + float(present[i + 1])) / 2.0
            best = (gain, attr, threshold)
    if best is None or best[0] <= 0.0:
        return None
    return best


def tree_fit(train: HsvSamples | list[HsvSample], cfg: TreeConfig = TreeConfig()) -> TreeModel:
    """Grow a CART tree on quantized HSV samples.

    A node becomes a leaf when it is pure, holds fewer than
    min_samples_split samples, sits at max_depth, or no candidate split
    reduces the Gini impurity. Nodes are appended in preorder: a left
    child right after its parent, a right child once the left subtree
    is complete.
    """
    if not train:
        raise ValueError("training set is empty")
    values, skin = hsv_arrays(train)
    attribute, threshold, right, counts = [], [], [], []
    stack = [(np.arange(len(train)), 0, None)]  # rows, depth, parent if a right child
    while stack:
        idx, depth, parent = stack.pop()
        node = len(attribute)
        if parent is not None:
            right[parent] = node
        n_skin = int(skin[idx].sum())
        n_non = int(idx.size) - n_skin
        attribute.append(-1)
        threshold.append(0.0)
        right.append(0)
        counts.append((n_skin, n_non))
        if (
            n_skin == 0
            or n_non == 0
            or idx.size < cfg.min_samples_split
            or (cfg.max_depth is not None and depth >= cfg.max_depth)
        ):
            continue
        found = _best_split(values[idx], skin[idx])
        if found is None:
            continue
        _, attr, thr = found
        attribute[node], threshold[node] = attr, thr
        left_mask = values[idx, attr] <= thr
        stack.append((idx[~left_mask], depth + 1, node))
        stack.append((idx[left_mask], depth + 1, None))
    return TreeModel(attribute, threshold, right, counts, cfg, len(train))


def tree_predict(model: TreeModel, p: HsvPixel) -> ClassProbabilities:
    """The class frequencies of the leaf the pixel reaches."""
    n_skin, n_non = model.counts[model.route([(p.h, p.s, p.v)])[0]].tolist()
    return ClassProbabilities(n_skin / (n_skin + n_non), n_non / (n_skin + n_non))


def tree_predict_batch(model: TreeModel, hsv: np.ndarray) -> np.ndarray:
    """Vectorized tree_predict: (N, 3) uint8 HSV rows -> (N,) p_skin."""
    p_skin = model.counts[:, 0] / model.counts.sum(axis=1)
    return p_skin[model.route(hsv)]
