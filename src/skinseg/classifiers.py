"""Stage-1 pixel colour classifiers sharing one probability-output contract.

Three models are provided: a fixed YCbCr box threshold baseline, a naive
Bayes model counting per-attribute values over the 256-value HSV domain,
and a CART decision tree with Gini splits, grown one depth at a time
(all open nodes of a depth searched by one count per attribute) and
stored as a preorder table of node arrays. Every classifier scores
(N, 3) pixel rows as (N,) skin probabilities, the non-skin probability
being the complement; fitted models are immutable and safe for
concurrent prediction.
"""

from dataclasses import dataclass

import numpy as np

from .colorspace import HsvPixel, YcbcrPixel, rgb_to_ycbcr_array
from .dataset import HsvSample, HsvSamples, Label, hsv_arrays

DOMAIN_SIZE = 256  # each HSV attribute is quantized onto 0-255

PROB_SUM_TOL = 1e-9  # how far a (p_skin, p_non_skin) pair may stray from summing to 1


def _value_table(hsv: np.ndarray) -> np.ndarray:
    """(3, 256) int64 counts of each value of each attribute in (N, 3) HSV rows."""
    # intp is the type bincount counts in, so it reads the bins without a copy
    bins = hsv + np.array([0, DOMAIN_SIZE, 2 * DOMAIN_SIZE], dtype=np.intp)
    return np.bincount(bins.ravel(), minlength=3 * DOMAIN_SIZE).reshape(3, DOMAIN_SIZE)


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
        if abs(self.p_skin + self.p_non_skin - 1.0) > PROB_SUM_TOL:
            raise ValueError(
                f"probabilities must sum to 1: {self.p_skin} + {self.p_non_skin}"
            )

    @property
    def label(self) -> Label:
        """Argmax class; exact ties go to skin."""
        return Label.SKIN if self.p_skin >= self.p_non_skin else Label.NON_SKIN


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


def threshold_scores(rgb: np.ndarray, box: ThresholdRange = ThresholdRange()) -> np.ndarray:
    """(N, 3) RGB rows -> (N,) skin scores: 1 where the row's YCbCr triple lies
    inside the box, else 0."""
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
    hsv, skin = hsv_arrays(train)
    n_skin = int(skin.sum())
    if n_skin in (0, skin.size):
        missing = "skin" if n_skin == 0 else "non-skin"
        raise ValueError(f"training set has no {missing} samples")
    counts = np.stack([_value_table(hsv[skin]), _value_table(hsv[~skin])], axis=1)
    class_counts = np.array([n_skin, skin.size - n_skin], dtype=np.int64)
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

    A table that is not laid out this way raises ValueError: the arrays
    must hold n >= 1 nodes, and every split i needs i + 1 < right[i] < n.
    Children then always come after their parent, so routing ends.
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
        attribute, right = self.attribute, self.right
        n = attribute.size
        shapes = (attribute.shape, self.threshold.shape, right.shape, self.counts.shape)
        if n == 0 or shapes != ((n,), (n,), (n,), (n, 2)):
            raise ValueError(f"tree arrays must hold n >= 1 nodes with (n, 2) counts, "
                             f"got shapes {shapes}")
        if ((attribute < -1) | (attribute > 2)).any():
            raise ValueError("tree attributes must be -1 (leaf), 0, 1 or 2")
        leaf = attribute < 0
        bad = np.flatnonzero(np.where(leaf, right != 0,
                                      (right <= np.arange(1, n + 1)) | (right >= n)))
        if bad.size:
            i = int(bad[0])
            if leaf[i]:
                raise ValueError(f"tree leaf {i} has right child {int(right[i])}, not 0")
            raise ValueError(f"tree split {i} has right child {int(right[i])}, which must lie "
                             f"after its left child {i + 1} and before node {n}")

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


def _is_open(counts: np.ndarray, depth: int, cfg: TreeConfig) -> np.ndarray:
    """Which nodes of (skin, non-skin) counts at this depth may still split."""
    below_max = cfg.max_depth is None or depth < cfg.max_depth
    return (counts > 0).all(axis=1) & (counts.sum(axis=1) >= cfg.min_samples_split) & below_max


def _best_splits(cols: np.ndarray, slot: np.ndarray, counts: np.ndarray) -> tuple:
    """The first best Gini split of each of S open nodes at one depth.

    cols is (3, m) uint16, each row's 2 * value + skin per attribute;
    slot is each row's node, 0 to S - 1; counts is the nodes' (S, 2)
    (skin, non-skin) totals. For each attribute one bincount over
    (node, value, skin) gives every cell's counts, and only the cells
    present in some node are scored: a cumsum in (node, value) order,
    less the rows of the nodes before, gives each cell's left side. The
    Gini gain of "split after this cell" is evaluated in float64 in a
    fixed order of operations, so equal splits score equal; a cell whose
    left side holds the whole node gets -inf. The first maximum per node
    wins, and a later attribute only when strictly greater: ties go to
    the lowest attribute, then the lowest value.

    Returns per node the gain, the attribute, the value v (rows at or
    below it go left), the next value present in the node, and the left
    side's (skin, non-skin) counts.
    """
    n_nodes = len(counts)
    n_skin, n_non = counts[:, 0], counts[:, 1]
    n = n_skin + n_non
    parent_q = (n_skin * n_skin + n_non * n_non) / n
    before = (np.cumsum(counts, axis=0) - counts)[:, ::-1]  # earlier nodes' (non-skin, skin)
    base = slot * (2 * DOMAIN_SIZE)
    key = np.empty_like(base)
    best = np.full(n_nodes, -np.inf)
    attribute, value, next_value = (np.zeros(n_nodes, dtype=np.int64) for _ in range(3))
    left_counts = np.zeros((n_nodes, 2), dtype=np.int64)
    for attr in range(3):
        np.add(base, cols[attr], out=key)
        table = np.bincount(key, minlength=n_nodes * 2 * DOMAIN_SIZE).reshape(-1, 2)
        cells = np.flatnonzero(table[:, 0] + table[:, 1])
        cell_node = cells // DOMAIN_SIZE
        left = np.cumsum(table[cells], axis=0) - before[cell_node]  # (non-skin, skin)
        left_n, cell_n = left[:, 0] + left[:, 1], n[cell_node]
        whole = np.flatnonzero(left_n == cell_n)  # each node's last cell
        n_left = left_n.astype(np.float64)
        n_left[whole] = 1.0
        n_right = cell_n - n_left
        skin_left = left[:, 1].astype(np.float64)
        skin_right = n_skin[cell_node] - skin_left
        non_left = n_left - skin_left
        non_right = n_right - skin_right
        q = (skin_left**2 + non_left**2) / n_left + (skin_right**2 + non_right**2) / n_right
        gains = (q - parent_q[cell_node]) / cell_n
        gains[whole] = -np.inf
        peak = np.maximum.reduceat(gains, np.r_[0, whole[:-1] + 1])
        hit = np.flatnonzero(gains == peak[cell_node])
        first = hit[np.diff(cell_node[hit], prepend=-1) > 0]
        better = np.flatnonzero(peak > best)
        at = first[better]  # never a node's last cell, whose gain is -inf
        best[better], attribute[better] = peak[better], attr
        value[better] = cells[at] % DOMAIN_SIZE
        next_value[better] = cells[at + 1] % DOMAIN_SIZE
        left_counts[better] = left[at, ::-1]
    return best, attribute, value, next_value, left_counts


def _preorder(levels: list) -> tuple:
    """Renumber per-depth (attribute, threshold, counts) node records into
    one preorder table (attribute, threshold, right, counts).

    The children of the j-th split node of one depth are nodes 2j and
    2j + 1 of the next; the last depth holds only leaves. Subtree sizes
    are summed from the deepest depth up; then, from the root down, a
    left child sits right after its parent and a right child after the
    left child's subtree.
    """
    sizes = [np.ones(levels[-1][0].size, dtype=np.int64)]
    for attribute, _, _ in reversed(levels[:-1]):
        below, size = sizes[-1], np.ones(attribute.size, dtype=np.int64)
        size[attribute >= 0] += below[0::2] + below[1::2]
        sizes.append(size)
    sizes.reverse()
    n_nodes = int(sizes[0][0])
    attribute, threshold = np.empty(n_nodes, dtype=np.int64), np.empty(n_nodes)
    right, counts = np.zeros(n_nodes, dtype=np.int64), np.empty((n_nodes, 2), dtype=np.int64)
    at = np.zeros(1, dtype=np.int64)  # the preorder index of each node of the depth
    for (attr, thr, cnt), below in zip(levels, sizes[1:]):
        attribute[at], threshold[at], counts[at] = attr, thr, cnt
        split = at[attr >= 0]
        right[split] = split + 1 + below[0::2]
        at = np.stack((split + 1, right[split]), axis=1).ravel()
    attribute[at], threshold[at], counts[at] = levels[-1]
    return attribute, threshold, right, counts


def tree_fit(train: HsvSamples | list[HsvSample], cfg: TreeConfig = TreeConfig()) -> TreeModel:
    """Grow a CART tree on quantized HSV samples, one depth at a time.

    A node becomes a leaf when it is pure, holds fewer than
    min_samples_split samples, sits at max_depth, or no candidate split
    reduces the Gini impurity. Each depth searches all its open nodes
    together (_best_splits): a split goes after the first best value,
    with ties to the lowest attribute, then the lowest threshold, and
    the threshold is the midpoint of that value and the next value
    present at the node. The rows of each split node then move to its
    two children, and the rows of leaves drop out.

    The nodes are stored in preorder: a left child right after its
    parent, a right child once the left subtree is complete.
    """
    if not train:
        raise ValueError("training set is empty")
    values, skin = hsv_arrays(train)
    cols = values.T.astype(np.uint16, order="C")  # one row per attribute: 2 * value + skin
    cols <<= 1
    cols |= skin
    slot = np.zeros(len(train), dtype=np.intp)  # each row's open node at this depth
    n_skin = int(skin.sum())
    counts = np.array([[n_skin, len(train) - n_skin]], dtype=np.int64)
    is_open = _is_open(counts, 0, cfg)
    levels = []  # per depth: attribute, threshold and counts of its nodes
    while True:
        attribute, threshold = np.full(len(counts), -1, dtype=np.int64), np.zeros(len(counts))
        levels.append((attribute, threshold, counts))
        nodes = np.flatnonzero(is_open)
        if nodes.size == 0:
            break
        gain, attr, value, next_value, left = _best_splits(cols, slot, counts[nodes])
        split = gain > 0.0
        if not split.any():
            break
        attribute[nodes[split]] = attr[split]
        threshold[nodes[split]] = (value[split] + next_value[split]) / 2.0
        counts = np.stack((left[split], counts[nodes[split]] - left[split]), axis=1).reshape(-1, 2)
        is_open = _is_open(counts, len(levels), cfg)
        # each row goes to its open child's slot, or drops out (-1)
        target = np.full((nodes.size, 2), -1, dtype=np.intp)  # (left, right) slot per node
        target[split] = np.where(is_open, np.cumsum(is_open) - 1, -1).reshape(-1, 2)
        cut = np.full((3, nodes.size), 2 * DOMAIN_SIZE - 1, dtype=np.uint16)  # no row above
        cut[attr[split], np.flatnonzero(split)] = 2 * value[split] + 1
        go_right = cols[0] > cut[0, slot]
        go_right |= cols[1] > cut[1, slot]
        go_right |= cols[2] > cut[2, slot]
        slot = target.ravel()[2 * slot + go_right]
        keep = slot >= 0
        cols, slot = cols[:, keep], slot[keep]
    return TreeModel(*_preorder(levels), cfg, len(train))


def tree_predict_batch(model: TreeModel, hsv: np.ndarray) -> np.ndarray:
    """(N, 3) uint8 HSV rows -> (N,) p_skin: the skin frequency of the leaf
    each row reaches."""
    p_skin = model.counts[:, 0] / model.counts.sum(axis=1)
    return p_skin[model.route(hsv)]
