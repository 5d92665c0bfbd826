"""Stage-1 classifier tests: threshold box, naive Bayes, decision tree.

The Bayes and tree fits are checked against independent oracles written
in exact Fraction arithmetic.
"""

from fractions import Fraction

import numpy as np
import pytest

from skinseg.classifiers import (
    ClassProbabilities,
    ThresholdRange,
    DOMAIN_SIZE,
    TreeConfig,
    TreeModel,
    bayes_fit,
    bayes_predict,
    bayes_predict_batch,
    threshold_scores,
    tree_fit,
    tree_predict_batch,
)
from skinseg.colorspace import HsvPixel, YcbcrPixel, rgb_to_ycbcr_array
from skinseg.dataset import HsvSample, HsvSamples, Label, hsv_arrays

from oracles import RgbPixel, threshold_classify, tree_predict


def _hsv(h, s, v, skin=True):
    return HsvSample(h, s, v, Label.SKIN if skin else Label.NON_SKIN)


# ---------------------------------------------------------------------------
# ClassProbabilities contract
# ---------------------------------------------------------------------------

def test_class_probabilities_validation():
    ClassProbabilities(0.25, 0.75)
    with pytest.raises(ValueError):
        ClassProbabilities(0.6, 0.6)
    with pytest.raises(ValueError):
        ClassProbabilities(-0.1, 1.1)


def test_class_probabilities_label_and_tie():
    assert ClassProbabilities(0.75, 0.25).label is Label.SKIN
    assert ClassProbabilities(0.25, 0.75).label is Label.NON_SKIN
    assert ClassProbabilities(0.5, 0.5).label is Label.SKIN  # ties go to skin


# ---------------------------------------------------------------------------
# Threshold baseline
# ---------------------------------------------------------------------------

def test_threshold_box_defaults_and_contains():
    box = ThresholdRange()
    assert (box.lower.y, box.lower.cr, box.lower.cb) == (0, 147, 60)
    assert (box.upper.y, box.upper.cr, box.upper.cb) == (255, 180, 127)
    # RGB triples chosen for their exact YCbCr conversions
    rgb = np.array([[145, 90, 33], [117, 104, 33], [145, 76, 103]], dtype=np.uint8)
    assert rgb_to_ycbcr_array(rgb).tolist() == [[100, 160, 90], [100, 140, 90], [100, 160, 130]]
    # inside; Cr below 147; Cb above 127
    assert threshold_scores(rgb, box).tolist() == [1.0, 0.0, 0.0]


def test_threshold_classify_known_pixels():
    # white -> YCrCb (255, 128, 128): Cr below range and Cb above;
    # a warm skin tone lands inside the box: (210,140,120) -> (159, 165, 106)
    rgb = np.array([[255, 255, 255], [210, 140, 120]], dtype=np.uint8)
    assert threshold_scores(rgb).tolist() == [0.0, 1.0]


def test_threshold_scores_matches_scalar():
    rng = np.random.default_rng(3)
    rgb = rng.integers(0, 256, size=(1500, 3), dtype=np.uint8)
    scores = threshold_scores(rgb)
    assert set(np.unique(scores)) <= {0.0, 1.0}
    for i in range(rgb.shape[0]):
        single = threshold_classify(RgbPixel(int(rgb[i, 0]), int(rgb[i, 1]), int(rgb[i, 2])))
        assert scores[i] == single.p_skin
    assert scores.mean() > 0  # the random sample should hit the box sometimes


def test_threshold_box_validation():
    with pytest.raises(ValueError):
        ThresholdRange(lower=YcbcrPixel(10, 150, 60), upper=YcbcrPixel(5, 180, 127))


# ---------------------------------------------------------------------------
# Naive Bayes
# ---------------------------------------------------------------------------

TOY = [_hsv(1, 1, 1)] * 3 + [_hsv(2, 2, 2, skin=False)]


def test_bayes_fit_hand_counts():
    model = bayes_fit(TOY, alpha=0.0)
    assert model.priors[0] == 0.75
    assert np.array_equal(model.class_counts, [3, 1])
    # P(h=1 | skin) = 1, P(h=2 | non) = 1
    tables = model.likelihood_tables()
    assert tables[0, 0, 1] == 1.0
    assert tables[0, 1, 2] == 1.0
    assert tables[0, 0, 2] == 0.0
    # table totals per class equal the class count
    assert np.array_equal(model.counts.sum(axis=2), [[3, 1]] * 3)


def test_bayes_smoothing_formula():
    model = bayes_fit(TOY, alpha=1.0)
    tables = model.likelihood_tables()
    # unseen value for the skin class (N_X = 3): (0 + 1) / (3 + 256)
    assert tables[0, 0, 77] == pytest.approx(1 / 259, abs=0)
    # seen value: (3 + 1) / 259
    assert tables[0, 0, 1] == pytest.approx(4 / 259, abs=0)


def test_bayes_predict_toy_posterior():
    model = bayes_fit(TOY, alpha=0.0)
    out = bayes_predict(model, HsvPixel(1, 1, 1))
    assert out.p_skin == 1.0 and not out.fallback
    out = bayes_predict(model, HsvPixel(2, 2, 2))
    assert out.p_non_skin == 1.0


def test_bayes_zero_score_fallback():
    model = bayes_fit(TOY, alpha=0.0)
    out = bayes_predict(model, HsvPixel(200, 200, 200))  # unseen everywhere
    assert out.fallback
    assert out.p_skin == pytest.approx(0.75)


def test_bayes_symmetric_model_is_uninformative():
    train = [_hsv(5, 6, 7), _hsv(9, 10, 11), _hsv(5, 6, 7, skin=False), _hsv(9, 10, 11, skin=False)]
    model = bayes_fit(train, alpha=1.0)
    for pixel in (HsvPixel(5, 6, 7), HsvPixel(0, 0, 0), HsvPixel(255, 1, 30)):
        out = bayes_predict(model, pixel)
        assert out.p_skin == pytest.approx(0.5, abs=1e-12)


def test_bayes_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        bayes_fit([], alpha=1.0)
    with pytest.raises(ValueError):
        bayes_fit([_hsv(1, 1, 1)], alpha=1.0)  # no non-skin
    with pytest.raises(ValueError):
        bayes_fit([_hsv(1, 1, 1, skin=False)], alpha=1.0)  # no skin
    with pytest.raises(ValueError):
        bayes_fit(TOY, alpha=-0.5)


def _bayes_oracle(train, alpha, pixel):
    """Posterior via exact Fractions straight from the training list."""
    alpha = Fraction(alpha)
    n = len(train)
    scores = {}
    for label in (Label.SKIN, Label.NON_SKIN):
        members = [s for s in train if s.label is label]
        n_x = len(members)
        score = Fraction(n_x, n)
        for attr in range(3):
            value = (pixel.h, pixel.s, pixel.v)[attr]
            count = sum(1 for s in members if (s.h, s.s, s.v)[attr] == value)
            score *= Fraction(count + alpha, n_x + 256 * alpha)
        scores[label] = score
    total = scores[Label.SKIN] + scores[Label.NON_SKIN]
    if total == 0:
        return None
    return scores[Label.SKIN] / total


def test_bayes_matches_fraction_oracle():
    rng = np.random.default_rng(77)
    train = [
        _hsv(int(h), int(s), int(v), skin=bool(k))
        for h, s, v, k in zip(
            rng.integers(0, 8, 60), rng.integers(0, 8, 60),
            rng.integers(0, 8, 60), rng.integers(0, 2, 60),
        )
    ]
    if not any(s.label is Label.SKIN for s in train):
        train[0] = _hsv(0, 0, 0)
    for alpha in (0, 1, 2):
        model = bayes_fit(train, alpha=float(alpha))
        for _ in range(40):
            pixel = HsvPixel(int(rng.integers(0, 10)), int(rng.integers(0, 10)),
                             int(rng.integers(0, 10)))
            expect = _bayes_oracle(train, alpha, pixel)
            got = bayes_predict(model, pixel)
            if expect is None:
                assert got.fallback
            else:
                assert got.p_skin == pytest.approx(float(expect), abs=1e-12)


def test_bayes_duplication_invariance():
    rng = np.random.default_rng(21)
    train = [
        _hsv(int(h), int(s), int(v), skin=bool(k))
        for h, s, v, k in zip(
            rng.integers(0, 30, 40), rng.integers(0, 30, 40),
            rng.integers(0, 30, 40), rng.integers(0, 2, 40),
        )
    ]
    train[0] = _hsv(0, 0, 0)
    train[1] = _hsv(1, 1, 1, skin=False)
    base = bayes_fit(train, alpha=0.0)
    tripled = bayes_fit(train * 3, alpha=0.0)
    for _ in range(25):
        pixel = HsvPixel(int(rng.integers(0, 31)), int(rng.integers(0, 31)),
                         int(rng.integers(0, 31)))
        a = bayes_predict(base, pixel)
        b = bayes_predict(tripled, pixel)
        assert a.p_skin == pytest.approx(b.p_skin, abs=1e-12)
        assert a.fallback == b.fallback


def test_bayes_batch_matches_scalar():
    rng = np.random.default_rng(14)
    train = [
        _hsv(int(h), int(s), int(v), skin=bool(k))
        for h, s, v, k in zip(
            rng.integers(0, 256, 300), rng.integers(0, 256, 300),
            rng.integers(0, 256, 300), rng.integers(0, 2, 300),
        )
    ]
    train[0] = _hsv(0, 0, 0)
    train[1] = _hsv(1, 1, 1, skin=False)
    hsv = rng.integers(0, 256, size=(400, 3), dtype=np.uint8)
    # at alpha = 0 most pixels hold a value each class never saw, so both
    # scores vanish and the prediction falls back to the skin prior
    for alpha in (1.0, 0.0):
        model = bayes_fit(train, alpha=alpha)
        batch = bayes_predict_batch(model, hsv)
        fallbacks = 0
        for i in range(hsv.shape[0]):
            single = bayes_predict(model, HsvPixel(int(hsv[i, 0]), int(hsv[i, 1]), int(hsv[i, 2])))
            assert batch[i] == pytest.approx(single.p_skin, abs=1e-12)
            if single.fallback:
                assert batch[i] == model.priors[0]
                fallbacks += 1
        assert 0 < fallbacks < hsv.shape[0] if alpha == 0.0 else fallbacks == 0


# ---------------------------------------------------------------------------
# Decision tree
# ---------------------------------------------------------------------------

def _gini(counts):
    n = sum(counts)
    return 1 - sum(Fraction(c, n) ** 2 for c in counts) if n else Fraction(0)


def _root_split_oracle(train):
    """Exhaustive (attribute, midpoint) search scored in exact Fractions.

    Returns (gain, attr, threshold) for the best split under the
    deterministic tie-break (lowest attribute, then lowest threshold), or
    None if no candidate has positive gain.
    """
    n = len(train)
    skin = [s.label is Label.SKIN for s in train]
    parent = _gini([sum(skin), n - sum(skin)])
    best = None
    for attr in range(3):
        values = [(s.h, s.s, s.v)[attr] for s in train]
        distinct = sorted(set(values))
        for lo, hi in zip(distinct, distinct[1:]):
            thr = Fraction(lo + hi, 2)
            left = [i for i, v in enumerate(values) if v <= thr]
            right = [i for i, v in enumerate(values) if v > thr]
            lc = [sum(skin[i] for i in left), len(left) - sum(skin[i] for i in left)]
            rc = [sum(skin[i] for i in right), len(right) - sum(skin[i] for i in right)]
            gain = parent - Fraction(len(left), n) * _gini(lc) - Fraction(len(right), n) * _gini(rc)
            if gain <= 0:
                continue
            key = (-gain, attr, thr)
            if best is None or key < best[0]:
                best = (key, gain, attr, thr)
    if best is None:
        return None
    return best[1], best[2], best[3]


def test_tree_separable_single_split():
    train = [_hsv(h, 0, 0) for h in (1, 5, 10)] + [_hsv(h, 0, 0, skin=False) for h in (200, 220, 250)]
    model = tree_fit(train)
    assert model.attribute[0] != -1
    assert model.attribute[0] == 0
    assert model.threshold[0] == 105.0  # midpoint of 10 and 200
    assert model.attribute[1] == -1 and model.attribute[model.right[0]] == -1
    assert model.depth() == 1
    # the whole table: root, its left child (h <= 105: the three skin
    # rows), then its right child
    assert model.attribute.tolist() == [0, -1, -1]
    assert model.threshold.tolist() == [105.0, 0.0, 0.0]
    assert model.right.tolist() == [2, 0, 0]
    assert model.counts.tolist() == [[3, 3], [3, 0], [0, 3]]
    assert model.node_count() == (1, 2)


def test_tree_pure_input_single_leaf():
    model = tree_fit([_hsv(1, 2, 3), _hsv(4, 5, 6)])
    assert model.attribute.tolist() == [-1]
    assert model.counts.tolist() == [[2, 0]]


def test_tree_root_matches_bruteforce_oracle():
    rng = np.random.default_rng(404)
    for trial in range(30):
        n = int(rng.integers(4, 22))
        train = [
            _hsv(int(h), int(s), int(v), skin=bool(k))
            for h, s, v, k in zip(
                rng.integers(0, 8, n), rng.integers(0, 8, n),
                rng.integers(0, 8, n), rng.integers(0, 2, n),
            )
        ]
        expect = _root_split_oracle(train)
        model = tree_fit(train)
        if expect is None:
            assert model.attribute[0] == -1
            continue
        gain, attr, thr = expect
        assert model.attribute[0] != -1
        # gains are compared in float inside the fit; identify exact ties
        exact = _exact_tied_candidates(train, gain)
        root = (int(model.attribute[0]), Fraction(float(model.threshold[0])))
        assert root in exact
        assert root == (attr, thr) or len(exact) > 1


def _exact_tied_candidates(train, target_gain):
    """All (attr, threshold) whose exact Gini gain equals target_gain."""
    n = len(train)
    skin = [s.label is Label.SKIN for s in train]
    parent = _gini([sum(skin), n - sum(skin)])
    out = set()
    for attr in range(3):
        values = [(s.h, s.s, s.v)[attr] for s in train]
        distinct = sorted(set(values))
        for lo, hi in zip(distinct, distinct[1:]):
            thr = Fraction(lo + hi, 2)
            left = [i for i, v in enumerate(values) if v <= thr]
            right = [i for i, v in enumerate(values) if v > thr]
            lc = [sum(skin[i] for i in left), len(left) - sum(skin[i] for i in left)]
            rc = [sum(skin[i] for i in right), len(right) - sum(skin[i] for i in right)]
            gain = parent - Fraction(len(left), n) * _gini(lc) - Fraction(len(right), n) * _gini(rc)
            if gain == target_gain:
                out.add((attr, thr))
    return out


def test_tree_tie_break_prefers_lowest_attribute():
    # s duplicates h exactly, so every candidate is tied across the two
    # attributes; the fit must split on h (attribute 0)
    train = [_hsv(0, 0, 9), _hsv(0, 0, 9), _hsv(10, 10, 9, skin=False), _hsv(10, 10, 9, skin=False)]
    model = tree_fit(train)
    assert model.attribute[0] == 0
    assert model.threshold[0] == 5.0


def test_tree_tie_break_prefers_lowest_threshold():
    # S N S along h: splitting at 2.5 or 7.5 gives identical gains
    train = [_hsv(0, 0, 0), _hsv(5, 0, 0, skin=False), _hsv(10, 0, 0)]
    model = tree_fit(train)
    assert model.attribute[0] == 0
    assert model.threshold[0] == 2.5


def test_tree_recovers_training_labels_when_consistent():
    rng = np.random.default_rng(88)
    seen = {}
    train = []
    for _ in range(200):
        key = (int(rng.integers(0, 12)), int(rng.integers(0, 12)), int(rng.integers(0, 12)))
        label = seen.setdefault(key, bool(rng.integers(0, 2)))
        train.append(_hsv(*key, skin=label))
    model = tree_fit(train)
    p_skin = tree_predict_batch(model, hsv_arrays(train)[0])
    for s, p in zip(train, p_skin):
        assert ClassProbabilities(p, 1.0 - p).label is s.label


def test_tree_leaf_counts_sum_to_training_size():
    rng = np.random.default_rng(12)
    train = [
        _hsv(int(h), int(s), int(v), skin=bool(k))
        for h, s, v, k in zip(
            rng.integers(0, 50, 150), rng.integers(0, 50, 150),
            rng.integers(0, 50, 150), rng.integers(0, 2, 150),
        )
    ]
    model = tree_fit(train)
    total = model.counts.sum(axis=1)
    leaf_total = 0
    for node, attr in enumerate(model.attribute):
        if attr == -1:
            leaf_total += total[node]
        else:
            assert total[node + 1] + total[model.right[node]] == total[node]
    assert leaf_total == len(train) == model.n_samples


def test_tree_single_leaf_probabilities():
    train = [_hsv(1, 1, 1)] * 3 + [_hsv(1, 1, 1, skin=False)]
    model = tree_fit(train)  # identical tuples, mixed labels: no split possible
    assert model.attribute.tolist() == [-1]
    p_skin = tree_predict_batch(model, np.array([[9, 9, 9]], dtype=np.uint8))
    assert (p_skin[0], 1.0 - p_skin[0]) == (0.75, 0.25)


def test_tree_max_depth_and_min_samples():
    train = [_hsv(h, 0, 0, skin=h < 5) for h in range(10)]
    stump = tree_fit(train, TreeConfig(max_depth=0))
    assert stump.attribute.tolist() == [-1]
    shallow = tree_fit(train, TreeConfig(max_depth=1))
    assert shallow.depth() <= 1
    chunky = tree_fit(train, TreeConfig(min_samples_split=11))
    assert chunky.attribute.tolist() == [-1]


def test_tree_batch_matches_scalar():
    rng = np.random.default_rng(31)
    train = [
        _hsv(int(h), int(s), int(v), skin=bool(k))
        for h, s, v, k in zip(
            rng.integers(0, 256, 400), rng.integers(0, 256, 400),
            rng.integers(0, 256, 400), rng.integers(0, 2, 400),
        )
    ]
    model = tree_fit(train)
    hsv = rng.integers(0, 256, size=(500, 3), dtype=np.uint8)
    batch = tree_predict_batch(model, hsv)
    for i in range(hsv.shape[0]):
        single = tree_predict(model, HsvPixel(int(hsv[i, 0]), int(hsv[i, 1]), int(hsv[i, 2])))
        assert batch[i] == single.p_skin


def test_tree_deterministic():
    rng = np.random.default_rng(66)
    train = [
        _hsv(int(h), int(s), int(v), skin=bool(k))
        for h, s, v, k in zip(
            rng.integers(0, 40, 120), rng.integers(0, 40, 120),
            rng.integers(0, 40, 120), rng.integers(0, 2, 120),
        )
    ]
    a = tree_fit(train)
    b = tree_fit(train)
    assert a.attribute.size > 1
    for name in ("attribute", "threshold", "right", "counts"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def _per_attribute_best_split(values, skin):
    """The split search tree_fit used before its count table, kept as an oracle.

    One attribute at a time: compress to the values present, take each
    attribute's first maximum, and keep a running best whose strict
    greater-than lets the lowest attribute win ties.
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


def _per_attribute_tree_fit(train, cfg):
    """tree_fit as it was before its count table, growing with the oracle above."""
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
        found = _per_attribute_best_split(values[idx], skin[idx])
        if found is None:
            continue
        _, attr, thr = found
        attribute[node], threshold[node] = attr, thr
        left_mask = values[idx, attr] <= thr
        stack.append((idx[~left_mask], depth + 1, node))
        stack.append((idx[left_mask], depth + 1, None))
    return TreeModel(attribute, threshold, right, counts, cfg, len(train))


def test_tree_fit_matches_per_attribute_split_search():
    # tie-heavy datasets: each attribute takes 1-5 levels (often one
    # attribute is constant), so equal gains across attributes and
    # thresholds, and values absent between present ones, are common
    rng = np.random.default_rng(808)
    for case in range(1000):
        n = int(rng.integers(2, 40))
        channels = np.empty((n, 3), dtype=np.uint8)
        for attr in range(3):
            levels = rng.choice(DOMAIN_SIZE, size=int(rng.integers(1, 6)), replace=False)
            channels[:, attr] = rng.choice(levels, size=n)
        if rng.random() < 0.5:
            channels[:, rng.integers(0, 3)] = rng.integers(0, DOMAIN_SIZE)
        skin = rng.random(n) < rng.uniform(0.2, 0.8)
        skin[rng.choice(n, size=2, replace=False)] = (True, False)  # both labels
        max_depth = None if rng.random() < 0.5 else int(rng.integers(0, 6))
        cfg = TreeConfig(min_samples_split=int(rng.integers(2, 7)), max_depth=max_depth)
        train = HsvSamples(channels, skin)
        got, want = tree_fit(train, cfg), _per_attribute_tree_fit(train, cfg)
        for name in ("attribute", "threshold", "right", "counts"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), (case, name)
        assert (got.config, got.n_samples) == (want.config, want.n_samples), case


def _assert_same_tree(got, want, context):
    for name in ("attribute", "threshold", "right", "counts"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), (context, name)
    assert (got.config, got.n_samples) == (want.config, want.n_samples), context


def _level_widths(model):
    """The number of nodes at each depth of a tree."""
    widths, nodes = [], np.zeros(1, dtype=np.int64)
    while nodes.size:
        widths.append(int(nodes.size))
        nodes = nodes[model.attribute[nodes] >= 0]
        nodes = np.concatenate((nodes + 1, model.right[nodes]))
    return widths


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", range(3))
def test_tree_fit_matches_per_attribute_split_search_on_deep_trees(seed):
    # 2,000-5,000 rows with labels mostly at random, so the trees grow
    # dozens of depths with many nodes open at each; from all 256 values
    # per attribute down to 12, where tuples repeat with mixed labels
    rng = np.random.default_rng([909, seed])
    n = int(rng.integers(2000, 5001))
    high = (256, 40, 12)[seed]
    channels = rng.integers(0, high, (n, 3), dtype=np.uint8)
    skin = (channels[:, 0] < high // 3) ^ (rng.random(n) < 0.4)
    for cfg in (TreeConfig(), TreeConfig(min_samples_split=7), TreeConfig(max_depth=17)):
        train = HsvSamples(channels, skin)
        got = tree_fit(train, cfg)
        _assert_same_tree(got, _per_attribute_tree_fit(train, cfg), cfg)
        assert got.depth() >= 15 and max(_level_widths(got)) >= 50, cfg


def _edge_case_sets():
    rng = np.random.default_rng(910)
    channels = rng.integers(0, 256, (300, 3), dtype=np.uint8)
    skin = rng.random(300) < 0.5
    constant = channels.copy()
    constant[:, 1] = 77
    return {
        "max_depth=0": (channels, skin, TreeConfig(max_depth=0)),
        "min_samples_split > n": (channels, skin, TreeConfig(min_samples_split=301)),
        "min_samples_split = n": (channels, skin, TreeConfig(min_samples_split=300)),
        "single class": (channels, np.ones(300, dtype=bool), TreeConfig()),
        "one row": (channels[:1], skin[:1], TreeConfig()),
        "identical tuples, mixed labels": (np.full((40, 3), 9, dtype=np.uint8),
                                           np.arange(40) % 3 == 0, TreeConfig()),
        "constant attribute": (constant, skin, TreeConfig()),
        "constant attribute, max_depth=3": (constant, skin, TreeConfig(max_depth=3)),
    }


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", list(_edge_case_sets()))
def test_tree_fit_edge_cases_match_per_attribute_split_search(case):
    channels, skin, cfg = _edge_case_sets()[case]
    train = HsvSamples(channels, skin)
    _assert_same_tree(tree_fit(train, cfg), _per_attribute_tree_fit(train, cfg), case)


_LEAF_COUNTS = [[1, 1], [1, 0], [0, 1]]
MALFORMED_TREES = {
    "right child is the root": ([0, -1], [10.0, 0.0], [0, 0], [[1, 1], [1, 0]]),
    "split in the last row": ([-1, 0], [0.0, 10.0], [0, 0], [[1, 1], [1, 0]]),
    "split in the last row, right past the end": ([-1, 0], [0.0, 10.0], [0, 2],
                                                  [[1, 1], [1, 0]]),
    "right child is the left child": ([0, -1, -1], [1.0, 0.0, 0.0], [1, 0, 0], _LEAF_COUNTS),
    "right child past the end": ([0, -1, -1], [1.0, 0.0, 0.0], [3, 0, 0], _LEAF_COUNTS),
    "right child before its parent": ([0, 1, -1, -1, -1], [1.0, 2.0, 0.0, 0.0, 0.0],
                                      [4, 0, 0, 0, 0], [[2, 1], [1, 1], [1, 0], [0, 1], [1, 0]]),
    "leaf with a right child": ([0, -1, -1], [1.0, 0.0, 0.0], [2, 2, 0], _LEAF_COUNTS),
    "attribute 3": ([3, -1, -1], [1.0, 0.0, 0.0], [2, 0, 0], _LEAF_COUNTS),
    "attribute -2": ([-2, -1, -1], [1.0, 0.0, 0.0], [2, 0, 0], _LEAF_COUNTS),
    "no nodes": ([], [], [], np.zeros((0, 2))),
    "flat counts": ([-1], [0.0], [0], [1, 1]),
    "counts of three classes": ([-1], [0.0], [0], [[1, 1, 1]]),
    "a threshold too many": ([-1], [0.0, 1.0], [0], [[1, 1]]),
    "a right child too few": ([0, -1, -1], [1.0, 0.0, 0.0], [2, 0], _LEAF_COUNTS),
    "2-d arrays": ([[-1]], [[0.0]], [[0]], [[[1, 1]]]),
}


@pytest.mark.parametrize("arrays", list(MALFORMED_TREES.values()), ids=list(MALFORMED_TREES))
def test_tree_model_rejects_tables_that_are_not_preorder_trees(arrays):
    with pytest.raises(ValueError, match="tree"):
        TreeModel(*arrays, TreeConfig(), 2)


def test_tree_model_accepts_preorder_tables():
    stump = TreeModel([-1], [0.0], [0], [[3, 4]], TreeConfig(), 7)
    assert stump.depth() == 0
    # root splits on h; its left child on s; nodes 2, 3 and 4 are leaves
    model = TreeModel([0, 1, -1, -1, -1], [1.5, 2.5, 0.0, 0.0, 0.0], [4, 3, 0, 0, 0],
                      [[2, 2], [2, 1], [2, 0], [0, 1], [0, 1]], TreeConfig(), 4)
    assert model.depth() == 2
    hsv = np.array([[1, 2, 0], [1, 3, 0], [2, 0, 0]], dtype=np.uint8)
    assert model.route(hsv).tolist() == [2, 3, 4]

def test_probability_contract_across_classifiers():
    rng = np.random.default_rng(5)
    train = [
        _hsv(int(h), int(s), int(v), skin=bool(k))
        for h, s, v, k in zip(
            rng.integers(0, 256, 200), rng.integers(0, 256, 200),
            rng.integers(0, 256, 200), rng.integers(0, 2, 200),
        )
    ]
    train[0] = _hsv(0, 0, 0)
    train[1] = _hsv(1, 1, 1, skin=False)
    bayes = bayes_fit(train, alpha=1.0)
    tree = tree_fit(train)
    hsv = rng.integers(0, 256, size=(100, 3), dtype=np.uint8)
    rgb = rng.integers(0, 256, size=(100, 3), dtype=np.uint8)
    for p_skin in (bayes_predict_batch(bayes, hsv), tree_predict_batch(tree, hsv)):
        assert p_skin.shape == (100,) and np.all((0.0 <= p_skin) & (p_skin <= 1.0))
    for pixel in hsv:
        out = bayes_predict(bayes, HsvPixel(*(int(c) for c in pixel)))
        assert abs(out.p_skin + out.p_non_skin - 1.0) < 1e-9
    assert set(threshold_scores(rgb).tolist()) <= {0.0, 1.0}
