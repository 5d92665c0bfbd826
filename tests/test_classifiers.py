"""Stage-1 classifier tests: threshold box, naive Bayes, decision tree.

The Bayes and tree fits are checked against independent oracles written
in exact Fraction arithmetic.
"""

from fractions import Fraction

import numpy as np
import pytest

from skinseg.classifiers import (
    BayesModel,
    ClassProbabilities,
    ThresholdRange,
    DOMAIN_SIZE,
    TreeConfig,
    TreeModel,
    bayes_fit,
    bayes_predict_batch,
    threshold_scores,
    tree_fit,
    tree_predict_batch,
)
from skinseg.colorspace import YcbcrPixel, rgb_to_ycbcr_array
from skinseg.dataset import HsvSamples, Label, hsv_arrays

from oracles import (
    HsvPixel,
    RgbPixel,
    bayes_predict,
    preorder_right,
    threshold_classify,
    tree_predict,
)


def _hsv(rows, skin) -> HsvSamples:
    """Columns of (h, s, v) rows and one skin flag per row."""
    return HsvSamples(np.array(rows, dtype=np.uint8).reshape(-1, 3), np.array(skin, dtype=bool))


def _random_hsv(rng, high, n) -> HsvSamples:
    """n rows whose h, s and v are drawn below high, then n random skin flags."""
    h, s, v = (rng.integers(0, high, n) for _ in range(3))
    return _hsv(np.stack([h, s, v], axis=1), rng.integers(0, 2, n))


def _with_both_classes(train: HsvSamples) -> HsvSamples:
    """train with row 0 set to a skin (0, 0, 0) and row 1 to a non-skin (1, 1, 1)."""
    train.channels[:2] = [[0, 0, 0], [1, 1, 1]]
    train.skin[:2] = [True, False]
    return train


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

TOY = _hsv([(1, 1, 1)] * 3 + [(2, 2, 2)], [True] * 3 + [False])


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
    out, fallback = bayes_predict(model, HsvPixel(1, 1, 1))
    assert out.p_skin == 1.0 and not fallback
    out, _ = bayes_predict(model, HsvPixel(2, 2, 2))
    assert out.p_non_skin == 1.0


def test_bayes_zero_score_fallback():
    model = bayes_fit(TOY, alpha=0.0)
    out, fallback = bayes_predict(model, HsvPixel(200, 200, 200))  # unseen everywhere
    assert fallback
    assert out.p_skin == pytest.approx(0.75)


def test_bayes_symmetric_model_is_uninformative():
    train = _hsv([(5, 6, 7), (9, 10, 11)] * 2, [True, True, False, False])
    model = bayes_fit(train, alpha=1.0)
    for pixel in (HsvPixel(5, 6, 7), HsvPixel(0, 0, 0), HsvPixel(255, 1, 30)):
        out, _ = bayes_predict(model, pixel)
        assert out.p_skin == pytest.approx(0.5, abs=1e-12)


def test_bayes_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        bayes_fit(_hsv([], []), alpha=1.0)
    with pytest.raises(ValueError):
        bayes_fit(_hsv([(1, 1, 1)], [True]), alpha=1.0)  # no non-skin
    with pytest.raises(ValueError):
        bayes_fit(_hsv([(1, 1, 1)], [False]), alpha=1.0)  # no skin
    with pytest.raises(ValueError):
        bayes_fit(TOY, alpha=-0.5)


def test_bayes_model_rejects_malformed_counts():
    good = bayes_fit(TOY, alpha=1.0)
    with pytest.raises(ValueError, match=r"counts must have shape \(3, 2, 256\), got \(3, 2, 255\)"):
        BayesModel(counts=good.counts[:, :, :255], class_counts=good.class_counts, alpha=1.0)
    with pytest.raises(ValueError, match=r"class counts must be > 0 .* got class counts \[3, 0\]"):
        BayesModel(counts=good.counts, class_counts=np.array([3, 0]), alpha=1.0)
    negative = good.counts.copy()
    negative[0, 0, 0] = -1
    with pytest.raises(ValueError, match="value counts >= 0"):
        BayesModel(counts=negative, class_counts=good.class_counts, alpha=1.0)


@pytest.mark.parametrize("kwargs, message", [
    ({"min_samples_split": 1}, "min_samples_split must be >= 2"),
    ({"max_depth": -1}, "max_depth must be >= 0"),
])
def test_tree_config_rejects_out_of_range_bounds(kwargs, message):
    with pytest.raises(ValueError, match=message):
        TreeConfig(**kwargs)


def test_tree_fit_rejects_an_empty_training_set():
    with pytest.raises(ValueError, match="training set is empty"):
        tree_fit(_hsv([], []))


def _bayes_oracle(train, alpha, pixel):
    """Posterior via exact Fractions straight from the training rows."""
    alpha = Fraction(alpha)
    n = len(train)
    rows = list(zip(train.channels.tolist(), train.skin.tolist()))
    scores = {}
    for skin in (True, False):
        members = [hsv for hsv, k in rows if k == skin]
        n_x = len(members)
        score = Fraction(n_x, n)
        for attr in range(3):
            value = (pixel.h, pixel.s, pixel.v)[attr]
            count = sum(1 for hsv in members if hsv[attr] == value)
            score *= Fraction(count + alpha, n_x + 256 * alpha)
        scores[skin] = score
    total = scores[True] + scores[False]
    if total == 0:
        return None
    return scores[True] / total


def test_bayes_matches_fraction_oracle():
    rng = np.random.default_rng(77)
    train = _random_hsv(rng, 8, 60)
    if not train.skin.any():
        train.channels[0], train.skin[0] = 0, True
    for alpha in (0, 1, 2):
        model = bayes_fit(train, alpha=float(alpha))
        for _ in range(40):
            pixel = HsvPixel(int(rng.integers(0, 10)), int(rng.integers(0, 10)),
                             int(rng.integers(0, 10)))
            expect = _bayes_oracle(train, alpha, pixel)
            got, fallback = bayes_predict(model, pixel)
            if expect is None:
                assert fallback
            else:
                assert got.p_skin == pytest.approx(float(expect), abs=1e-12)


def test_bayes_duplication_invariance():
    rng = np.random.default_rng(21)
    train = _with_both_classes(_random_hsv(rng, 30, 40))
    base = bayes_fit(train, alpha=0.0)
    tripled = bayes_fit(train[np.tile(np.arange(len(train)), 3)], alpha=0.0)
    for _ in range(25):
        pixel = HsvPixel(int(rng.integers(0, 31)), int(rng.integers(0, 31)),
                         int(rng.integers(0, 31)))
        a, a_fallback = bayes_predict(base, pixel)
        b, b_fallback = bayes_predict(tripled, pixel)
        assert a.p_skin == pytest.approx(b.p_skin, abs=1e-12)
        assert a_fallback == b_fallback


def test_bayes_batch_matches_scalar():
    rng = np.random.default_rng(14)
    train = _with_both_classes(_random_hsv(rng, 256, 300))
    hsv = rng.integers(0, 256, size=(400, 3), dtype=np.uint8)
    # at alpha = 0 most pixels hold a value each class never saw, so both
    # scores vanish and the prediction falls back to the skin prior
    for alpha in (1.0, 0.0):
        model = bayes_fit(train, alpha=alpha)
        batch = bayes_predict_batch(model, hsv)
        fallbacks = 0
        for i in range(hsv.shape[0]):
            single, fallback = bayes_predict(model, HsvPixel(*hsv[i].tolist()))
            assert batch[i] == pytest.approx(single.p_skin, abs=1e-12)
            if fallback:
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
    skin = train.skin.tolist()
    parent = _gini([sum(skin), n - sum(skin)])
    best = None
    for attr in range(3):
        values = train.channels[:, attr].tolist()
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
    train = _hsv([(h, 0, 0) for h in (1, 5, 10, 200, 220, 250)], [True] * 3 + [False] * 3)
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
    model = tree_fit(_hsv([(1, 2, 3), (4, 5, 6)], [True, True]))
    assert model.attribute.tolist() == [-1]
    assert model.counts.tolist() == [[2, 0]]


def test_tree_root_matches_bruteforce_oracle():
    rng = np.random.default_rng(404)
    for trial in range(30):
        n = int(rng.integers(4, 22))
        train = _random_hsv(rng, 8, n)
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
    skin = train.skin.tolist()
    parent = _gini([sum(skin), n - sum(skin)])
    out = set()
    for attr in range(3):
        values = train.channels[:, attr].tolist()
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
    train = _hsv([(0, 0, 9)] * 2 + [(10, 10, 9)] * 2, [True, True, False, False])
    model = tree_fit(train)
    assert model.attribute[0] == 0
    assert model.threshold[0] == 5.0


def test_tree_tie_break_prefers_lowest_threshold():
    # S N S along h: splitting at 2.5 or 7.5 gives identical gains
    train = _hsv([(0, 0, 0), (5, 0, 0), (10, 0, 0)], [True, False, True])
    model = tree_fit(train)
    assert model.attribute[0] == 0
    assert model.threshold[0] == 2.5


def test_tree_recovers_training_labels_when_consistent():
    rng = np.random.default_rng(88)
    seen = {}
    rows, labels = [], []
    for _ in range(200):
        key = (int(rng.integers(0, 12)), int(rng.integers(0, 12)), int(rng.integers(0, 12)))
        rows.append(key)
        labels.append(seen.setdefault(key, bool(rng.integers(0, 2))))
    train = _hsv(rows, labels)
    model = tree_fit(train)
    p_skin = tree_predict_batch(model, hsv_arrays(train)[0])
    for skin, p in zip(labels, p_skin):
        assert ClassProbabilities(p, 1.0 - p).label is (Label.SKIN if skin else Label.NON_SKIN)


def test_tree_leaf_counts_sum_to_training_size():
    rng = np.random.default_rng(12)
    train = _random_hsv(rng, 50, 150)
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
    train = _hsv([(1, 1, 1)] * 4, [True] * 3 + [False])
    model = tree_fit(train)  # identical tuples, mixed labels: no split possible
    assert model.attribute.tolist() == [-1]
    p_skin = tree_predict_batch(model, np.array([[9, 9, 9]], dtype=np.uint8))
    assert (p_skin[0], 1.0 - p_skin[0]) == (0.75, 0.25)


def test_tree_max_depth_and_min_samples():
    train = _hsv([(h, 0, 0) for h in range(10)], [h < 5 for h in range(10)])
    stump = tree_fit(train, TreeConfig(max_depth=0))
    assert stump.attribute.tolist() == [-1]
    shallow = tree_fit(train, TreeConfig(max_depth=1))
    assert shallow.depth() <= 1
    chunky = tree_fit(train, TreeConfig(min_samples_split=11))
    assert chunky.attribute.tolist() == [-1]


def test_tree_batch_matches_scalar():
    rng = np.random.default_rng(31)
    train = _random_hsv(rng, 256, 400)
    model = tree_fit(train)
    hsv = rng.integers(0, 256, size=(500, 3), dtype=np.uint8)
    batch = tree_predict_batch(model, hsv)
    for i in range(hsv.shape[0]):
        single = tree_predict(model, HsvPixel(*hsv[i].tolist()))
        assert batch[i] == single.p_skin


def test_tree_deterministic():
    rng = np.random.default_rng(66)
    train = _random_hsv(rng, 40, 120)
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
    attribute, threshold, counts = [], [], []
    stack = [(np.arange(len(train)), 0)]  # rows, depth
    while stack:
        idx, depth = stack.pop()
        node = len(attribute)
        n_skin = int(skin[idx].sum())
        n_non = int(idx.size) - n_skin
        attribute.append(-1)
        threshold.append(0.0)
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
        stack.append((idx[~left_mask], depth + 1))
        stack.append((idx[left_mask], depth + 1))
    return TreeModel(attribute, threshold, counts, cfg, len(train))


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
    "a lone split": ([0], [10.0], [[1, 1]]),
    "a split as the last node": ([0, -1, 0], [10.0, 0.0, 10.0], _LEAF_COUNTS),
    "a leaf after the root leaf": ([-1, -1], [0.0, 0.0], [[1, 1], [1, 0]]),
    "a node after the tree completes": ([0, -1, -1, -1], [1.0, 0.0, 0.0, 0.0],
                                        _LEAF_COUNTS + [[1, 0]]),
    "too few leaves": ([0, 1, -1, -1], [1.0, 2.0, 0.0, 0.0], [[1, 1], [1, 1], [1, 0], [0, 1]]),
    "attribute 3": ([3, -1, -1], [1.0, 0.0, 0.0], _LEAF_COUNTS),
    "attribute -2": ([-2, -1, -1], [1.0, 0.0, 0.0], _LEAF_COUNTS),
    "no nodes": ([], [], np.zeros((0, 2))),
    "flat counts": ([-1], [0.0], [1, 1]),
    "counts of three classes": ([-1], [0.0], [[1, 1, 1]]),
    "a threshold too many": ([-1], [0.0, 1.0], [[1, 1]]),
    "a count row too few": ([0, -1, -1], [1.0, 0.0, 0.0], _LEAF_COUNTS[:2]),
    "2-d arrays": ([[-1]], [[0.0]], [[[1, 1]]]),
    "a negative count": ([0, -1, -1], [1.0, 0.0, 0.0], [[1, 1], [2, -1], [-1, 2]]),
    "a leaf of no samples": ([0, -1, -1], [1.0, 0.0, 0.0], [[1, 1], [0, 0], [1, 1]]),
    "a total of 2**63": ([-1], [0.0], [[2**62, 2**62]]),
    "split counts off its children's": ([0, -1, -1], [1.0, 0.0, 0.0], [[1, 1], [1, 0], [1, 1]]),
    "root total off the samples": ([-1], [0.0], [[1, 2]]),
}


@pytest.mark.parametrize("arrays", list(MALFORMED_TREES.values()), ids=list(MALFORMED_TREES))
def test_tree_model_rejects_tables_that_are_not_preorder_trees(arrays):
    with pytest.raises(ValueError, match="tree"):
        TreeModel(*arrays, TreeConfig(), 2)


def _summed_counts(attribute):
    """Counts for a preorder table: (1, 0) at every leaf, a split's the
    sum of its children's."""
    right = preorder_right(attribute)
    counts = np.zeros((len(attribute), 2), dtype=np.int64)
    for node in reversed(range(len(attribute))):
        counts[node] = counts[node + 1] + counts[right[node]] if attribute[node] >= 0 else (1, 0)
    return counts


def test_tree_model_accepts_preorder_tables():
    stump = TreeModel([-1], [0.0], [[3, 4]], TreeConfig(), 7)
    assert stump.depth() == 0 and stump.right.tolist() == [0]
    # root splits on h; its left child on s; nodes 2, 3 and 4 are leaves
    model = TreeModel([0, 1, -1, -1, -1], [1.5, 2.5, 0.0, 0.0, 0.0],
                      [[2, 2], [2, 1], [2, 0], [0, 1], [0, 1]], TreeConfig(), 4)
    assert model.right.tolist() == [4, 3, 0, 0, 0]
    assert model.depth() == 2
    hsv = np.array([[1, 2, 0], [1, 3, 0], [2, 0, 0]], dtype=np.uint8)
    assert model.route(hsv).tolist() == [2, 3, 4]


def _peeling_chain(n_splits):
    """A preorder chain whose splits take turns at h, s and v, each sending
    the lowest value left to a leaf and the rest right to the next split."""
    attribute, threshold = [], []
    for step in range(n_splits):
        attribute += [step % 3, -1]
        threshold += [step // 3 + 0.5, 0.0]
    return attribute + [-1], threshold + [0.0]


VACUOUS_SPLITS = {
    "h <= 255 at the root": ([0, -1, -1], [255.0, 0.0, 0.0]),
    "v <= -0.5 at the root": ([2, -1, -1], [-0.5, 0.0, 0.0]),
    "nan": ([1, -1, -1], [np.nan, 0.0, 0.0]),
    "inf": ([1, -1, -1], [np.inf, 0.0, 0.0]),
    "-inf": ([1, -1, -1], [-np.inf, 0.0, 0.0]),
    "a left child at its parent's cut": ([0, 0, -1, -1, -1], [10.5, 10.5, 0.0, 0.0, 0.0]),
    "a right child below its parent's cut": ([0, -1, 0, -1, -1], [10.5, 0.0, 10.0, 0.0, 0.0]),
    "a right child under a left child": ([1, 0, -1, 1, -1, -1, -1],
                                         [100.5, 50.5, 0.0, 100.5, 0.0, 0.0, 0.0]),
    "a 766th split on one path": _peeling_chain(766),
}


@pytest.mark.parametrize("case", list(VACUOUS_SPLITS))
def test_tree_model_rejects_vacuous_splits(case):
    attribute, threshold = VACUOUS_SPLITS[case]
    counts = _summed_counts(attribute)
    with pytest.raises(ValueError, match="vacuous"):
        TreeModel(attribute, threshold, counts, TreeConfig(), int(counts[0].sum()))


def test_tree_model_accepts_splits_that_peel_one_value():
    for attribute, threshold in (([0, -1, -1], [0.0, 0.0, 0.0]), ([0, -1, -1], [254.5, 0.0, 0.0]),
                                 ([0, 0, -1, -1, -1], [10.5, 9.5, 0.0, 0.0, 0.0]),
                                 ([0, -1, 0, -1, -1], [10.5, 0.0, 11.0, 0.0, 0.0])):
        counts = _summed_counts(attribute)
        TreeModel(attribute, threshold, counts, TreeConfig(), int(counts[0].sum()))
    # the deepest tree there can be: each split peels one value off one attribute
    attribute, threshold = _peeling_chain(765)
    counts = _summed_counts(attribute)
    chain = TreeModel(attribute, threshold, counts, TreeConfig(), int(counts[0].sum()))
    assert chain.depth() == 765
    hsv = np.array([[0, 0, 0], [255, 255, 254], [255, 255, 255]], dtype=np.uint8)
    assert chain.route(hsv).tolist() == [1, 2 * 764 + 1, 2 * 765]


# preorder attribute sequences with thresholds that leave both children of
# every split non-empty: a stump, one split, chains down the left and the
# right, and a tree whose right subtree is deeper than its left
HAND_BUILT_TREES = {
    "stump": ([-1], [0.0]),
    "one split": ([2, -1, -1], [99.5, 0.0, 0.0]),
    "left chain": ([0, 1, 2, 0, -1, -1, -1, -1, -1], [100.5, 100.5, 100.5, 50.5] + [0.0] * 5),
    "right chain": ([0, -1, 1, -1, 2, -1, 0, -1, -1], [100.5, 0.0, 100.5, 0.0, 100.5, 0.0,
                                                      150.5, 0.0, 0.0]),
    "mixed": ([0, 1, -1, -1, 2, -1, 0, 1, -1, -1, -1],
              [100.5, 50.5, 0.0, 0.0, 60.5, 0.0, 200.5, 7.5, 0.0, 0.0, 0.0]),
}


@pytest.mark.parametrize("case", list(HAND_BUILT_TREES))
def test_derived_right_children_match_stack_walk_on_hand_built_trees(case):
    attribute, threshold = HAND_BUILT_TREES[case]
    counts = _summed_counts(attribute)
    model = TreeModel(attribute, threshold, counts, TreeConfig(), int(counts[0].sum()))
    assert model.right.tolist() == preorder_right(attribute).tolist()


def test_derived_right_children_match_stack_walk_on_fitted_trees():
    rng = np.random.default_rng(515)
    train = _with_both_classes(_random_hsv(rng, 24, 600))
    for cfg in (TreeConfig(), TreeConfig(min_samples_split=9), TreeConfig(max_depth=0),
                TreeConfig(max_depth=1), TreeConfig(max_depth=4, min_samples_split=3)):
        model = tree_fit(train, cfg)
        assert np.array_equal(model.right, preorder_right(model.attribute.tolist())), cfg
    assert model.attribute.size > 9

def test_probability_contract_across_classifiers():
    rng = np.random.default_rng(5)
    train = _with_both_classes(_random_hsv(rng, 256, 200))
    bayes = bayes_fit(train, alpha=1.0)
    tree = tree_fit(train)
    hsv = rng.integers(0, 256, size=(100, 3), dtype=np.uint8)
    rgb = rng.integers(0, 256, size=(100, 3), dtype=np.uint8)
    for p_skin in (bayes_predict_batch(bayes, hsv), tree_predict_batch(tree, hsv)):
        assert p_skin.shape == (100,) and np.all((0.0 <= p_skin) & (p_skin <= 1.0))
    for pixel in hsv:
        out, _ = bayes_predict(bayes, HsvPixel(*pixel.tolist()))
        assert abs(out.p_skin + out.p_non_skin - 1.0) < 1e-9
    assert set(threshold_scores(rgb).tolist()) <= {0.0, 1.0}
