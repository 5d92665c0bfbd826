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
    TreeConfig,
    bayes_fit,
    bayes_predict,
    bayes_predict_batch,
    threshold_classify,
    threshold_scores,
    tree_fit,
    tree_predict,
    tree_predict_batch,
)
from skinseg.colorspace import HsvPixel, RgbPixel, YcbcrPixel
from skinseg.dataset import HsvSample, Label


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
    assert box.contains(YcbcrPixel(100, 160, 90))
    assert not box.contains(YcbcrPixel(100, 140, 90))  # Cr below 147
    assert not box.contains(YcbcrPixel(100, 160, 130))  # Cb above 127


def test_threshold_classify_known_pixels():
    # white -> YCrCb (255, 128, 128): Cr below range and Cb above
    assert threshold_classify(RgbPixel(255, 255, 255)).label is Label.NON_SKIN
    # a warm skin tone lands inside the box: (210,140,120) -> (159, 165, 106)
    assert threshold_classify(RgbPixel(210, 140, 120)).label is Label.SKIN
    out = threshold_classify(RgbPixel(210, 140, 120))
    assert (out.p_skin, out.p_non_skin) == (1.0, 0.0)


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
    model = bayes_fit(train, alpha=1.0)
    hsv = rng.integers(0, 256, size=(400, 3), dtype=np.uint8)
    batch = bayes_predict_batch(model, hsv)
    for i in range(hsv.shape[0]):
        single = bayes_predict(model, HsvPixel(int(hsv[i, 0]), int(hsv[i, 1]), int(hsv[i, 2])))
        assert batch[i] == pytest.approx(single.p_skin, abs=1e-12)


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
    for s in train:
        out = tree_predict(model, HsvPixel(s.h, s.s, s.v))
        assert out.label is s.label


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
    out = tree_predict(model, HsvPixel(9, 9, 9))
    assert (out.p_skin, out.p_non_skin) == (0.75, 0.25)


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
    for _ in range(100):
        pixel = HsvPixel(int(rng.integers(0, 256)), int(rng.integers(0, 256)),
                         int(rng.integers(0, 256)))
        for out in (bayes_predict(bayes, pixel), tree_predict(tree, pixel)):
            assert abs(out.p_skin + out.p_non_skin - 1.0) < 1e-9
        rgb = RgbPixel(int(rng.integers(0, 256)), int(rng.integers(0, 256)),
                       int(rng.integers(0, 256)))
        out = threshold_classify(rgb)
        assert out.p_skin + out.p_non_skin == 1.0
