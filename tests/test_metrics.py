"""Metrics: exact rational measures, ROC/AUC and the report document."""

from fractions import Fraction

import numpy as np
import pytest

from skinseg.dataset import Label
from skinseg.metrics import (
    REPORT_HEADER,
    ConfusionMatrix,
    confusion_from_flags,
    format_percent,
    format_report,
    parse_report,
    roc_auc,
    scalar_metrics,
)

from oracles import confusion

# Reference confusion counts from the two published result tables of the
# neural-network run (with and without neighbourhood refinement).
REFINED = ConfusionMatrix(tp=19745, fp=1097, fn=1333, tn=67714)
UNREFINED = ConfusionMatrix(tp=19005, fp=4010, fn=2073, tn=64801)


def _pp_close(value, printed_percent, tol=0.005):
    """|value*100 - printed| <= tol percentage points."""
    return abs(float(value) * 100.0 - printed_percent) <= tol


def test_refined_table_exact_fractions():
    r = scalar_metrics(REFINED)
    assert r.accuracy == Fraction(87459, 89889)
    assert r.sensitivity == Fraction(19745, 21078)
    assert r.specificity == Fraction(67714, 68811)
    assert r.precision == Fraction(19745, 20842)
    # harmonic mean collapses to 2*tp / (2*tp + fp + fn)
    assert r.f1 == Fraction(2 * 19745, 2 * 19745 + 1097 + 1333)


def test_refined_table_matches_printed_percentages():
    r = scalar_metrics(REFINED)
    assert _pp_close(r.sensitivity, 93.68)
    assert _pp_close(r.specificity, 98.41)
    assert _pp_close(r.precision, 94.74)
    assert _pp_close(r.f1, 94.20)
    # the accuracy recomputed from the counts is what we trust: 97.30
    assert format_percent(r.accuracy) == "97.30%"


def test_unrefined_table_accuracy():
    r = scalar_metrics(UNREFINED)
    assert r.accuracy == Fraction(83806, 89889)
    assert _pp_close(r.accuracy, 93.23)


def test_confusion_matrix_total_and_validation():
    assert REFINED.total == 89889
    with pytest.raises(ValueError):
        ConfusionMatrix(tp=-1, fp=0, fn=0, tn=0)


def test_confusion_counts_small_example():
    predicted = [True, True, False, False, True]  # skin flags
    actual = [True, False, True, False, True]
    m = confusion_from_flags(np.array(predicted), np.array(actual))
    assert (m.tp, m.fp, m.fn, m.tn) == (2, 1, 1, 1)


def test_confusion_matches_pair_counting_oracle():
    rng = np.random.default_rng(77)
    labels = [Label.SKIN, Label.NON_SKIN]
    for _ in range(20):
        n = int(rng.integers(1, 200))
        predicted = [labels[i] for i in rng.integers(0, 2, size=n)]
        actual = [labels[i] for i in rng.integers(0, 2, size=n)]
        m = confusion_from_flags(*(np.array([lab is Label.SKIN for lab in seq], dtype=bool)
                                   for seq in (predicted, actual)))
        pairs = list(zip(predicted, actual))
        assert m.tp == pairs.count((Label.SKIN, Label.SKIN))
        assert m.fp == pairs.count((Label.SKIN, Label.NON_SKIN))
        assert m.fn == pairs.count((Label.NON_SKIN, Label.SKIN))
        assert m.tn == pairs.count((Label.NON_SKIN, Label.NON_SKIN))
        assert m.total == n


def test_confusion_length_mismatch():
    with pytest.raises(ValueError):
        confusion_from_flags(np.array([True]), np.array([True, True]))


def test_confusion_from_flags_agrees_with_label_version():
    rng = np.random.default_rng(5)
    pred = rng.random(500) < 0.4
    true = rng.random(500) < 0.5
    m = confusion_from_flags(pred, true)
    as_labels = lambda flags: [Label.SKIN if f else Label.NON_SKIN for f in flags]
    assert m == confusion(as_labels(pred), as_labels(true))
    with pytest.raises(ValueError):
        confusion_from_flags(pred[:10], true)


def test_label_swap_exchanges_sensitivity_and_specificity():
    m = ConfusionMatrix(tp=7, fp=3, fn=2, tn=11)
    swapped = ConfusionMatrix(tp=m.tn, fp=m.fn, fn=m.fp, tn=m.tp)
    a, b = scalar_metrics(m), scalar_metrics(swapped)
    assert a.sensitivity == b.specificity
    assert a.specificity == b.sensitivity
    assert a.accuracy == b.accuracy


def test_perfect_matrix_all_ones():
    r = scalar_metrics(ConfusionMatrix(tp=10, fp=0, fn=0, tn=20))
    assert r.accuracy == 1 and r.sensitivity == 1 and r.specificity == 1
    assert r.precision == 1 and r.f1 == 1


def test_zero_denominators_are_undefined():
    # no actual positives and no predicted positives
    r = scalar_metrics(ConfusionMatrix(tp=0, fp=0, fn=0, tn=10))
    assert r.sensitivity is None and r.precision is None and r.f1 is None
    assert r.accuracy == 1 and r.specificity == 1
    # predicted positives exist but every one is wrong, and vice versa:
    # precision and sensitivity are both 0, so F1's denominator vanishes
    r = scalar_metrics(ConfusionMatrix(tp=0, fp=4, fn=6, tn=0))
    assert r.sensitivity == 0 and r.precision == 0 and r.f1 is None
    assert r.specificity == 0 and r.accuracy == 0
    # empty matrix: everything undefined
    r = scalar_metrics(ConfusionMatrix(tp=0, fp=0, fn=0, tn=0))
    assert r.accuracy is None


def test_format_percent():
    assert format_percent(Fraction(1, 3)) == "33.33%"
    assert format_percent(None) == "undefined"
    assert format_percent(1) == "100.00%"


# ---------------------------------------------------------------- ROC / AUC


def _mann_whitney_auc(scores, labels):
    """(#strictly-ranked pairs + half the tied pairs) / (pos * neg)."""
    pos = [s for s, lab in zip(scores, labels) if lab is Label.SKIN]
    neg = [s for s, lab in zip(scores, labels) if lab is Label.NON_SKIN]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def test_roc_perfect_and_inverted():
    labels = [Label.SKIN, Label.SKIN, Label.NON_SKIN, Label.NON_SKIN]
    _, auc = roc_auc([0.9, 0.8, 0.2, 0.1], labels)
    assert auc == 1.0
    _, auc = roc_auc([0.1, 0.2, 0.8, 0.9], labels)
    assert auc == 0.0


def test_roc_all_scores_identical_gives_half():
    labels = [Label.SKIN, Label.NON_SKIN, Label.SKIN, Label.NON_SKIN]
    curve, auc = roc_auc([0.5, 0.5, 0.5, 0.5], labels)
    assert auc == 0.5
    assert curve.points == ((0.0, 0.0), (1.0, 1.0))


def test_roc_hand_worked_example():
    labels = [Label.SKIN, Label.NON_SKIN, Label.SKIN, Label.NON_SKIN]
    curve, auc = roc_auc([0.9, 0.8, 0.7, 0.6], labels)
    assert curve.points == (
        (0.0, 0.0),
        (0.0, 0.5),
        (0.5, 0.5),
        (0.5, 1.0),
        (1.0, 1.0),
    )
    assert auc == pytest.approx(0.75, abs=1e-15)


def test_roc_rejects_scores_and_labels_of_different_lengths():
    with pytest.raises(ValueError, match="scores and labels differ in length: 1 vs 2"):
        roc_auc([0.3], [Label.SKIN, Label.NON_SKIN])


def test_roc_single_class_raises():
    with pytest.raises(ValueError):
        roc_auc([0.3, 0.4], [Label.SKIN, Label.SKIN])
    with pytest.raises(ValueError):
        roc_auc([0.3, 0.4], [Label.NON_SKIN, Label.NON_SKIN])


def test_roc_curve_is_anchored_and_monotone():
    rng = np.random.default_rng(21)
    scores = rng.random(60)
    labels = [Label.SKIN if rng.random() < 0.5 else Label.NON_SKIN for _ in range(60)]
    if Label.SKIN not in labels:
        labels[0] = Label.SKIN
    if Label.NON_SKIN not in labels:
        labels[1] = Label.NON_SKIN
    curve, _ = roc_auc(scores, labels)
    assert curve.points[0] == (0.0, 0.0)
    assert curve.points[-1] == (1.0, 1.0)
    xs = [p[0] for p in curve.points]
    ys = [p[1] for p in curve.points]
    assert xs == sorted(xs) and ys == sorted(ys)


def test_roc_matches_mann_whitney_with_ties():
    """Trapezoid area equals rank-pair counting on ~100 random instances."""
    rng = np.random.default_rng(999)
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 60))
        if rng.random() < 0.5:
            scores = rng.random(n)
        else:  # quantized scores force heavy tie groups
            scores = rng.integers(0, 4, size=n) / 3.0
        flags = rng.random(n) < 0.5
        if flags.all() or not flags.any():
            continue
        labels = [Label.SKIN if f else Label.NON_SKIN for f in flags]
        _, auc = roc_auc(scores, labels)
        assert auc == pytest.approx(_mann_whitney_auc(scores, labels), abs=1e-12)
        checked += 1


def test_roc_invariant_under_monotone_transform():
    rng = np.random.default_rng(404)
    scores = rng.integers(0, 10, size=80) / 9.0
    flags = rng.random(80) < 0.4
    flags[0], flags[1] = True, False
    labels = [Label.SKIN if f else Label.NON_SKIN for f in flags]
    curve_a, auc_a = roc_auc(scores, labels)
    curve_b, auc_b = roc_auc(3.0 * scores + 1.0, labels)
    assert curve_a.points == curve_b.points
    assert auc_a == auc_b


def _loop_roc_auc(scores, labels):
    """The per-group sweep and running trapezoid sum roc_auc used to run."""
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.array([lab is Label.SKIN for lab in labels], dtype=bool)
    n_pos = int(truth.sum())
    n_neg = truth.size - n_pos
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_truth = truth[order]
    points = [(0.0, 0.0)]
    tp = fp = 0
    i = 0
    n = scores.shape[0]
    while i < n:
        j = i
        while j < n and sorted_scores[j] == sorted_scores[i]:
            j += 1
        group = sorted_truth[i:j]
        tp += int(group.sum())
        fp += group.size - int(group.sum())
        points.append((fp / n_neg, tp / n_pos))
        i = j
    auc = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        auc += (x1 - x0) * (y1 + y0) / 2.0
    return tuple(points), auc


@pytest.mark.parametrize("levels", [None, 2, 5, 50, 1000])
def test_roc_matches_loop_oracle_bit_for_bit(levels):
    rng = np.random.default_rng(7 if levels is None else levels)
    for n in (2, 3, 17, 4000):
        scores = rng.random(n) if levels is None else rng.integers(0, levels, size=n) / levels
        flags = rng.random(n) < 0.3
        flags[0], flags[1] = True, False
        labels = [Label.SKIN if f else Label.NON_SKIN for f in flags]
        curve, auc = roc_auc(scores, labels)
        points, expect = _loop_roc_auc(scores, labels)
        assert curve.points == points
        assert auc == expect


@pytest.mark.parametrize("levels", [1, 2, 3, 300])
def test_roc_ignores_row_order_within_tie_groups(levels):
    """Shuffling the rows of a heavy-tie input, and so the order inside each
    tie group, gives the same curve and AUC bytes."""
    rng = np.random.default_rng(33 + levels)
    for n in (2, 17, 5000, 20000):
        scores = rng.integers(0, levels, size=n) / levels
        flags = rng.random(n) < 0.3
        flags[0], flags[1] = True, False
        labels = np.where(flags, Label.SKIN, Label.NON_SKIN)
        curve, auc = roc_auc(scores, labels)
        for _ in range(5):
            perm = rng.permutation(n)
            other_curve, other_auc = roc_auc(scores[perm], labels[perm])
            assert other_curve.fpr.tobytes() == curve.fpr.tobytes()
            assert other_curve.tpr.tobytes() == curve.tpr.tobytes()
            assert other_auc.hex() == auc.hex()


def test_roc_rejects_nan_scores():
    with pytest.raises(ValueError, match="NaN"):
        roc_auc([0.3, float("nan")], [Label.SKIN, Label.NON_SKIN])


def test_roc_reads_a_list_a_tuple_and_an_object_array_alike():
    rng = np.random.default_rng(4)
    scores = rng.integers(0, 7, size=300) / 6.0
    truth = rng.random(300) < 0.5
    labels = [Label.SKIN if t else Label.NON_SKIN for t in truth]
    as_array = np.where(truth, Label.SKIN, Label.NON_SKIN)
    assert as_array.dtype == object
    curve, auc = roc_auc(scores, labels)
    for other in (tuple(labels), as_array):
        other_curve, other_auc = roc_auc(scores, other)
        assert other_curve.fpr.tobytes() == curve.fpr.tobytes()
        assert other_curve.tpr.tobytes() == curve.tpr.tobytes()
        assert other_auc == auc


# ------------------------------------------------------------ report format


def test_report_round_trip():
    matrix = REFINED
    report = scalar_metrics(matrix, auc=0.9931234567890123)
    text = format_report(report, matrix)
    lines = text.splitlines()
    assert lines[0] == REPORT_HEADER
    assert len(lines) == 11
    parsed_report, parsed_matrix = parse_report(text)
    assert parsed_matrix == matrix
    assert parsed_report.accuracy == float(report.accuracy)
    assert parsed_report.f1 == float(report.f1)
    assert parsed_report.auc == 0.9931234567890123  # repr round-trips doubles


def test_report_undefined_round_trip():
    matrix = ConfusionMatrix(tp=0, fp=0, fn=0, tn=4)
    text = format_report(scalar_metrics(matrix), matrix)
    assert "sensitivity undefined" in text
    assert "auc undefined" in text
    parsed_report, parsed_matrix = parse_report(text)
    assert parsed_report.sensitivity is None and parsed_report.auc is None
    assert parsed_matrix.tn == 4


def test_report_parse_ignores_comments_and_blanks():
    matrix = ConfusionMatrix(tp=1, fp=2, fn=3, tn=4)
    text = format_report(scalar_metrics(matrix), matrix)
    noisy = "# preamble\n\n" + text.replace("tp 1", "tp 1\n# interleaved note\n")
    _, parsed_matrix = parse_report(noisy)
    assert parsed_matrix == matrix


def test_report_parse_rejects_bad_documents():
    matrix = ConfusionMatrix(tp=1, fp=2, fn=3, tn=4)
    text = format_report(scalar_metrics(matrix), matrix)
    with pytest.raises(ValueError):
        parse_report("wrong-header 1\n" + text.split("\n", 1)[1])
    with pytest.raises(ValueError):
        parse_report(text.replace("fn 3\n", ""))  # missing field
    with pytest.raises(ValueError):
        parse_report("")
    with pytest.raises(ValueError, match="malformed report line: 'fn'"):
        parse_report(text.replace("fn 3\n", "fn\n"))  # a key without a value
