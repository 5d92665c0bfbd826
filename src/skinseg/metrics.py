"""Evaluation metrics: confusion matrix, scalar measures and ROC/AUC.

Skin is the positive class throughout. Scalar metrics are computed as
exact rationals; any metric whose denominator is zero is reported as
undefined (None), never silently coerced to 0. The report serializes to
a flat, versioned key-value text document.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .dataset import Label

MetricValue = Union[Fraction, float, None]

REPORT_HEADER = "skinseg-report 1"
REPORT_FIELDS = (
    "accuracy",
    "sensitivity",
    "specificity",
    "precision",
    "f1",
    "auc",
    "tp",
    "fp",
    "fn",
    "tn",
)


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        for name in ("tp", "fp", "fn", "tn"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class MetricsReport:
    accuracy: MetricValue
    sensitivity: MetricValue
    specificity: MetricValue
    precision: MetricValue
    f1: MetricValue
    auc: MetricValue = None


@dataclass(frozen=True)
class RocCurve:
    """False- and true-positive rates from (0, 0) to (1, 1), as two arrays."""

    fpr: np.ndarray
    tpr: np.ndarray

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.fpr.tolist(), self.tpr.tolist()))


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


def confusion_from_flags(pred_skin: np.ndarray, true_skin: np.ndarray) -> ConfusionMatrix:
    """confusion over boolean skin-flag arrays (vectorized)."""
    pred_skin = np.asarray(pred_skin, dtype=bool)
    true_skin = np.asarray(true_skin, dtype=bool)
    if pred_skin.shape != true_skin.shape:
        raise ValueError(
            f"flag arrays differ in shape: {pred_skin.shape} vs {true_skin.shape}"
        )
    return ConfusionMatrix(
        tp=int(np.sum(pred_skin & true_skin)),
        fp=int(np.sum(pred_skin & ~true_skin)),
        fn=int(np.sum(~pred_skin & true_skin)),
        tn=int(np.sum(~pred_skin & ~true_skin)),
    )


def _ratio(num: int, den: int) -> Optional[Fraction]:
    return None if den == 0 else Fraction(num, den)


def scalar_metrics(m: ConfusionMatrix, auc: MetricValue = None) -> MetricsReport:
    """Accuracy, sensitivity, specificity, precision and F1 as exact rationals.

    accuracy = (tp+tn)/N, sensitivity = tp/(tp+fn), specificity =
    tn/(tn+fp), precision = tp/(tp+fp), f1 the harmonic mean of precision
    and sensitivity. Zero denominators yield None for that metric.
    """
    sensitivity = _ratio(m.tp, m.tp + m.fn)
    precision = _ratio(m.tp, m.tp + m.fp)
    if sensitivity is None or precision is None or precision + sensitivity == 0:
        f1 = None
    else:
        f1 = 2 * precision * sensitivity / (precision + sensitivity)
    return MetricsReport(
        accuracy=_ratio(m.tp + m.tn, m.total),
        sensitivity=sensitivity,
        specificity=_ratio(m.tn, m.tn + m.fp),
        precision=precision,
        f1=f1,
        auc=auc,
    )


def format_percent(value: MetricValue) -> str:
    """Render a metric the way the result tables do: 2-decimal percent."""
    if value is None:
        return "undefined"
    return f"{float(value) * 100:.2f}%"


def roc_auc(scores: Sequence[float], labels: Sequence[Label]) -> tuple[RocCurve, float]:
    """ROC curve and its trapezoidal area.

    Thresholds sweep the distinct scores in descending order, predicting
    skin at score >= threshold; equal scores flip together. The curve is
    anchored at (0, 0) and (1, 1). Raises when either class is absent or
    a score is NaN.
    """
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.array([lab is Label.SKIN for lab in labels], dtype=bool)
    if scores.shape[0] != truth.shape[0]:
        raise ValueError(
            f"scores and labels differ in length: {scores.shape[0]} vs {truth.shape[0]}"
        )
    n_pos = int(truth.sum())
    n_neg = truth.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC needs at least one positive and one negative label")
    if np.isnan(scores).any():
        raise ValueError("ROC scores must not be NaN")

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    # the last row of each tie group: every threshold flips a whole group
    ends = np.flatnonzero(np.append(sorted_scores[1:] != sorted_scores[:-1], True))
    tp = np.cumsum(truth[order])[ends]
    fpr = np.concatenate(([0.0], (ends + 1 - tp) / n_neg))
    tpr = np.concatenate(([0.0], tp / n_pos))
    # cumsum adds left to right, as a running total would
    auc = float(np.cumsum((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1]) / 2.0)[-1])
    return RocCurve(fpr=fpr, tpr=tpr), auc


def _format_value(value) -> str:
    if value is None:
        return "undefined"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def format_report(report: MetricsReport, matrix: ConfusionMatrix) -> str:
    """Serialize to the flat key-value document (version 1).

    One ``key value`` pair per line; metrics as repr'd doubles or
    ``undefined``, counts as integers.
    """
    values = {
        "accuracy": report.accuracy,
        "sensitivity": report.sensitivity,
        "specificity": report.specificity,
        "precision": report.precision,
        "f1": report.f1,
        "auc": report.auc,
        "tp": matrix.tp,
        "fp": matrix.fp,
        "fn": matrix.fn,
        "tn": matrix.tn,
    }
    lines = [REPORT_HEADER]
    for key in REPORT_FIELDS:
        lines.append(f"{key} {_format_value(values[key])}")
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> tuple[MetricsReport, ConfusionMatrix]:
    """Parse the key-value document back; blank and '#' lines are ignored."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines or lines[0].strip() != REPORT_HEADER:
        raise ValueError(f"not a recognized report document: {lines[:1]!r}")
    values = {}
    for ln in lines[1:]:
        parts = ln.split(None, 1)
        if len(parts) != 2:
            raise ValueError(f"malformed report line: {ln!r}")
        values[parts[0]] = parts[1].strip()
    missing = [k for k in REPORT_FIELDS if k not in values]
    if missing:
        raise ValueError(f"report missing fields: {missing}")

    def metric(key):
        raw = values[key]
        return None if raw == "undefined" else float(raw)

    report = MetricsReport(
        accuracy=metric("accuracy"),
        sensitivity=metric("sensitivity"),
        specificity=metric("specificity"),
        precision=metric("precision"),
        f1=metric("f1"),
        auc=metric("auc"),
    )
    matrix = ConfusionMatrix(
        tp=int(values["tp"]), fp=int(values["fp"]), fn=int(values["fn"]), tn=int(values["tn"])
    )
    return report, matrix
