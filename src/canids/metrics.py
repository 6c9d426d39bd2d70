"""Binary detection metrics with anomaly as the positive class.

Ratio metrics return None (never a silent 0) when their denominator is
zero; reports render that as an em-dash. ROC AUC is the mid-rank
Mann-Whitney statistic: P(score+ > score-) + 0.5 * P(score+ = score-).

The cut-off rule turns any detector's scores into a decision threshold:
percentile_cutoff is gamma times the p-th percentile of normal scores, and
tune_cutoff picks the (p, gamma) point of CUTOFF_GRID with the best F1 on
labeled validation scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateLabels,
    DegenerateValidation,
    EmptyLosses,
    LengthMismatch,
)


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class ScoredLabels:
    """Parallel (anomaly score, truth) sequences feeding ROC AUC."""

    scores: np.ndarray
    truth: np.ndarray

    def __post_init__(self):
        if len(self.scores) != len(self.truth):
            raise LengthMismatch(
                f"{len(self.scores)} scores vs {len(self.truth)} labels"
            )


def confusion(predicted, truth) -> ConfusionCounts:
    """Tally each index into exactly one of tp/tn/fp/fn (anomaly = 1)."""
    pred = np.asarray(predicted, dtype=np.int64)
    true = np.asarray(truth, dtype=np.int64)
    if pred.shape != true.shape:
        raise LengthMismatch(f"{pred.shape} predictions vs {true.shape} labels")
    tp = int(np.sum((pred == 1) & (true == 1)))
    tn = int(np.sum((pred == 0) & (true == 0)))
    fp = int(np.sum((pred == 1) & (true == 0)))
    fn = int(np.sum((pred == 0) & (true == 1)))
    return ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)


def _ratio(num: int, den: int) -> float | None:
    return num / den if den else None


def accuracy(c: ConfusionCounts) -> float | None:
    return _ratio(c.tp + c.tn, c.total)


def precision(c: ConfusionCounts) -> float | None:
    return _ratio(c.tp, c.tp + c.fp)


def recall(c: ConfusionCounts) -> float | None:
    return _ratio(c.tp, c.tp + c.fn)


def tpr(c: ConfusionCounts) -> float | None:
    """Recall; acceptance criterion 1 checks the paper's TPR through it."""
    return recall(c)


def tnr(c: ConfusionCounts) -> float | None:
    """tn / (tn + fp); acceptance criterion 1 checks the paper's TNR
    through it."""
    return _ratio(c.tn, c.tn + c.fp)


def f1(c: ConfusionCounts) -> float | None:
    p = precision(c)
    r = recall(c)
    if p is None or r is None or p + r == 0:
        return None
    return 2 * p * r / (p + r)


def f1_from_pr(p: float, r: float) -> float | None:
    """Harmonic mean of an externally supplied (precision, recall) pair;
    acceptance criterion 1 checks the paper's F1 definition through it."""
    if p + r == 0:
        return None
    return 2 * p * r / (p + r)


def roc_auc(scored: ScoredLabels) -> float:
    """Rank-based AUC with mid-rank tie handling.

    Sort scores ascending, assign tied scores the mean of their ranks, and
    evaluate (R+ - n+(n+ + 1)/2) / (n+ n-) where R+ sums positive ranks.
    """
    scores = np.asarray(scored.scores, dtype=np.float64)
    truth = np.asarray(scored.truth, dtype=np.int64)
    n_pos = int(np.sum(truth == 1))
    n_neg = int(np.sum(truth == 0))
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabels("AUC needs at least one positive and one negative")
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    # a run of ties starts where a sorted score differs from the one before
    # it, so each NaN is a run of its own; 1-based ranks start + 1 .. end
    # share the mid-rank
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    ends = np.r_[starts[1:], len(scores)]
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    rank_sum_pos = float(np.sum(ranks[truth == 1]))
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


# (p, gamma) points, gamma-major, so that the first best point is the one
# with the smallest gamma, then the smallest p
CUTOFF_GRID = tuple((p, g) for g in (0.5, 0.75, 1.0, 1.25, 1.5, 2.0)
                    for p in (90.0, 95.0, 99.0, 99.5))


def percentile_cutoff(normal_scores, p: float, gamma: float) -> float:
    """gamma times the p-th percentile (linear rank interpolation) of the
    scores of normal rows."""
    arr = np.asarray(normal_scores, dtype=np.float64)
    if arr.size == 0:
        raise EmptyLosses("a cut-off needs at least one normal score")
    return float(gamma * np.percentile(arr, p))


def tune_cutoff(scores, labels, grid=CUTOFF_GRID
                ) -> tuple[tuple[float, float], float, float]:
    """The (p, gamma) point of grid whose cut-off gives the best F1 on
    validation rows with these scores and 0/1 labels, that cut-off and
    that F1. Percentiles are taken over the rows labeled normal, a row is
    an anomaly iff its score > the cut-off, an undefined F1 counts as
    -1.0, and ties go to the smaller gamma, then the smaller p."""
    scores, y = np.asarray(scores, dtype=np.float64), np.asarray(labels)
    if not (np.any(y == 0) and np.any(y == 1)):
        raise DegenerateValidation("validation needs both classes")
    grid = sorted(grid, key=lambda pg: (pg[1], pg[0]))
    if not grid:
        raise DegenerateValidation("cut-off grid is empty")
    normal, rated = scores[y == 0], []
    for p, gamma in grid:
        cut = percentile_cutoff(normal, p, gamma)
        score = f1(confusion(scores > cut, y))
        rated.append(((p, gamma), cut, -1.0 if score is None else score))
    return max(rated, key=lambda r: r[2])  # the first best point


def format_metric(value: float | None, places: int = 4) -> str:
    """Report rendering: fixed decimals, em-dash for undefined."""
    if value is None:
        return "—"
    return f"{value:.{places}f}"
