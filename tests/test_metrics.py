from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canids.errors import (
    ConfigError,
    DegenerateLabels,
    DegenerateValidation,
    EmptyLosses,
    LengthMismatch,
)
from canids.metrics import (
    CUTOFF_GRID,
    ConfusionCounts,
    ScoredLabels,
    accuracy,
    confusion,
    f1,
    f1_from_pr,
    format_metric,
    percentile_cutoff,
    precision,
    recall,
    roc_auc,
    tnr,
    tpr,
    tune_cutoff,
)


def brute_force_auc(scores, truth) -> float:
    """Independent oracle: count wins and half-credit ties over all
    (positive, negative) pairs."""
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(truth)
    pos = scores[truth == 1]
    neg = scores[truth == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def test_confusion_simple():
    assert confusion([1, 0], [1, 0]) == ConfusionCounts(tp=1, tn=1, fp=0, fn=0)


def test_confusion_all_cells():
    c = confusion([1, 1, 0, 0], [0, 1, 1, 0])
    assert c == ConfusionCounts(tp=1, tn=1, fp=1, fn=1)


def test_confusion_cells_sum_to_total():
    rng = np.random.default_rng(0)
    pred = rng.integers(0, 2, size=1000)
    truth = rng.integers(0, 2, size=1000)
    c = confusion(pred, truth)
    assert c.total == 1000
    # recount oracle
    assert c.tp == sum(1 for p, t in zip(pred, truth) if p == 1 and t == 1)


def test_confusion_length_mismatch():
    with pytest.raises(LengthMismatch):
        confusion([1, 0], [1])


def test_f1_recomputes_reported_pairs():
    # published precision/recall pairs must reproduce their printed F1
    assert f1_from_pr(0.6591, 0.8805) == pytest.approx(0.7539, abs=1e-4)
    assert f1_from_pr(0.9853, 0.9193) == pytest.approx(0.9512, abs=1e-4)


def test_all_correct_gives_ones():
    c = ConfusionCounts(tp=10, tn=20, fp=0, fn=0)
    for metric in (accuracy, precision, recall, f1, tpr, tnr):
        assert metric(c) == 1.0


def test_undefined_metrics_return_none():
    assert precision(ConfusionCounts(tp=0, tn=5, fp=0, fn=5)) is None
    assert recall(ConfusionCounts(tp=0, tn=5, fp=5, fn=0)) is None
    assert tnr(ConfusionCounts(tp=5, tn=0, fp=0, fn=5)) is None
    assert accuracy(ConfusionCounts()) is None
    # precision=0 and recall=0: harmonic mean undefined
    assert f1(ConfusionCounts(tp=0, tn=1, fp=1, fn=1)) is None


def test_metric_identities_on_random_counts():
    rng = np.random.default_rng(1)
    for _ in range(300):
        tp, tn, fp, fn = (int(v) for v in rng.integers(0, 40, size=4))
        c = ConfusionCounts(tp, tn, fp, fn)
        if c.total:
            assert accuracy(c) == (tp + tn) / (tp + tn + fp + fn)
        p, r = precision(c), recall(c)
        if p is not None and r is not None and p + r > 0:
            assert f1(c) == pytest.approx(2 * p * r / (p + r), abs=1e-15)
        assert tpr(c) == recall(c)


def test_flip_predictions_swaps_tpr_tnr():
    rng = np.random.default_rng(2)
    for _ in range(200):
        pred = rng.integers(0, 2, size=50)
        truth = rng.integers(0, 2, size=50)
        c = confusion(pred, truth)
        c_flip = confusion(1 - pred, truth)
        t = tpr(c)
        if t is not None:
            assert tpr(c_flip) == pytest.approx(1 - t)
        n = tnr(c)
        if n is not None:
            assert tnr(c_flip) == pytest.approx(1 - n)


def test_auc_perfect_separation():
    s = ScoredLabels(np.array([0.9, 0.8, 0.1, 0.2]), np.array([1, 1, 0, 0]))
    assert roc_auc(s) == 1.0


def test_auc_all_ties():
    s = ScoredLabels(np.full(10, 0.5), np.array([1] * 5 + [0] * 5))
    assert roc_auc(s) == 0.5


def test_auc_mixed_example():
    # pairs: (0.9,0.6) win, (0.9,0.1) win, (0.4,0.6) loss, (0.4,0.1) win
    s = ScoredLabels(np.array([0.9, 0.4, 0.6, 0.1]), np.array([1, 1, 0, 0]))
    assert roc_auc(s) == 0.75
    assert roc_auc(s) == brute_force_auc(s.scores, s.truth)


def test_auc_matches_pair_counting_oracle():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(2, 200))
        truth = rng.integers(0, 2, size=n)
        if truth.min() == truth.max():
            truth[0] = 1 - truth[0]
        # quantized scores force plenty of ties
        scores = np.round(rng.random(n), 1)
        s = ScoredLabels(scores, truth)
        assert abs(roc_auc(s) - brute_force_auc(scores, truth)) < 1e-12


def loop_auc(scores, truth) -> float:
    """Oracle: roc_auc as one Python loop over the runs of equal sorted
    scores, where NaN equals nothing and so is a run of its own."""
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.int64)
    n_pos, n_neg = int(np.sum(truth == 1)), int(np.sum(truth == 0))
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j + 2) / 2.0
        i = j + 1
    rank_sum_pos = float(np.sum(ranks[truth == 1]))
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def test_auc_bit_identical_to_loop_oracle_with_nan_zero_and_inf_ties():
    rng = np.random.default_rng(11)
    pool = np.array([np.nan, 0.0, -0.0, np.inf, -np.inf, 1.0, -1.0, 0.5])
    for _ in range(1000):
        n = int(rng.integers(2, 60))
        truth = rng.integers(0, 2, size=n)
        truth[:2] = [0, 1]
        scores = np.where(rng.random(n) < 0.7, rng.choice(pool, size=n),
                          rng.normal(size=n))
        want = loop_auc(scores, truth)
        got = roc_auc(ScoredLabels(scores, truth))
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(4)
    scores = rng.random(150)
    truth = rng.integers(0, 2, size=150)
    truth[:2] = [0, 1]
    base = roc_auc(ScoredLabels(scores, truth))
    for transform in (lambda s: 3 * s + 2, np.exp, lambda s: s ** 3):
        assert roc_auc(ScoredLabels(transform(scores), truth)) == \
            pytest.approx(base, abs=1e-12)


def test_auc_degenerate_labels():
    with pytest.raises(DegenerateLabels):
        roc_auc(ScoredLabels(np.array([0.1, 0.2]), np.array([1, 1])))


def test_scored_labels_length_check():
    with pytest.raises(LengthMismatch):
        ScoredLabels(np.array([0.1]), np.array([1, 0]))


def test_format_metric():
    assert format_metric(0.75391) == "0.7539"
    assert format_metric(None) == "—"


# --- cut-off rule oracle --------------------------------------------------------

@dataclass(frozen=True)
class ThresholdConfig:
    """Anomaly threshold = gamma * (p-th percentile of normal losses)."""

    p: float = 95.0
    gamma: float = 1.0

    def __post_init__(self):
        if not 0 < self.p <= 100:
            raise ConfigError("percentile must lie in (0, 100]")
        if self.gamma < 0:
            raise ConfigError("gamma must be >= 0")


DEFAULT_THRESHOLD_GRID = tuple(
    (p, g)
    for p in (90.0, 95.0, 99.0, 99.5)
    for g in (0.5, 0.75, 1.0, 1.25, 1.5, 2.0)
)


def ref_compute_threshold(losses, tc: ThresholdConfig) -> float:
    """gamma times the p-th percentile (linear rank interpolation)."""
    arr = np.asarray(losses, dtype=np.float64)
    if arr.size == 0:
        raise EmptyLosses("threshold needs at least one loss value")
    return float(tc.gamma * np.percentile(arr, tc.p))


def ref_tune_threshold(
    losses: np.ndarray,
    labels,
    grid=DEFAULT_THRESHOLD_GRID,
) -> tuple[ThresholdConfig, float]:
    """Oracle: the (p, gamma) grid point with the best F1, every point
    compared with the best so far. Ties go to smaller gamma, then smaller
    p. Returns (config, F1), F1 being -1.0 if every grid point was
    undefined."""
    y = np.asarray(labels)
    if not (np.any(y == 0) and np.any(y == 1)):
        raise DegenerateValidation("validation needs both classes")
    grid = list(grid)
    if not grid:
        raise DegenerateValidation("threshold grid is empty")
    normal_losses = losses[y == 0]
    best_cfg: ThresholdConfig | None = None
    best_f1 = -1.0
    for p, gamma in grid:
        tc = ThresholdConfig(p=p, gamma=gamma)
        thr = ref_compute_threshold(normal_losses, tc)
        pred = (losses > thr).astype(np.int8)
        score = f1(confusion(pred, y))
        score = -1.0 if score is None else score
        if best_cfg is None:
            best_cfg, best_f1 = tc, score
            continue
        better = score > best_f1
        tie = score == best_f1 and (gamma, p) < (best_cfg.gamma, best_cfg.p)
        if better or tie:
            best_cfg, best_f1 = tc, score
    return best_cfg, best_f1


@st.composite
def labeled_scores(draw):
    """(scores, 0/1 labels) holding both classes: floats of any sign, or
    small integers that tie heavily."""
    n = draw(st.integers(2, 60))
    values = draw(st.one_of(
        st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n),
        st.lists(st.integers(0, 3).map(float), min_size=n, max_size=n)))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    labels[:2] = [0, 1]
    order = draw(st.permutations(range(n)))
    return np.array(values), np.array(labels, dtype=np.int8)[order]


_GRIDS = st.one_of(
    st.just(CUTOFF_GRID),
    st.permutations(CUTOFF_GRID),
    st.lists(st.tuples(st.sampled_from([50.0, 90.0, 95.0, 99.5, 100.0]),
                       st.sampled_from([0.0, 0.5, 1.0, 1.25, 2.0])),
             min_size=1, max_size=12))


@settings(max_examples=300, deadline=None)
@given(labeled_scores(), _GRIDS)
def test_tune_cutoff_matches_the_old_rule(data, grid):
    scores, labels = data
    want, want_f1 = ref_tune_threshold(scores, labels, grid)
    want_cut = ref_compute_threshold(scores[labels == 0], want)
    point, cut, got_f1 = tune_cutoff(scores, labels, grid)
    assert point == (want.p, want.gamma)
    assert np.float64(cut).tobytes() == np.float64(want_cut).tobytes()
    assert got_f1 == want_f1


def test_cutoff_grid_is_the_old_grid_gamma_major():
    assert CUTOFF_GRID == tuple(sorted(DEFAULT_THRESHOLD_GRID,
                                       key=lambda pg: (pg[1], pg[0])))


def test_cutoff_errors():
    scores = np.array([0.1, 0.2, 0.3])
    for labels in ([0, 0, 0], [1, 1, 1]):
        with pytest.raises(DegenerateValidation):
            tune_cutoff(scores, labels)
    with pytest.raises(DegenerateValidation):
        tune_cutoff(scores, [0, 1, 0], grid=[])
    with pytest.raises(EmptyLosses):
        percentile_cutoff([], 95.0, 1.0)
