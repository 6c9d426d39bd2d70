import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

import canids
from canids.density import (
    GaussianModel,
    average_path_length,
    fit_isolation_forest,
    fit_robust_covariance,
    iso_score,
    mahalanobis_score,
)
from canids.detectors import RcDetector
from canids.errors import BadSubsample, ConfigError, TooFewSamples
from canids.features import FeatureMatrix
from test_trees import ref_children


def test_full_support_equals_empirical_estimate():
    rng = np.random.default_rng(0)
    X = rng.normal(2.0, 1.5, size=(200, 4))
    model = fit_robust_covariance(X, support_fraction=1.0)
    mean = X.mean(axis=0)
    centered = X - mean
    cov = centered.T @ centered / len(X)
    eps = 1e-6 * np.trace(cov) / 4
    assert np.allclose(model.mean, mean)
    assert np.allclose(model.cov, cov + eps * np.eye(4))


def test_identity_covariance_score_is_squared_euclidean():
    dim = 6
    x = np.zeros(dim)
    x[0], x[1] = 3.0, 4.0
    model = GaussianModel(np.zeros(dim), np.eye(dim), np.eye(dim), cutoff=1.0)
    assert mahalanobis_score(model, x[None])[0] == pytest.approx(25.0)


def test_score_at_mean_is_zero():
    model = GaussianModel(np.full(3, 2.0), np.eye(3), np.eye(3), cutoff=1.0)
    assert mahalanobis_score(model, np.full((1, 3), 2.0))[0] == pytest.approx(0.0)


def test_scaling_covariance_scales_scores():
    rng = np.random.default_rng(1)
    cov = np.eye(3) * 2.0
    x = rng.normal(size=(20, 3))
    base = GaussianModel(np.zeros(3), cov, np.linalg.inv(cov), 1.0)
    scaled = GaussianModel(np.zeros(3), 4 * cov, np.linalg.inv(4 * cov), 1.0)
    s1 = mahalanobis_score(base, x)
    s2 = mahalanobis_score(scaled, x)
    assert np.allclose(s2, s1 / 4.0)
    assert np.array_equal(np.argsort(s1), np.argsort(s2))


def test_robust_mean_resists_contamination():
    rng = np.random.default_rng(2)
    clean = rng.normal(0.0, 1.0, size=(950, 5))
    outliers = rng.normal(12.0, 0.5, size=(50, 5))
    X = np.vstack([clean, outliers])
    robust = fit_robust_covariance(X, support_fraction=0.75, seed=0)
    plain = fit_robust_covariance(X, support_fraction=1.0)
    true_mean = np.zeros(5)
    assert (np.linalg.norm(robust.mean - true_mean)
            < np.linalg.norm(plain.mean - true_mean))


def test_scores_match_solve_oracle():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(1000, 5)) @ rng.normal(size=(5, 5))
    model = fit_robust_covariance(X, support_fraction=0.9, seed=1)
    got = mahalanobis_score(model, X)
    # independent path: linear solve instead of the stored inverse
    centered = X - model.mean
    want = np.einsum("ij,ij->i", centered,
                     np.linalg.solve(model.cov, centered.T).T)
    assert np.allclose(got, want, atol=1e-8)


def test_cstep_determinants_never_increase():
    rng = np.random.default_rng(4)
    X = np.vstack([rng.normal(0, 1, size=(300, 4)),
                   rng.normal(8, 1, size=(40, 4))])
    model = fit_robust_covariance(X, support_fraction=0.8, seed=2)
    for trace in model.det_traces:
        diffs = np.diff(trace)
        assert np.all(diffs <= 1e-7), trace


def test_rc_detector_uses_chi2_cutoff():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(500, 3))
    det = RcDetector(support_fraction=1.0, cutoff_level=0.99)
    det.fit(FeatureMatrix(X, column_ids=(0, 1, 2)))
    assert det.model.cutoff == stats.chi2.ppf(0.99, 3)
    preds = det.predict(X)
    # roughly the nominal false-positive rate on clean data
    assert preds.mean() < 0.05


@pytest.mark.parametrize("level", [0.9, 0.95, 0.99, 0.999])
@pytest.mark.parametrize("dim", [1, 3, 67])
def test_rc_cutoff_is_the_chi2_quantile_bit_for_bit(dim, level):
    X = np.random.default_rng(dim).normal(size=(2 * dim + 10, dim))
    det = RcDetector(support_fraction=1.0, cutoff_level=level)
    det.fit(FeatureMatrix(X, column_ids=tuple(range(dim))))
    assert det.model.cutoff == stats.chi2.ppf(level, dim)


def test_importing_canids_leaves_scipy_stats_unloaded():
    # a fresh interpreter: this test module itself loads scipy.stats
    src = os.path.dirname(os.path.dirname(canids.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, canids.cli, canids.harness, canids.detectors; "
            "print('scipy.stats' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_too_few_samples():
    with pytest.raises(TooFewSamples):
        fit_robust_covariance(np.ones((3, 5)))


def test_support_fraction_range():
    # refused when the detector is made, and again at fit if set later
    with pytest.raises(ConfigError, match="support_fraction"):
        RcDetector(support_fraction=0.4)
    det = RcDetector()
    det.support_fraction = 0.4
    X = np.random.default_rng(6).normal(size=(50, 2))
    with pytest.raises(ConfigError, match="support_fraction"):
        det.fit(FeatureMatrix(X, None, (0, 1)))


# --- isolation forest ------------------------------------------------------------

def test_average_path_length_closed_forms():
    assert average_path_length(0) == 0.0
    assert average_path_length(1) == 0.0
    assert average_path_length(2) == 1.0
    # c(3) = 2*(ln 2 + gamma) - 4/3
    expected = 2 * (math.log(2) + 0.5772156649015329) - 4.0 / 3.0
    assert float(average_path_length(3)) == pytest.approx(expected)


def test_average_path_length_monotone():
    values = average_path_length(np.arange(2, 2000))
    assert np.all(np.diff(values) > 0)


@pytest.mark.parametrize("psi", [2, 3, 64, 256, 4096])
def test_average_path_length_table_equals_per_m_calls(psi):
    # the isolation forest reads leaf path lengths from one such table
    table = average_path_length(np.arange(psi + 1))
    for m in range(psi + 1):
        assert table[m].tobytes() == average_path_length(m).tobytes()


def test_iso_default_subsample_matches_reference_bytes():
    # psi = 256: the leaf path lengths come from the table, the reference
    # calls average_path_length once per leaf
    X = np.random.default_rng(8).normal(size=(1000, 4))
    model = fit_isolation_forest(X, n_trees=5, subsample=256, seed=2)
    want = ref_isolation_trees(X, 5, 256, 2)
    for got, ref in zip(model.trees, want):
        assert got.value.tobytes() == ref.adjust.tobytes()
    want_scores = np.exp2(-ref_mean_path_length(want, X)
                          / float(average_path_length(256)))
    assert iso_score(model, X).tobytes() == want_scores.tobytes()


def test_iso_score_closed_form_relation():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(300, 3))
    model = fit_isolation_forest(X, n_trees=25, subsample=64, seed=0)
    mean_h = model.mean_path_length(X[:10])
    scores = iso_score(model, X[:10])
    c_psi = float(average_path_length(64))
    assert np.allclose(scores, np.exp2(-mean_h / c_psi))
    # E[h] == c(psi) would give exactly 0.5; verify the mapping directly
    assert np.exp2(-c_psi / c_psi) == 0.5
    assert np.exp2(-0.0 / c_psi) == 1.0


def test_iso_scores_in_unit_interval_and_monotone_in_path():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(400, 4))
    model = fit_isolation_forest(X, n_trees=50, subsample=128, seed=1)
    scores = iso_score(model, X)
    assert np.all((scores > 0) & (scores <= 1))
    mean_h = model.mean_path_length(X)
    order_h = np.argsort(mean_h)
    order_s = np.argsort(scores)[::-1]
    assert np.array_equal(np.sort(order_h[:20]), np.sort(order_s[:20]))


def test_iso_distant_point_scores_higher():
    rng = np.random.default_rng(9)
    cluster = rng.uniform(-1, 1, size=(500, 2))
    distant = np.array([[25.0, 25.0]])
    model = fit_isolation_forest(cluster, n_trees=100, subsample=64, seed=2)
    far_score = iso_score(model, distant)[0]
    median_cluster = float(np.median(iso_score(model, cluster)))
    assert far_score > median_cluster
    assert far_score > 0.6


def test_iso_deterministic_under_seed():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(200, 3))
    a = fit_isolation_forest(X, n_trees=20, subsample=64, seed=5)
    b = fit_isolation_forest(X, n_trees=20, subsample=64, seed=5)
    assert np.array_equal(iso_score(a, X), iso_score(b, X))


def test_iso_ranking_invariant_under_power_of_two_scaling():
    # power-of-two scales keep float arithmetic exact, so the same seed
    # produces identical tree decisions and identical rankings
    rng = np.random.default_rng(11)
    X = rng.normal(size=(150, 3))
    scales = np.array([2.0, 0.5, 8.0])
    a = fit_isolation_forest(X, n_trees=30, subsample=64, seed=3)
    b = fit_isolation_forest(X * scales, n_trees=30, subsample=64, seed=3)
    sa = iso_score(a, X)
    sb = iso_score(b, X * scales)
    assert np.array_equal(np.argsort(sa, kind="stable"),
                          np.argsort(sb, kind="stable"))


def test_iso_bad_subsample():
    X = np.ones((10, 2))
    with pytest.raises(BadSubsample):
        fit_isolation_forest(X, n_trees=5, subsample=11)
    with pytest.raises(BadSubsample):
        fit_isolation_forest(X, n_trees=5, subsample=1)


def test_iso_constant_data_all_truncated():
    X = np.zeros((50, 2))
    model = fit_isolation_forest(X, n_trees=10, subsample=16, seed=0)
    scores = iso_score(model, X)
    # no split possible: every point sits at a root leaf, path c(16)
    assert np.allclose(model.mean_path_length(X), average_path_length(16))
    assert np.all(scores == scores[0])


# --- isolation-forest oracle -----------------------------------------------------

class RefIsoTree:
    """Reference isolation tree: splits x < t at the drawn threshold t, and
    routes with the same strict test."""

    def __init__(self, X, rows, height_limit, rng):
        feats, thrs, lefts, rights, adj = [], [], [], [], []

        def build(idx, depth):
            node = len(feats)
            feats.append(-1)
            thrs.append(0.0)
            lefts.append(-1)
            rights.append(-1)
            adj.append(0.0)
            if idx.size <= 1 or depth >= height_limit:
                adj[node] = depth + float(average_path_length(idx.size))
                return node
            sub = X[idx]
            lo = sub.min(axis=0)
            hi = sub.max(axis=0)
            usable = np.flatnonzero(hi > lo)
            if usable.size == 0:
                adj[node] = depth + float(average_path_length(idx.size))
                return node
            f = int(usable[rng.integers(0, usable.size)])
            thr = lo[f] + rng.random() * (hi[f] - lo[f])
            if thr <= lo[f]:
                thr = np.nextafter(lo[f], hi[f])
            go_left = sub[:, f] < thr
            feats[node] = f
            thrs[node] = float(thr)
            lefts[node] = build(idx[go_left], depth + 1)
            rights[node] = build(idx[~go_left], depth + 1)
            return node

        build(rows, 0)
        self.feature = np.array(feats, dtype=np.int64)
        self.threshold = np.array(thrs)
        self.left = np.array(lefts, dtype=np.int64)
        self.right = np.array(rights, dtype=np.int64)
        self.adjust = np.array(adj)

    def path_lengths(self, X):
        node = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            feats = self.feature[node]
            internal = feats >= 0
            if not internal.any():
                return self.adjust[node]
            rows = np.flatnonzero(internal)
            go_left = X[rows, feats[rows]] < self.threshold[node[rows]]
            node[rows] = np.where(go_left, self.left[node[rows]],
                                  self.right[node[rows]])


def ref_isolation_trees(X, n_trees, subsample, seed):
    height_limit = math.ceil(math.log2(subsample))
    trees = []
    for stream in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(stream)
        rows = rng.choice(X.shape[0], size=subsample, replace=False)
        trees.append(RefIsoTree(X, rows, height_limit, rng))
    return trees


def ref_mean_path_length(trees, X):
    acc = np.zeros(X.shape[0])
    for tree in trees:
        acc += tree.path_lengths(X)
    return acc / len(trees)


# signed zeros, subnormals, infinities, ties and ranges whose width overflows
_ISO_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     1.0, 1.0, 3.0, np.inf, -np.inf,
                     np.finfo(np.float64).max, -np.finfo(np.float64).max]),
    st.floats(allow_nan=False, allow_subnormal=True),
)


@st.composite
def iso_data(draw):
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 4))
    X = draw(arrays(np.float64, (n, d), elements=_ISO_VALUES))
    return X, draw(st.integers(2, n))


def _queries(X, trees, seed):
    """The training rows, plus rows built from every drawn threshold, its
    one-ulp neighbours and the special values, alone and mixed."""
    thresholds = np.concatenate([t.threshold[t.feature >= 0] for t in trees])
    pool = np.concatenate([
        thresholds, np.nextafter(thresholds, -np.inf),
        np.nextafter(thresholds, np.inf),
        [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan]])
    d = X.shape[1]
    rng = np.random.default_rng(seed)
    return np.vstack([X, np.repeat(pool[:, None], d, axis=1),
                      rng.choice(pool, size=(4 * pool.size, d))])


@settings(max_examples=150, deadline=None)
@given(iso_data(), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
@example((np.array([[0.0], [1.0]]), 2), 3, 0)
def test_isolation_forest_matches_strict_less_than_reference(data, n_trees,
                                                             seed):
    X, subsample = data
    with np.errstate(over="ignore", invalid="ignore"):  # max - min overflows
        model = fit_isolation_forest(X, n_trees, subsample, seed)
        want = ref_isolation_trees(X, n_trees, subsample, seed)
    assert len(model.trees) == len(want)
    for got, ref in zip(model.trees, want):
        assert np.array_equal(got.feature, ref.feature)
        left, right = ref_children(got)
        assert np.array_equal(left, ref.left)
        assert np.array_equal(right, ref.right)
        split = ref.feature >= 0
        assert (got.threshold[split].tobytes()
                == np.nextafter(ref.threshold[split], -np.inf).tobytes())
        assert got.value.tobytes() == ref.adjust.tobytes()
    Q = _queries(X, want, seed)
    assert (model.mean_path_length(Q).tobytes()
            == ref_mean_path_length(want, Q).tobytes())
