"""Semi-supervised density detectors: robust-covariance (Mahalanobis) and
isolation forest.

The covariance estimator is a concentration-step scheme: several random
starting subsets are refined by refitting on the lowest-Mahalanobis rows
until the retained subset repeats, and the determinant-minimizing solution
wins. support_fraction 1.0 degenerates to the plain empirical estimate.
The cutoff on squared Mahalanobis distance is the chi-square quantile of
the row width d at cutoff_level, computed as 2 * gammaincinv(d / 2, level):
the expression scipy.stats.chi2.ppf evaluates, bit for bit, without the
~40 MB and ~0.5 s that importing scipy.stats costs.

Isolation trees are trees.FlatTree arrays, grown in pre-order and routed
by trees.route_trees. A node sends x left when x < t for its random
threshold t; it stores nextafter(t, -inf) instead, because route_trees
tests <= and x < t holds exactly when x <= nextafter(t, -inf) does, for
every float x (infinities and NaN included) and every t but -inf, which
the draw never gives. Leaf values
are the path length: depth plus c(rows at the leaf). Gains are all 0.0.

Fits and scores take the float64 2-D arrays that the detectors have
checked; they do not convert or check them again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import gammaincinv

from .errors import BadSubsample, SingularCovariance, TooFewSamples
from .trees import FlatTree, mean_route

EULER_GAMMA = 0.5772156649015329

_MCD_STARTS = 5
_MCD_MAX_CSTEPS = 50
_RIDGE_SCALE = 1e-6


def _ridge(cov: np.ndarray) -> np.ndarray:
    eps = _RIDGE_SCALE * np.trace(cov) / cov.shape[0]
    if eps <= 0:
        eps = _RIDGE_SCALE
    return cov + eps * np.eye(cov.shape[0])


def _moments(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # population convention (divide by n), matching the standardizer
    mean = X.mean(axis=0)
    centered = X - mean
    cov = centered.T @ centered / X.shape[0]
    return mean, cov


def _sq_mahalanobis(X: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance("covariance not SPD after ridge") from exc
    z = solve_triangular(chol, (X - mean).T, lower=True)
    return np.sum(z ** 2, axis=0)


@dataclass
class GaussianModel:
    """Fitted robust Gaussian: ridged covariance, its inverse, and the
    chi-square cutoff on squared Mahalanobis distance."""

    mean: np.ndarray
    cov: np.ndarray
    cov_inv: np.ndarray
    cutoff: float
    det_traces: list[list[float]] = field(default_factory=list)


def fit_robust_covariance(
    X: np.ndarray,
    support_fraction: float = 0.75,
    cutoff_level: float = 0.99,
    seed: int = 0,
) -> GaussianModel:
    """Concentrated covariance estimate.

    From each random subset of ceil(h*N) rows, alternate (fit moments,
    keep the ceil(h*N) smallest Mahalanobis rows) until the subset repeats;
    keep the start whose final regularized covariance determinant is
    smallest. det_traces records the per-iteration log-determinants so the
    non-increase property is auditable.
    """
    n, dim = X.shape
    if n <= dim:
        raise TooFewSamples(f"{n} rows for {dim} dimensions")
    m = math.ceil(support_fraction * n)

    det_traces: list[list[float]] = []
    best: tuple[float, np.ndarray] | None = None

    if support_fraction == 1.0:
        starts = [np.arange(n)]
    else:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        starts = [np.sort(rng.choice(n, size=m, replace=False))
                  for _ in range(_MCD_STARTS)]

    for subset in starts:
        trace: list[float] = []
        prev: np.ndarray | None = None
        for _ in range(_MCD_MAX_CSTEPS):
            mean, cov = _moments(X[subset])
            cov_r = _ridge(cov)
            sign, logdet = np.linalg.slogdet(cov_r)
            if sign <= 0:
                raise SingularCovariance("regularized covariance not positive")
            trace.append(float(logdet))
            if support_fraction == 1.0:
                break
            d2 = _sq_mahalanobis(X, mean, cov_r)
            new_subset = np.sort(np.argsort(d2, kind="stable")[:m])
            if prev is not None and np.array_equal(new_subset, subset):
                break
            prev = subset
            subset = new_subset
        det_traces.append(trace)
        final = trace[-1]
        if best is None or final < best[0]:
            best = (final, subset)

    mean, cov = _moments(X[best[1]])
    cov_r = _ridge(cov)
    try:
        cov_inv = np.linalg.inv(cov_r)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance("covariance not invertible after ridge") from exc
    cutoff = float(2 * gammaincinv(dim / 2, cutoff_level))
    return GaussianModel(mean, cov_r, cov_inv, cutoff, det_traces)


def mahalanobis_score(model: GaussianModel, X: np.ndarray) -> np.ndarray:
    """Squared Mahalanobis distance of each row of X to the fitted mean."""
    centered = X - model.mean
    d2 = np.einsum("ij,jk,ik->i", centered, model.cov_inv, centered)
    return np.maximum(d2, 0.0)


# --- isolation forest --------------------------------------------------------

def average_path_length(m: int | np.ndarray) -> np.ndarray:
    """Expected unsuccessful-search path length c(m) in a binary tree:
    2*H(m-1) - 2*(m-1)/m with H(i) ~ ln(i) + Euler's constant;
    c(1) = 0, c(2) = 1."""
    m_arr = np.asarray(m, dtype=np.float64)
    out = np.zeros_like(m_arr)
    out = np.where(m_arr == 2, 1.0, out)
    big = m_arr > 2
    with np.errstate(divide="ignore", invalid="ignore"):
        harm = np.log(m_arr - 1) + EULER_GAMMA
        vals = 2.0 * harm - 2.0 * (m_arr - 1) / m_arr
    out = np.where(big, vals, out)
    return out if out.ndim else np.float64(out)


def _isolation_tree(X: np.ndarray, rows: np.ndarray, height_limit: int,
                    rng: np.random.Generator, c: np.ndarray) -> FlatTree:
    """One isolation tree on X[rows], thresholds stored as nextafter(t, -inf);
    c[m] is average_path_length(m) for every m up to rows.size."""
    nodes: list[list] = []  # FlatTree.of_rows rows, in pre-order

    def build(idx: np.ndarray, depth: int):
        if idx.size > 1 and depth < height_limit:
            sub = X[idx]
            lo = sub.min(axis=0)
            hi = sub.max(axis=0)
            usable = np.flatnonzero(hi > lo)
            if usable.size:
                f = int(usable[rng.integers(0, usable.size)])
                thr = lo[f] + rng.random() * (hi[f] - lo[f])
                if thr <= lo[f]:
                    thr = np.nextafter(lo[f], hi[f])
                thr = np.nextafter(thr, -np.inf)
                go_left = sub[:, f] <= thr
                nodes.append([f, float(thr), 0.0, 0.0])
                build(idx[go_left], depth + 1)
                build(idx[~go_left], depth + 1)
                return
        nodes.append([-1, 0.0, depth + float(c[idx.size]), 0.0])

    try:
        build(rows, 0)
    finally:
        del build  # build refers to itself; free the tree's data now
    return FlatTree.of_rows(nodes)


@dataclass
class IsoForestModel:
    subsample: int
    trees: list[FlatTree] = field(default_factory=list)

    def __post_init__(self):
        self._norm = float(average_path_length(self.subsample))  # c(psi)

    def mean_path_length(self, X: np.ndarray) -> np.ndarray:
        return mean_route(self.trees, X)


def fit_isolation_forest(
    X: np.ndarray, n_trees: int = 100, subsample: int = 256, seed: int = 0
) -> IsoForestModel:
    """Random partition trees on subsamples of size psi, height-limited to
    ceil(log2 psi); thresholds are uniform in the node's (min, max)."""
    n = X.shape[0]
    if subsample < 2 or subsample > n:
        raise BadSubsample(f"subsample {subsample} invalid for {n} rows")
    height_limit = math.ceil(math.log2(subsample))
    c = average_path_length(np.arange(subsample + 1))
    model = IsoForestModel(subsample)
    for stream in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(stream)
        rows = rng.choice(n, size=subsample, replace=False)
        model.trees.append(_isolation_tree(X, rows, height_limit, rng, c))
    return model


def iso_score(model: IsoForestModel, X: np.ndarray) -> np.ndarray:
    """Anomaly score 2^(-E[h(x)] / c(psi)) of each row x of X; 0.5 at the
    average path length, approaching 1 for very short paths."""
    return np.exp2(-model.mean_path_length(X) / model._norm)
