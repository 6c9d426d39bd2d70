"""Exact nearest-neighbor machinery: brute-force KNN and Local Outlier
Factor built on one shared index.

No space partitioning: desk-scale sizes make exact chunked matrix
arithmetic affordable, and exactness keeps the oracle tests trivial.
Distance ties always break toward the lower reference row id.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyData, KTooLarge, WrongWidth

_CHUNK_BYTES = 256 * 1024 * 1024


def _sq_distances(
    queries: np.ndarray, refs: np.ndarray, ref_norms: np.ndarray | None = None
) -> np.ndarray:
    """Squared Euclidean distances, (n_queries, n_refs), clipped at 0."""
    if ref_norms is None:
        ref_norms = (refs ** 2).sum(axis=1)
    d2 = (
        (queries ** 2).sum(axis=1)[:, None]
        + ref_norms[None, :]
        - 2.0 * (queries @ refs.T)
    )
    np.maximum(d2, 0.0, out=d2)
    return d2


def _topk_rows(d2: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row k smallest squared distances ordered by (distance, column id).

    argpartition preselects k+16 candidates; rows whose k-th distance still
    ties the candidate boundary fall back to a full stable sort so tied ids
    outside the candidate set cannot be missed.
    """
    n = d2.shape[1]
    kk = min(k + 16, n)
    part = np.argpartition(d2, kk - 1, axis=1)[:, :kk]
    pd = np.take_along_axis(d2, part, axis=1)
    # sort candidates by id first, then stably by distance: ties keep id order
    o1 = np.argsort(part, axis=1, kind="stable")
    part = np.take_along_axis(part, o1, axis=1)
    pd = np.take_along_axis(pd, o1, axis=1)
    o2 = np.argsort(pd, axis=1, kind="stable")
    part = np.take_along_axis(part, o2, axis=1)
    pd = np.take_along_axis(pd, o2, axis=1)
    ids = part[:, :k].copy()
    dist2 = pd[:, :k].copy()
    if kk < n:
        spill = pd[:, k - 1] == pd[:, kk - 1]
        for row in np.flatnonzero(spill):
            order = np.argsort(d2[row], kind="stable")[:k]
            ids[row] = order
            dist2[row] = d2[row, order]
    return dist2, ids


class NeighborIndex:
    """Immutable brute-force index over a reference matrix."""

    def __init__(self, refs: np.ndarray):
        refs = np.asarray(getattr(refs, "values", refs), dtype=np.float64)
        if refs.ndim != 2 or refs.shape[0] == 0:
            raise EmptyData("reference matrix must be a non-empty 2-D array")
        self.refs = refs
        self.n, self.width = refs.shape
        self._ref_norms = (refs ** 2).sum(axis=1)

    def _check_queries(self, X) -> np.ndarray:
        q = np.atleast_2d(np.asarray(getattr(X, "values", X), dtype=np.float64))
        if q.shape[1] != self.width:
            raise WrongWidth(
                f"query width {q.shape[1]} != reference width {self.width}"
            )
        return q

    def query(
        self, X, k: int, exclude_self: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """k nearest references for each query row.

        Returns (distances, ids), each (n_queries, k), distances ascending
        with ties broken by lower reference id. exclude_self treats query
        row i as reference row i and removes it from its own neighborhood.
        """
        if k < 1:
            raise KTooLarge("k must be >= 1")
        limit = self.n - 1 if exclude_self else self.n
        if k > limit:
            raise KTooLarge(f"k={k} exceeds {limit} available references")
        q = self._check_queries(X)
        chunk = max(1, _CHUNK_BYTES // (8 * self.n))
        dists = np.empty((q.shape[0], k))
        ids = np.empty((q.shape[0], k), dtype=np.int64)
        for start in range(0, q.shape[0], chunk):
            stop = min(start + chunk, q.shape[0])
            d2 = _sq_distances(q[start:stop], self.refs, self._ref_norms)
            if exclude_self:
                rows = np.arange(start, stop)
                d2[np.arange(stop - start), rows] = np.inf
            cd, ci = _topk_rows(d2, k)
            dists[start:stop] = np.sqrt(cd)
            ids[start:stop] = ci
        return dists, ids


class LocalOutlierFactor:
    """LOF with exactly k neighbors per point.

    k-distance(o) is the distance to o's k-th neighbor; the reachability
    distance reach(p, o) = max(k-distance(o), d(p, o)); the local
    reachability density lrd(p) = k / sum of reach(p, o) over p's
    neighbors; LOF(p) = mean of lrd(o) over those neighbors / lrd(p).
    Values near 1 are inliers, larger is more anomalous.

    Degenerate density (>= k duplicates) makes lrd infinite; an inf/inf
    LOF collapses to 1 (duplicate clusters are inliers).
    """

    def __init__(self, k: int):
        if k < 1:
            raise KTooLarge("k must be >= 1")
        self.k = k
        self.index: NeighborIndex | None = None
        self.ref_kdist: np.ndarray | None = None
        self.ref_lrd: np.ndarray | None = None
        self.ref_lof: np.ndarray | None = None

    def fit(self, refs) -> "LocalOutlierFactor":
        self.index = NeighborIndex(refs)
        if self.k >= self.index.n:
            raise KTooLarge(f"k={self.k} needs more than {self.index.n} points")
        dists, ids = self.index.query(self.index.refs, self.k,
                                      exclude_self=True)
        self.ref_kdist = dists[:, -1].copy()
        reach = np.maximum(self.ref_kdist[ids], dists)
        self.ref_lrd = _safe_lrd(self.k, reach.sum(axis=1))
        self.ref_lof = _lof_ratio(self.ref_lrd[ids].mean(axis=1), self.ref_lrd)
        return self

    @classmethod
    def from_state(cls, k: int, refs, kdist: np.ndarray, lrd: np.ndarray,
                   lof: np.ndarray) -> "LocalOutlierFactor":
        """A fitted LOF rebuilt from what fit computed: the references and
        their k-distances, lrd and LOF. No neighbour search is run."""
        self = cls(k)
        self.index = NeighborIndex(refs)
        if self.k >= self.index.n:
            raise KTooLarge(f"k={self.k} needs more than {self.index.n} points")
        for name, a in (("k-distances", kdist), ("lrd", lrd), ("lof", lof)):
            if a.shape != (self.index.n,):
                raise WrongWidth(f"{name} shape {a.shape} != "
                                    f"({self.index.n},) references")
        self.ref_kdist, self.ref_lrd, self.ref_lof = kdist, lrd, lof
        return self

    def fit_scores(self) -> np.ndarray:
        """LOF of every reference point (the fit-time scores)."""
        self._require_fit()
        return self.ref_lof

    def score(self, X) -> np.ndarray:
        """LOF of held-out points against the fitted references."""
        self._require_fit()
        dists, ids = self.index.query(X, self.k)
        reach = np.maximum(self.ref_kdist[ids], dists)
        lrd = _safe_lrd(self.k, reach.sum(axis=1))
        return _lof_ratio(self.ref_lrd[ids].mean(axis=1), lrd)

    def _require_fit(self):
        if self.index is None:
            raise EmptyData("LOF not fitted")


def _safe_lrd(k: int, reach_sum: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.where(reach_sum > 0, k / reach_sum, np.inf)


def _lof_ratio(neighbor_mean: np.ndarray, own: np.ndarray) -> np.ndarray:
    both_inf = np.isinf(neighbor_mean) & np.isinf(own)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = neighbor_mean / own
    ratio = np.where(np.isinf(neighbor_mean) & ~np.isinf(own), np.inf, ratio)
    ratio = np.where(~np.isinf(neighbor_mean) & np.isinf(own), 0.0, ratio)
    return np.where(both_inf, 1.0, ratio)
