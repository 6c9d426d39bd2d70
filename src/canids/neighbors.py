"""Exact nearest-neighbor machinery: brute-force KNN and Local Outlier
Factor built on one shared index.

No space partitioning: desk-scale sizes make exact blocked matrix
arithmetic affordable, and exactness keeps the oracle tests trivial.

A query takes its rows in blocks sized so that every temporary of the
search fits _BUDGET_BYTES. In each block the BLAS expansion
||q||^2 + ||r||^2 - 2 q.r picks candidates: every reference whose
expanded distance lies within a rounding bound of the row's k-th
smallest, a set that provably holds the exact k nearest. Each candidate's
squared distance is then recomputed as (q - r) ** 2 summed over the
columns left to right, and candidates rank by (that distance, reference
id). A row's neighbours and distances therefore depend on that row and
the references only, not on the rest of its batch, the block size or
BLAS blocking. Distance ties break toward the lower reference row id.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyData, KTooLarge, WrongWidth

# Bytes that one query may hold in temporaries, beyond its inputs and
# outputs: a block's expansion and its partition copy, or a slice of
# candidate pairs with their gathered rows.
_BUDGET_BYTES = 16 * 1024 * 1024

_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).smallest_subnormal


class NeighborIndex:
    """Immutable brute-force index over a reference matrix."""

    def __init__(self, refs: np.ndarray):
        refs = np.asarray(getattr(refs, "values", refs), dtype=np.float64)
        if refs.ndim != 2 or refs.size == 0:
            raise EmptyData("reference matrix must be a non-empty 2-D array")
        self.refs = refs
        self.n, self.width = refs.shape
        self._ref_norms = (refs ** 2).sum(axis=1)
        self._ref_radius = np.sqrt(self._ref_norms.max())

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
        # the expansion and its partition copy take 16 bytes per reference
        block = max(1, _BUDGET_BYTES // (16 * self.n))
        dists = np.empty((q.shape[0], k))
        ids = np.empty((q.shape[0], k), dtype=np.int64)
        for start in range(0, q.shape[0], block):
            stop = min(start + block, q.shape[0])
            mask = self._candidates(q[start:stop], k,
                                    start if exclude_self else None)
            self._rank(q[start:stop], mask, dists[start:stop],
                       ids[start:stop])
            del mask  # before the next block's expansion
        return dists, ids

    def _candidates(self, q: np.ndarray, k: int,
                    self_start: int | None) -> np.ndarray:
        """(rows of q, references) mask of every reference that may be
        among a row's k nearest; self_start is the reference id of q's
        first row when each row must not be its own neighbour.

        The expansion e and the left-to-right sum x of the squared
        differences each lie within gamma_(d+3) (||q|| + ||r||)^2 of the
        true squared distance (d columns, gamma_m = m u / (1 - m u),
        u = eps / 2), so |e - x| <= beta = 2 gamma_(d+3) (||q|| + R)^2
        with R the largest reference norm. The k references of smallest
        e have x <= e_k + beta, so the k nearest by x have e <= e_k +
        2 beta. The slack below is twice 2 beta, plus the same multiple
        of the smallest subnormal for underflow. NaN expansions are kept.
        """
        e = q @ self.refs.T
        e *= -2.0
        q_norms = (q ** 2).sum(axis=1)
        e += q_norms[:, None]
        e += self._ref_norms
        rows = np.arange(len(q))
        if self_start is not None:
            e[rows, self_start + rows] = np.inf
        kth = np.partition(e, k - 1, axis=1)[:, k - 1].copy()
        slack = 4 * (self.width + 3) * (
            _EPS * (np.sqrt(q_norms) + self._ref_radius) ** 2 + _TINY)
        mask = e > (kth + slack)[:, None]
        np.logical_not(mask, out=mask)
        if self_start is not None:
            mask[rows, self_start + rows] = False
        return mask

    def _rank(self, q: np.ndarray, mask: np.ndarray, dists: np.ndarray,
              ids: np.ndarray) -> None:
        """Fill dists and ids, (rows of q, k), with each row's k nearest
        candidates of mask by (exact distance, reference id)."""
        k = ids.shape[1]
        counts = mask.sum(axis=1)
        ends = np.cumsum(counts)
        starts = ends - counts
        # what the mask leaves of the budget, at two gathered rows plus
        # flat index, row, column, distance, sort order and sort buffer
        # per pair
        pairs = max(1, (_BUDGET_BYTES - mask.nbytes) // (16 * self.width + 48))
        r0 = 0
        while r0 < len(q):
            # the rows whose candidates fill one slice, or one row
            r1 = max(r0 + 1, int(np.searchsorted(ends, starts[r0] + pairs,
                                                 side="right")))
            row, col = np.divmod(np.flatnonzero(mask[r0:r1]), self.n)
            sq = self._exact_sq(q[r0:r1], row, col, pairs)
            order = np.lexsort((sq, row))  # by row, distance, then column
            pick = order[(starts[r0:r1] - starts[r0])[:, None] + np.arange(k)]
            ids[r0:r1] = col[pick]
            dists[r0:r1] = np.sqrt(sq[pick])
            r0 = r1

    def _exact_sq(self, q: np.ndarray, row: np.ndarray, col: np.ndarray,
                  pairs: int) -> np.ndarray:
        """Squared distance of each (query row, reference) pair as
        (q - r) ** 2 summed over the columns left to right, pairs at a
        time."""
        sq = np.empty(len(row))
        for s in range(0, len(row), pairs):
            diff = q[row[s:s + pairs]]
            diff -= self.refs[col[s:s + pairs]]
            diff *= diff
            np.add.accumulate(diff, axis=1, out=diff)
            sq[s:s + pairs] = diff[:, -1]
        return sq


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
