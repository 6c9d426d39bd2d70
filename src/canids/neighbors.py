"""Exact nearest-neighbor machinery: brute-force KNN and Local Outlier
Factor built on one shared index.

No space partitioning: desk-scale sizes make exact blocked matrix
arithmetic affordable, and exactness keeps the oracle tests trivial.

CAN traffic repeats the same frames, so many reference rows are exact
copies. The index groups the rows that are identical in their bytes once,
when it is built, and a query works on the distinct rows. It takes its
rows in blocks sized so that every temporary of the search fits
_BUDGET_BYTES. In each block the BLAS expansion ||q||^2 + ||r||^2 - 2 q.r
over the distinct rows picks candidates: every distinct row whose
expanded distance lies within a rounding bound of the row's k-th smallest
over distinct rows, a set that provably holds the exact k nearest. Each
candidate's squared distance is then recomputed once, as (q - r) ** 2
summed over the columns left to right, and each candidate group stands
for its k lowest reference ids (k + 1 when the query's own id may be among
them and is left out). These rank by (that distance, reference id). A
row's neighbours and distances therefore depend on that row and the
references only, not on the rest of its batch, the block size, BLAS
blocking or how often a reference row repeats. Distance ties break toward
the lower reference row id.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyData, KTooLarge, WrongWidth

# Bytes that one query may hold in temporaries, beyond its inputs and
# outputs: a block's expansion and its partition copy, or a slice of
# candidate pairs with their gathered rows and expanded reference ids. The
# index's copy of its distinct rows, when it has one, counts against it.
_BUDGET_BYTES = 16 * 1024 * 1024

_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).smallest_subnormal


class NeighborIndex:
    """Immutable brute-force index over a reference matrix, searched over
    its distinct rows."""

    def __init__(self, refs: np.ndarray):
        refs = np.asarray(getattr(refs, "values", refs), dtype=np.float64)
        if refs.ndim != 2 or refs.size == 0:
            raise EmptyData("reference matrix must be a non-empty 2-D array")
        self.refs = refs
        self.n, self.width = refs.shape
        # groups of rows identical in their bytes, numbered by lowest id:
        # sorted by their bytes, equal rows lie side by side, by id
        bits = refs.view(np.uint64)
        order = np.lexsort(bits.T)
        head = np.zeros(self.n, dtype=bool)  # first of its group in order
        head[0] = True
        for col in bits.T:  # one column at a time keeps this O(n) bytes
            col = col[order]
            head[1:] |= col[1:] != col[:-1]
        lead = order[head]  # lowest id of each group
        renumber = np.empty_like(lead)
        renumber[np.argsort(lead)] = np.arange(len(lead))
        self._group = np.empty(self.n, dtype=np.int64)
        self._group[order] = renumber[np.cumsum(head) - 1]
        # member ids group by group, ascending within a group
        self._members = np.argsort(self._group, kind="stable")
        self._sizes = np.bincount(self._group)
        self._starts = np.cumsum(self._sizes) - self._sizes
        self._rows = refs if len(lead) == self.n else refs[np.sort(lead)]
        self._norms = (self._rows ** 2).sum(axis=1)
        self._radius = np.sqrt(self._norms.max())

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
        # a copy of the distinct rows takes its bytes from the budget; the
        # expansion and its partition copy take 16 bytes per distinct row
        budget = _BUDGET_BYTES - (0 if self._rows is self.refs
                                  else self._rows.nbytes)
        block = max(1, budget // (16 * len(self._rows)))
        dists = np.empty((q.shape[0], k))
        ids = np.empty((q.shape[0], k), dtype=np.int64)
        for start in range(0, q.shape[0], block):
            stop = min(start + block, q.shape[0])
            own = np.arange(start, stop) if exclude_self else None
            mask = self._candidates(q[start:stop], k, own)
            self._rank(q[start:stop], mask, own, budget - mask.nbytes,
                       dists[start:stop], ids[start:stop])
            del mask  # before the next block's expansion
        return dists, ids

    def _candidates(self, q: np.ndarray, k: int,
                    own: np.ndarray | None) -> np.ndarray:
        """(rows of q, distinct rows) mask of every group that may hold one
        of a row's k nearest references; own holds the reference id of
        each row of q when a row must not be its own neighbour.

        The expansion e and the left-to-right sum x of the squared
        differences each lie within gamma_(d+3) (||q|| + ||r||)^2 of the
        true squared distance (d columns, gamma_m = m u / (1 - m u),
        u = eps / 2), so |e - x| <= beta = 2 gamma_(d+3) (||q|| + R)^2
        with R the largest reference norm. Let e_k be the k-th smallest e
        over the distinct rows, the row's own group set to +inf when it
        holds no other reference, or the largest e when there are fewer
        than k distinct rows (then every group is kept). The k groups of
        smallest e hold at least k references other than the row's own,
        each with x <= e_k + beta, so the k-th nearest reference counted
        with duplicates has x <= e_k + beta, and every reference among the
        k nearest has e <= e_k + 2 beta. (Each group counts once, so e_k
        is at least the k-th smallest e counted with duplicates, and the
        band is at least as wide as one built from that.) The slack below
        is twice 2 beta, plus the same multiple of the smallest subnormal
        for underflow. NaN expansions are kept.
        """
        e = (-2.0 * q) @ self._rows.T
        q_norms = (q ** 2).sum(axis=1)
        e += q_norms[:, None]
        e += self._norms
        if own is not None:
            # a row whose group holds no other copy drops that group
            own_group = self._group[own]
            alone = np.flatnonzero(self._sizes[own_group] == 1)
            e[alone, own_group[alone]] = np.inf
        kk = min(k, e.shape[1])
        kth = np.partition(e, kk - 1, axis=1)[:, kk - 1].copy()
        slack = 4 * (self.width + 3) * (
            _EPS * (np.sqrt(q_norms) + self._radius) ** 2 + _TINY)
        mask = e > (kth + slack)[:, None]
        np.logical_not(mask, out=mask)
        if own is not None:
            mask[alone, own_group[alone]] = False
        return mask

    def _rank(self, q: np.ndarray, mask: np.ndarray, own: np.ndarray | None,
              spare: int, dists: np.ndarray, ids: np.ndarray) -> None:
        """Fill dists and ids, (rows of q, k), with each row's k nearest
        references in the candidate groups of mask by (exact distance,
        reference id), leaving out each row's own id if own is given.

        All members of a group lie at one distance, so at most its k lowest
        ids can be among the k nearest, or k + 1 when one may be the row's
        own."""
        k = ids.shape[1]
        take = k + (own is not None)
        counts = mask.sum(axis=1)
        ends = np.cumsum(counts)
        starts = ends - counts
        # the spare bytes of the budget, at two gathered rows plus flat
        # index, row, group and distance per pair, and id, pair, rank, row,
        # distance, sort order and sort buffer per expanded id
        pairs = max(1, spare // (16 * self.width + 32 + 64 * take))
        r0 = 0
        while r0 < len(q):
            # the rows whose candidates fill one slice, or one row
            r1 = max(r0 + 1, int(np.searchsorted(ends, starts[r0] + pairs,
                                                 side="right")))
            row, g = np.divmod(np.flatnonzero(mask[r0:r1]), mask.shape[1])
            sq = self._exact_sq(q[r0:r1], row, g, pairs)
            # each pair's group expanded to its `take` lowest member ids
            size = np.minimum(self._sizes[g], take)
            pair = np.repeat(np.arange(len(g)), size)
            rank = np.arange(len(pair)) - np.repeat(np.cumsum(size) - size,
                                                    size)
            ref = self._members[self._starts[g][pair] + rank]
            row, sq = row[pair], sq[pair]
            if own is not None:
                keep = ref != own[r0 + row]
                ref, row, sq = ref[keep], row[keep], sq[keep]
            order = np.lexsort((ref, sq, row))  # by row, distance, then id
            first = np.searchsorted(row, np.arange(r1 - r0))
            pick = order[first[:, None] + np.arange(k)]
            ids[r0:r1] = ref[pick]
            dists[r0:r1] = np.sqrt(sq[pick])
            r0 = r1

    def _exact_sq(self, q: np.ndarray, row: np.ndarray, g: np.ndarray,
                  pairs: int) -> np.ndarray:
        """Squared distance of each (query row, distinct row) pair as
        (q - r) ** 2 summed over the columns left to right, pairs at a
        time."""
        sq = np.empty(len(row))
        for s in range(0, len(row), pairs):
            diff = q[row[s:s + pairs]]
            diff -= self._rows[g[s:s + pairs]]
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
