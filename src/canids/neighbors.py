"""Exact nearest-neighbor machinery: KNN and Local Outlier Factor built on
one shared index that searches over prefix groups.

CAN traffic repeats the same frames, and its feature rows differ mostly in
their last column, the interval: the payload bits, DLC and ID before it
take few distinct values. When the index is built, one sort of the
reference rows by the bytes of their first d - 1 columns, then by the last
value and its bytes, puts the rows identical in their bytes side by side
and splits the distinct rows into prefix groups: the distinct rows that
share their first d - 1 columns, ascending in the last.

The exact squared distance of a query q to a reference r is (q - r) ** 2
summed over the columns left to right, so it is fl(P + t): P, the sum over
the first d - 1 columns, is the same for every member of r's prefix group,
and t = fl((q_last - r_last) ** 2) is added by the very same final
addition. Rounding is monotone, so every member of a group lies at least P
from q, and inside a group the distance never falls as |q_last - r_last|
grows. A query takes its rows in blocks sized so that every temporary of
the search fits _BUDGET_BYTES, and in each block it

1. expands ||q'||^2 + ||p||^2 - 2 q'.p against the G group prefixes p (q'
   the first d - 1 columns of q), one BLAS product of Q x G;
2. bounds each row's k-th distance from above: a window of k rows (k + 1
   when the row's own id is left out) on each side of q_last in its
   nearest group and the nearest row on each side in the next k best
   groups give at least k references and, with the expansion plus its
   rounding bound standing in for P, an upper bound on each one's exact
   distance;
3. bounds each group's P from below by the expansion minus that rounding
   bound, and keeps the groups whose lower bound does not exceed the
   row's upper bound; the nearest row on each side in every kept group
   may lower the upper bound, and the kept groups are checked again;
4. takes in each kept group the searchsorted range of last values whose t
   can still fit under the upper bound above the group's lower bound.

Every reference among a row's k nearest lies at most at the upper bound,
so its group is kept and its last value is in range: the candidates always
include the true k nearest. A NaN or infinite bound keeps whole groups, as
a NaN bound compares false. Each candidate's squared distance is then
computed exactly, once per (query, distinct row) pair, and each candidate
distinct row stands for its k lowest reference ids (k + 1 when the
query's own id may be among them and is left out). These rank by (that
distance, reference id). A row's neighbours and distances therefore
depend on that row and the references only, not on the rest of its batch,
the block size, BLAS blocking or how often a reference row repeats.
Distance ties break toward the lower reference row id. When every row is
its own group the same steps search all distinct rows.

Fits and queries take the float64 2-D arrays the detectors have checked;
the index checks only shapes, since a file's references reach it as read.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyData, KTooLarge, WrongWidth

# Bytes that one query may hold in temporaries, beyond its inputs and
# outputs: a block's expansion, its partition and its sampled upper bounds,
# or a slice of kept groups with their ranges, or a slice of candidates
# with their gathered prefixes and expanded reference ids. The index's copy
# of its group prefixes, when it has one, counts against it.
_BUDGET_BYTES = 16 * 1024 * 1024
# per row of a block and group: the expansion, an eighth of it for the
# partition's index array, and the kept-group mask
_BLOCK_GROUP_BYTES = 10
# per sampled row of the upper bound: its index, group, term, bound,
# count, sort order and sorted copies
_SAMPLE_BYTES = 80
# per kept group: its row and group, the bounds of its two nearest rows
# with their sort, and its value and member ranges
_KEPT_BYTES = 256

_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).smallest_subnormal
# 1 + 4 eps bounds the rounding of each operation on the bounds from above
_UP = 1.0 + 4 * _EPS


class NeighborIndex:
    """Immutable exact k-nearest-neighbour index over a reference matrix.

    Its distinct rows are grouped by their first d - 1 columns and sorted
    by the last, so a query bounds its k-th distance, keeps the few groups
    whose prefix distance fits under that bound, and searches each kept
    group's last column for the rows that may lie within it."""

    def __init__(self, refs: np.ndarray):
        if refs.ndim != 2 or refs.size == 0:
            raise EmptyData("reference matrix must be a non-empty 2-D array")
        self.refs = refs
        self.n, self.width = refs.shape
        # one sort by the prefix bytes, the last value, then its bytes: each
        # prefix group ascends in its last column, and rows identical in
        # their bytes lie side by side, by id
        bits = refs.view(np.uint64)
        order = np.lexsort((bits[:, -1], refs[:, -1], *bits[:, :-1].T))
        new_group = np.zeros(self.n, dtype=bool)  # first of its prefix group
        new_group[0] = True
        for col in bits[:, :-1].T:  # one column at a time keeps this O(n) bytes
            col = col[order]
            new_group[1:] |= col[1:] != col[:-1]
        # the groups moved into the order of their lowest ids, so that when
        # every row is its own group the prefixes are a view of refs
        head = np.flatnonzero(new_group)
        size = np.diff(np.append(head, self.n))
        by_id = np.argsort(np.minimum.reduceat(order, head))
        start = np.empty_like(head)
        start[by_id] = np.cumsum(size[by_id]) - size[by_id]
        g = np.cumsum(new_group) - 1
        moved = np.empty_like(order)
        moved[start[g] + np.arange(self.n) - head[g]] = order
        order = moved
        new_group[:] = False
        new_group[start] = True
        col = bits[order, -1]
        new_row = new_group.copy()  # first of its distinct row
        new_row[1:] |= col[1:] != col[:-1]
        # distinct row j holds the ids _members[_row_start[j]:_row_start[j + 1]],
        # ascending; _row_of maps each id to its distinct row
        self._members = order
        self._row_start = np.append(np.flatnonzero(new_row), self.n)
        self._sizes = np.diff(self._row_start)
        self._row_of = np.empty(self.n, dtype=np.int64)
        self._row_of[order] = np.cumsum(new_row) - 1
        # prefix group g holds the distinct rows _group_start[g] up to
        # _group_start[g + 1], ascending in their last values _last
        heads = order[self._row_start[:-1]]
        self._last = refs[heads, -1]
        in_group = new_group[self._row_start[:-1]]
        self._group_start = np.append(np.flatnonzero(in_group), len(heads))
        self._prefix = (refs[:, :-1] if in_group.sum() == self.n
                        else refs[heads[in_group], :-1])
        self._norms = (self._prefix ** 2).sum(axis=1)
        self._radius = np.sqrt(self._norms.max())
        # searchsorted keys, ascending over all distinct rows: the group
        # number times (V + 1) plus the rank of the last value among the V
        # distinct last values
        self._values = np.unique(self._last)
        self._stride = len(self._values) + 1
        self._keys = ((np.cumsum(in_group) - 1) * self._stride
                      + np.searchsorted(self._values, self._last))

    def query(
        self, q: np.ndarray, k: int, exclude_self: bool = False
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
        budget = _BUDGET_BYTES - (
            0 if np.may_share_memory(self._prefix, self.refs)
            else self._prefix.nbytes)
        groups = len(self._prefix)
        slots = 2 * (k + exclude_self) + 2 * min(groups - 1, k)
        # half the budget for a block's expansion and bounds, half for its
        # kept groups and candidates
        block = max(1, budget // 2 // (_BLOCK_GROUP_BYTES * groups
                                       + _SAMPLE_BYTES * slots))
        dists = np.empty((q.shape[0], k))
        ids = np.empty((q.shape[0], k), dtype=np.int64)
        with np.errstate(invalid="ignore", over="ignore"):
            for start in range(0, q.shape[0], block):
                stop = min(start + block, q.shape[0])
                own = np.arange(start, stop) if exclude_self else None
                self._search(q[start:stop], k, own, budget,
                             dists[start:stop], ids[start:stop])
        return dists, ids

    def _position(self, g: np.ndarray, v: np.ndarray, side: str) -> np.ndarray:
        """Index of the first distinct row of group g whose last value is
        >= v (side "left") or > v (side "right"), or the group's end."""
        rank = np.searchsorted(self._values, v, side=side)
        return np.searchsorted(self._keys, g * self._stride + rank)

    def _search(self, q: np.ndarray, k: int, own: np.ndarray | None,
                budget: int, dists: np.ndarray, ids: np.ndarray) -> None:
        """Fill dists and ids, (rows of q, k), with each row's k nearest
        references; own holds the reference id of each row of q when a row
        must not be its own neighbour.

        The expansion e and the left-to-right sum P over the d - 1 prefix
        columns each lie within gamma_(d+2) (||q'|| + ||p||)^2 of the true
        prefix distance (gamma_m = m u / (1 - m u), u = eps / 2), so
        |e - P| <= beta = 2 gamma_(d+2) (||q'|| + R)^2 with R the largest
        prefix norm. slack is twice 2 beta, plus the same multiple of the
        smallest subnormal for underflow, so it also covers the rounding
        of e + slack and e - slack. A reference lies fl(P + t) <=
        (P + t)(1 + u) from the row, which its _bound exceeds, so the k-th
        smallest bound counted with multiplicity, the row's own id left
        out, is an upper bound ub on the row's k-th distance, and so is
        the smaller of two such bounds. A reference among the k nearest
        has fl(P + t) <= ub, so P <= ub / (1 - u) and t <= ub / (1 - u) - P.
        A group with e > ub (1 + 4 eps) + slack has P > ub / (1 - u) and is
        dropped. In a kept group P >= max(e - slack, 0) =: lb, so t <=
        (ub (1 + 4 eps) - lb)(1 + 4 eps) =: T; and t >= (1 - u)^3
        |q_last - r_last|^2 - tiny, so |q_last - r_last| <= rho =
        sqrt(T + tiny)(1 + 4 eps). Each factor 1 + 4 eps also covers the
        rounding of its own step, and the last values in [fl(q_last - rho),
        fl(q_last + rho)] hold every such reference, rounding being
        monotone. NaN and infinite bounds keep whole groups.
        """
        ql = q[:, -1]
        e = (-2.0 * q[:, :-1]) @ self._prefix.T
        q_norms = (q[:, :-1] ** 2).sum(axis=1)
        e += q_norms[:, None]
        e += self._norms
        slack = 4 * (self.width + 2) * (
            _EPS * (np.sqrt(q_norms) + self._radius) ** 2 + _TINY)
        take = k + (own is not None)
        ub = self._sampled_bound(q, k, own, e, slack, take)
        # a group whose e exceeds ub (1 + 4 eps) + slack lies beyond ub
        keep = e > (ub * _UP + slack)[:, None]
        np.logical_not(keep, out=keep)  # NaN bounds keep their groups
        spare = budget - e.nbytes - keep.nbytes
        for r0, r1 in _slices(keep.sum(axis=1),
                              max(1, spare // 2 // _KEPT_BYTES)):
            r, g = np.divmod(np.flatnonzero(keep[r0:r1]), e.shape[1])
            r += r0
            # the nearest row on each side in every kept group may lower ub
            side = self._position(g, ql[r], "left")[:, None] - np.array([1, 0])
            b, count = self._bound(q, e, slack, own, np.repeat(r, 2),
                                   np.repeat(g, 2), side.ravel())
            ub_r = np.fmin(ub[r0:r1],
                           _kth(np.repeat(r - r0, 2), b, count, k, r1 - r0))
            ub_r = ub_r[r - r0]
            e_kept = e[r, g]
            use = ~(e_kept > ub_r * _UP + slack[r])
            r, g, ub_r = r[use], g[use], ub_r[use]
            lb = np.maximum(e_kept[use] - slack[r], 0.0)
            # below 0 only by rounding, when no member can fit
            t_max = np.maximum((ub_r * _UP - lb) * _UP, 0.0)
            rho = np.sqrt(t_max + _TINY) * _UP
            lo = self._position(g, ql[r] - rho, "left")
            hi = self._position(g, ql[r] + rho, "right")
            whole = ~np.isfinite(rho)
            lo[whole] = self._group_start[g[whole]]
            hi[whole] = self._group_start[g[whole] + 1]
            some = hi > lo
            self._rank(q, r0, r1, r[some], g[some], lo[some], hi[some], own,
                       take, spare // 2, dists, ids)

    def _bound(self, q: np.ndarray, e: np.ndarray, slack: np.ndarray,
               own: np.ndarray | None, r: np.ndarray, g: np.ndarray,
               j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(bound, count) of distinct row j as a neighbour of query row r,
        for index arrays r, g and j of one shape: (e + slack + t)(1 + 4 eps)
        with e of group g, and the number of references it holds other
        than r's own; inf and 0 when j lies outside group g."""
        valid = (j >= self._group_start[g]) & (j < self._group_start[g + 1])
        j = np.where(valid, j, 0)
        count = self._sizes[j]
        if own is not None:
            count = count - (j == self._row_of[own[r]])
        t = q[r, -1] - self._last[j]
        t *= t
        b = e[r, g] + slack[r]
        b += t
        b *= _UP
        return np.where(valid, b, np.inf), np.where(valid, count, 0)

    def _sampled_bound(self, q: np.ndarray, k: int, own: np.ndarray | None,
                       e: np.ndarray, slack: np.ndarray,
                       take: int) -> np.ndarray:
        """For each row of q, a bound that at least k references other than
        its own lie within: the k-th smallest _bound, counted with
        multiplicity, over the take rows on each side of q_last in the
        row's nearest group by e and the nearest row on each side in the
        next k best groups; NaN when those hold fewer."""
        n_q, groups = e.shape
        best = min(groups, k + 1)
        if best < groups:
            # in eighths of the rows, so each partition's index array takes
            # an eighth of the expansion's bytes
            step = -(-n_q // 8)
            near = np.empty((n_q, best), dtype=np.intp)
            for a in range(0, n_q, step):
                near[a:a + step] = np.argpartition(
                    e[a:a + step], best - 1, axis=1)[:, :best]
        else:
            near = np.broadcast_to(np.arange(groups), e.shape).copy()
        # the nearest group first
        rows = np.arange(n_q)
        first = np.argmin(np.take_along_axis(e, near, axis=1), axis=1)
        nearest = near[rows, first]
        near[rows, first] = near[:, 0]
        near[:, 0] = nearest
        at = self._position(near, q[:, -1:], "left")
        j = np.hstack([at[:, :1] - take + np.arange(2 * take),
                       (at[:, 1:, None] - np.array([1, 0])).reshape(n_q, -1)])
        g = np.hstack([np.repeat(near[:, :1], 2 * take, axis=1),
                       np.repeat(near[:, 1:], 2, axis=1)])
        b, count = self._bound(q, e, slack, own, rows[:, None], g, j)
        order = np.argsort(b, axis=1)
        b = np.take_along_axis(b, order, axis=1)
        reached = np.cumsum(np.take_along_axis(count, order, axis=1), axis=1) >= k
        kth = np.argmax(reached, axis=1)
        return np.where(reached[rows, kth], b[rows, kth], np.nan)

    def _rank(self, q: np.ndarray, r0: int, r1: int, r: np.ndarray,
              g: np.ndarray, lo: np.ndarray, hi: np.ndarray,
              own: np.ndarray | None, take: int, spare: int,
              dists: np.ndarray, ids: np.ndarray) -> None:
        """Fill rows r0 up to r1 of dists and ids with each row's k nearest
        references by (exact distance, reference id) among its candidates,
        the distinct rows lo up to hi of group g of each (r, g, lo, hi)
        entry, leaving out each row's own id if own is given. r ascends.

        All members of a distinct row lie at one distance, so at most its
        k lowest ids can be among the k nearest, or k + 1 when one may be
        the row's own."""
        k = ids.shape[1]
        span = hi - lo
        # the spare bytes, at a gathered prefix pair, row, distinct row,
        # distance and term per candidate, and id, candidate, rank, row,
        # distance, sort order and sort buffer per expanded id
        per_row = np.bincount(r - r0, weights=span, minlength=r1 - r0)
        limit = max(1, spare // (16 * self.width + 40 + 64 * take))
        for a, b in _slices(per_row, limit):
            a, b = a + r0, b + r0
            s0, s1 = np.searchsorted(r, [a, b])
            pair = np.repeat(np.arange(s1 - s0), span[s0:s1])
            j = lo[s0:s1][pair] + np.arange(len(pair)) - np.repeat(
                np.cumsum(span[s0:s1]) - span[s0:s1], span[s0:s1])
            sq = self._exact_sq(q, r[s0:s1], g[s0:s1], pair, j, limit)
            row = r[s0:s1][pair]
            # each candidate expanded to its `take` lowest member ids
            size = np.minimum(self._sizes[j], take)
            cand = np.repeat(np.arange(len(j)), size)
            rank = np.arange(len(cand)) - np.repeat(np.cumsum(size) - size, size)
            ref = self._members[self._row_start[j][cand] + rank]
            row, sq = row[cand], sq[cand]
            if own is not None:
                keep = ref != own[row]
                ref, row, sq = ref[keep], row[keep], sq[keep]
            order = np.lexsort((ref, sq, row))  # by row, distance, then id
            out = np.arange(a, b)
            pick = order[np.searchsorted(row, out)[:, None] + np.arange(k)]
            ids[out] = ref[pick]
            dists[out] = np.sqrt(sq[pick])

    def _exact_sq(self, q: np.ndarray, r: np.ndarray, g: np.ndarray,
                  pair: np.ndarray, j: np.ndarray, chunk: int) -> np.ndarray:
        """Squared distance of query row r[pair] to distinct row j, for each
        candidate, as (q - r) ** 2 summed over the columns left to right:
        the prefix sum of each (r, g) pair, chunk pairs at a time, then the
        last column's term added by the same accumulate, so that even a NaN
        comes out as the whole row's sum gives it."""
        prefix = np.zeros(len(r))
        for s in range(0, len(r) if self.width > 1 else 0, chunk):
            diff = q[r[s:s + chunk], :-1]
            diff -= self._prefix[g[s:s + chunk]]
            diff *= diff
            np.add.accumulate(diff, axis=1, out=diff)
            prefix[s:s + chunk] = diff[:, -1]
        sq = np.empty((len(pair), 2))
        sq[:, 0] = prefix[pair]
        np.subtract(q[r[pair], -1], self._last[j], out=sq[:, 1])
        sq[:, 1] *= sq[:, 1]
        np.add.accumulate(sq, axis=1, out=sq)
        return sq[:, 1]


def _kth(row: np.ndarray, b: np.ndarray, count: np.ndarray, k: int,
         n: int) -> np.ndarray:
    """For each of n rows, the k-th smallest b over that row's entries,
    each counted count times; NaN where the counts fall short of k. row
    ascends."""
    order = np.lexsort((b, row))
    b = b[order]
    total = np.cumsum(count[order])
    before = np.append(0, total)[np.searchsorted(row, np.arange(n))]
    # entries by row, then by how many references the row has reached
    reached = row * (k + 1) + np.minimum(total - before[row], k)
    at = np.searchsorted(reached, np.arange(n) * (k + 1) + k)
    found = at < len(b)
    at = np.minimum(at, len(b) - 1)
    return np.where(found & (row[at] == np.arange(n)), b[at], np.nan)


def _slices(counts: np.ndarray, limit: int):
    """(start, stop) ranges of consecutive rows whose counts sum to at most
    limit, or of one row."""
    ends = np.cumsum(counts)
    r0 = 0
    while r0 < len(counts):
        base = ends[r0 - 1] if r0 else 0
        r1 = max(r0 + 1, int(np.searchsorted(ends, base + limit, side="right")))
        yield r0, r1
        r0 = r1


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

    def fit(self, refs: np.ndarray) -> "LocalOutlierFactor":
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
    def from_state(cls, k: int, refs, kdist: np.ndarray,
                   lrd: np.ndarray) -> "LocalOutlierFactor":
        """A fitted LOF rebuilt from what scoring reads: the references and
        their k-distances and lrd. No neighbour search is run, and ref_lof
        stays None."""
        self = cls(k)
        self.index = NeighborIndex(refs)
        if self.k >= self.index.n:
            raise KTooLarge(f"k={self.k} needs more than {self.index.n} points")
        for name, a in (("k-distances", kdist), ("lrd", lrd)):
            if a.shape != (self.index.n,):
                raise WrongWidth(f"{name} shape {a.shape} != "
                                    f"({self.index.n},) references")
        self.ref_kdist, self.ref_lrd = kdist, lrd
        return self

    def score(self, X: np.ndarray) -> np.ndarray:
        """LOF of held-out points against the fitted references."""
        dists, ids = self.index.query(X, self.k)
        reach = np.maximum(self.ref_kdist[ids], dists)
        lrd = _safe_lrd(self.k, reach.sum(axis=1))
        return _lof_ratio(self.ref_lrd[ids].mean(axis=1), lrd)


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
