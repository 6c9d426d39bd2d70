"""From-scratch tree models: CART, bootstrap random forest, and
second-order gradient-boosted trees with gain importance.

Split search is exact greedy: candidate thresholds are the midpoints
between consecutive distinct sorted feature values (the lower value where
the midpoint rounds up to the upper one). CART and boosting share one
search over the left and right sides' (count, S1, S2) sums: CART sums
(label, 1) and scores Gini decrease, boosting sums (gradient, hessian) and
scores the second-order gain.

Computed gains that are exactly equal break to the lowest feature index,
and within a feature to the lowest threshold, so fits are deterministic.
Every sum the search takes is exact, so two features that make the same
partition compute equal gains and the lower index wins. CART sums labels
and weights, which are integers. Boosting rounds each gradient and
hessian to a multiple of 2**-s, with s = 53 - ceil(log2(n + 1)) for n
training rows: every partial sum is then a multiple of 2**-s no larger
than n in magnitude, which float64 holds exactly, so a node's sums are
the same in any order or grouping (as in quantized gradient training,
Shi et al., NeurIPS 2022).

Each fit prepares its columns once; a random forest prepares them once
for all its trees. A column with at most _HIST_VALUES distinct training
values (the 64 payload bits, DLC and CAN ID) is a histogram column: a node
sums (count, S1, S2) per distinct value and takes every threshold between
consecutive values it holds from cumulative sums over those bins, as in
LightGBM (Ke et al., NeurIPS 2017). 0/1 columns are copied into one
C-contiguous uint8 block and one matrix product over a node's block rows
gives all three sums; the other histogram columns hold value codes (uint8
for DLC and CAN ID) and one bincount per statistic sums them. A split sums
only its smaller child: the larger child's histogram, and its S1 and S2,
are the parent's minus the smaller one's. A column with more values (here
only the interval) is a scan column: it is argsorted once (stable), a node
keeps its rows in that order, its children inherit it by stable
partition, and the node scans it with cumulative sums. All candidates of
a node, from bits, bins and the scan, go through one gain evaluation.
Since every sum is exact, none of this changes a sum: the trees are bit
for bit those of a search that gathers and sorts at each node, whichever
columns take histograms.

Every fit grows on the distinct rows of its matrix, each weighted by its
number of copies, as XGBoost's instance weights do (Chen & Guestrin, KDD
2016): where a search on X sums (label, 1) or (g, h) per row, it sums
each distinct row's totals over its copies, counting only the copies a
forest's bootstrap drew or a boosting round sampled. No tree changes, for
three reasons. Every sum is exact, so a distinct row's totals sum like
its copies. The count a histogram holds per side only tells an empty side
from one that is not. And a node that holds one distinct row has no
valid split, so boosting may count distinct rows where it refuses nodes
of fewer than two rows. Rows merge only when they are equal in the bytes
of every column that is not 0/1, so the search reads the same values and
takes the same thresholds; a 0/1 column's one threshold 0.5 sends -0.0
and 0.0 alike. A forest tree is thus bit for bit the one grown on its
resample X[rows], also where a column is 0/1 only within the sample: both
searches give it the one threshold 0.5. Every node of a forest tree sums
the histograms of all columns, since its children subtract them, and
masks the candidates of the features it did not sample.

Every tree is a FlatTree: four parallel arrays (feature, threshold,
value, gain) in pre-order, left subtree first, which the growers append
to as they go. No child index is stored: the order implies the children,
and _children alone works them out. Every model, the isolation forest in
density included, routes rows through route_trees, the one router, which
takes all of a model's trees in one pass with the one test x <= threshold.
Model files hold a model's trees as one payload of the four arrays end to
end, which loading checks with _children.

The growers and routers take the float64 2-D arrays and 0/1 labels that
the detectors have checked; they do not convert or check them again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .autoencoder import sigmoid
from .errors import IoError
from .model_io import decode_array, encode_array

if TYPE_CHECKING:
    from .detectors import GbtDetector, RandomForestDetector


# --- split search ----------------------------------------------------------

# Both scores divide by zero on an empty or weightless side and mask the
# result; they run under the errstate that _Presorted.grow sets.

def _gini_weighted(n_side, pos_side):
    # n_side * gini = n - (pos^2 + neg^2) / n, vectorized and 0-safe
    neg_side = n_side - pos_side
    w = n_side - (pos_side ** 2 + neg_side ** 2) / n_side
    return np.where(n_side > 0, w, np.inf)


def _gh_score(G, H, lam):
    return np.where(H + lam > 0, G ** 2 / (H + lam), 0.0)


def _split_value(lo: float, hi: float) -> float:
    """The threshold between consecutive distinct values lo < hi: their
    midpoint, or lo where the midpoint rounds up to hi (adjacent floats)
    or overflows, so that x <= threshold always sends lo left and hi
    right."""
    mid = (lo + hi) / 2.0
    return mid if mid < hi else lo


class _Gini:
    """CART: per distinct row, S1 sums the labels of its copies and S2
    counts them (for a forest tree, the copies its bootstrap drew); leaves
    hold the positive fraction and each side needs min_samples_leaf
    copies."""

    def __init__(self, min_samples_leaf: int):
        self.min_weight = min_samples_leaf

    def leaf(self, S1, S2):
        return S1 / S2

    def is_final(self, S1, S2, rows):
        return S1 == 0 or S1 == S2 or S2 < 2 * self.min_weight

    def gains(self, S1, S2, L1, L2, R1, R2):
        parent = 1.0 - (S1 / S2) ** 2 - ((S2 - S1) / S2) ** 2
        return parent - (_gini_weighted(L2, L1) + _gini_weighted(R2, R1)) / S2


class _Newton:
    """Boosting: S1 sums gradients g, S2 hessians h. Gain is
    0.5*(GL^2/(HL+lam) + GR^2/(HR+lam) - G^2/(H+lam)) - gamma_split and
    each side needs a hessian sum of at least min_child_weight."""

    def __init__(self, det: GbtDetector):
        self.lam = det.lam
        self.gamma_split = det.gamma_split
        self.min_weight = det.min_child_weight

    def leaf(self, G, H):
        return -G / (H + self.lam) if H + self.lam > 0 else 0.0

    def is_final(self, G, H, rows):
        # rows counts distinct rows, and one distinct row has no split; the
        # sides' exact hessian sums add up to H, so below 2 * min_weight no
        # split can give both sides min_child_weight
        return rows < 2 or H < 2 * self.min_weight

    def gains(self, G, H, GL, HL, GR, HR):
        lam = self.lam
        parent = _gh_score(np.float64(G), np.float64(H), lam)
        return (0.5 * (_gh_score(GL, HL, lam) + _gh_score(GR, HR, lam) - parent)
                - self.gamma_split)


# Columns with at most this many distinct training values search value
# histograms; the others scan their presorted values.
_HIST_VALUES = 256
_BLOCK_ROWS = 1024  # rows per matrix product over the 0/1 block


def _distinct_rows(keys: list[np.ndarray], n: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Groups n rows by their values in keys, one array of n per key:
    index[i] is row i's group and rows[j] the first row of group j, with
    groups numbered in the order of their first rows."""
    order = np.lexsort(keys)  # stable: a group's first row leads it
    new = np.zeros(n, dtype=bool)
    new[:1] = True
    for k in keys:
        k = k[order]
        new[1:] |= k[1:] != k[:-1]
    firsts = order[new]
    is_first = np.zeros(n, dtype=bool)
    is_first[firsts] = True
    number = np.cumsum(is_first) - 1  # a first row's group, in row order
    index = np.empty(n, dtype=np.int64)
    index[order] = number[firsts][np.cumsum(new) - 1]
    return index, np.flatnonzero(is_first)


class _Presorted:
    """One fit's split-search data over the distinct rows of X, shared by
    every tree of a forest: index maps each row of X to its distinct row
    and rows gives each distinct row's first row in X, so distinct rows
    keep the order of their first copies. Over the distinct rows it holds
    the 0/1 histogram columns as one uint8 block, the other histogram
    columns as offset value codes, and a contiguous copy and a stable
    argsort of every scan column. A tree may grow on any ascending subset
    of the distinct rows, summing each one's copies (see sums).

    Two rows are merged when they are equal in the bytes of every column
    that is not 0/1, so that every value the search reads from a distinct
    row is the value of each of its copies; a 0/1 column only has the
    threshold 0.5, so there -0.0 and 0.0 may merge."""

    def __init__(self, X: np.ndarray):
        self.X = X
        n = X.shape[0]
        zero, one = X == 0.0, X == 1.0
        is01 = np.all(zero | one, axis=0)
        n01 = zero.any(axis=0) + one.any(axis=0).astype(np.int64)
        del zero, one
        self.bits = np.flatnonzero(is01 & (n01 <= _HIST_VALUES))
        block = np.empty((n, self.bits.size), dtype=np.uint8)
        for lo in range(0, n, _BLOCK_ROWS):  # no float64 copy
            block[lo:lo + _BLOCK_ROWS] = X[lo:lo + _BLOCK_ROWS, self.bits]
        # the grouping keys: the 0/1 block packed into 64-bit words, then
        # per other column its value rank (every NaN its own) and, where
        # it holds -0.0, its sign bit at zero
        packed = np.packbits(block, axis=1)
        words = np.zeros((n, -(-packed.shape[1] // 8) * 8), dtype=np.uint8)
        words[:, :packed.shape[1]] = packed
        keys = list(words.view(np.uint64).T)
        codes, values, feats, scans = [], [], [], {}
        for f in np.flatnonzero(~is01 | (n01 > _HIST_VALUES)).tolist():
            v = np.ascontiguousarray(X[:, f])
            order = np.argsort(v, kind="stable")
            sv = v[order]
            first = np.r_[True, sv[1:] != sv[:-1]]  # first row of each value
            rank = np.empty(n, dtype=np.int64)
            rank[order] = np.cumsum(first) - 1
            keys.append(rank)
            negative_zero = (v == 0.0) & np.signbit(v)
            if negative_zero.any():
                keys.append(negative_zero)
            if np.count_nonzero(first) <= _HIST_VALUES:
                codes.append(rank)
                values.append(sv[first])
                feats.append(f)
            else:
                scans[f] = order
        self.index, self.rows = _distinct_rows(keys, n)
        self.n = self.rows.size
        self.block = np.take(block, self.rows, axis=0)
        del block, packed, words, keys
        # a distinct row's first copy comes first among its copies in each
        # stable order, and distinct rows are in the order of their first
        # copies, so keeping only first copies gives the distinct rows'
        # stable orders
        is_first = np.zeros(n, dtype=bool)
        is_first[self.rows] = True
        self.cols, self.orders = {}, {}
        for f, order in scans.items():
            self.cols[f] = X[self.rows, f]
            self.orders[f] = self.index[order[is_first[order]]]
        # code column j owns bins j*width .. j*width + width - 1, one per
        # value in ascending order; bins past a column's values stay empty
        self.width = max(map(len, values), default=0)
        self.values = np.zeros((len(values), self.width))
        for j, v in enumerate(values):
            self.values[j, :v.size] = v
        self.values = self.values.ravel()
        self.code_feats = np.array(feats, dtype=np.int64)
        offsets = np.arange(len(codes)) * self.width
        self.codes = (np.column_stack(codes)[self.rows] + offsets).astype(
            np.min_scalar_type(max(self.values.size - 1, 0))) if codes else None
        self.mask = np.zeros(self.n, dtype=bool)  # scratch: rows going left

    def sums(self, weights=None) -> np.ndarray:
        """Per distinct row, the sum of weights (one per row of X) over its
        copies, or the number of its copies if weights is None."""
        return np.bincount(self.index, weights, self.n).astype(np.float64,
                                                               copy=False)

    def histogram(self, idx, a, b) -> np.ndarray:
        """The (count, S1, S2) sums over the distinct rows idx as a (3, bits
        + bins) array: per 0/1 column the sums over its rows that hold 1,
        then per bin of a code column the sums over its rows with that
        value. count counts distinct rows, so it only tells an empty side
        from one that is not."""
        nb = self.bits.size
        out = np.empty((3, nb + self.values.size))
        ai, bi = a[idx], b[idx]
        if nb:
            # in chunks of rows, so that the float64 copy of the block rows
            # stays small (a forest's peak memory is tested); the sums are
            # exact, so chunking changes none
            W = np.stack([np.ones(idx.size), ai, bi])
            out[:, :nb] = 0.0
            for lo in range(0, idx.size, _BLOCK_ROWS):
                rows = np.take(self.block, idx[lo:lo + _BLOCK_ROWS], axis=0)
                out[:, :nb] += (W[:, lo:lo + _BLOCK_ROWS]
                                @ rows.astype(np.float64))
        if self.codes is not None:
            c = np.take(self.codes, idx, axis=0).ravel()
            k = self.codes.shape[1]
            out[0, nb:] = np.bincount(c, minlength=self.values.size)
            out[1, nb:] = np.bincount(c, np.repeat(ai, k), self.values.size)
            out[2, nb:] = np.bincount(c, np.repeat(bi, k), self.values.size)
        return out

    def grow(self, crit, a, b, rows, feats, max_depth, sample=None,
             leaves=None) -> FlatTree:
        """One tree on the ascending distinct rows rows, summing (a, b),
        which hold one entry per distinct row. Every node searches feats,
        or the sorted subset sample() draws from feats; nodes grow depth
        first, so sample() is called in pre-order. If leaves is given,
        leaves[i] is set to the value of the leaf that distinct row i of
        rows reaches, the value route_trees gives its copies."""
        X, mask = self.X, self.mask
        member = np.zeros(self.n, dtype=bool)
        member[rows] = True
        orders = {f: o[member[o]] for f, o in self.orders.items() if f in feats}
        nodes: list[list] = []  # FlatTree.of_rows rows, in pre-order

        def searched(S1, S2, m, depth):
            return depth < max_depth and not crit.is_final(S1, S2, m)

        def node(idx, S1, S2, hist, orders, depth):
            # hist is the node's histogram if it is searched, else None
            split = None
            if hist is not None:
                cand = feats if sample is None else sample()
                split = self._best_split(crit, a, b, idx, orders, cand, hist,
                                         S1, S2)
            if split is None:
                value = crit.leaf(S1, S2)
                nodes.append([-1, 0.0, value, 0.0])
                if leaves is not None:
                    leaves[idx] = value
                return
            f, thr, gain = split
            nodes.append([f, float(thr), 0.0, float(gain)])
            go_left = X[self.rows[idx], f] <= thr
            mask[idx] = go_left
            halves = {}, {}
            for g, s in orders.items():
                keep = mask[s]
                halves[0][g], halves[1][g] = s[keep], s[~keep]
            orders.clear()  # its halves replace it down the recursion
            kids = idx[go_left], idx[~go_left]
            # sum the smaller child; the larger one is the parent minus it
            small = int(kids[1].size < kids[0].size)
            s1, s2 = float(a[kids[small]].sum()), float(b[kids[small]].sum())
            sums = [(s1, s2)] * 2
            sums[1 - small] = (S1 - s1, S2 - s2)
            go = [searched(*sums[j], kids[j].size, depth + 1) for j in (0, 1)]
            hists = [None, None]
            if go[0] or go[1]:
                h = self.histogram(kids[small], a, b)
                hists[small] = h if go[small] else None
                hists[1 - small] = hist - h if go[1 - small] else None
            for j in (0, 1):
                node(kids[j], *sums[j], hists[j], halves[j], depth + 1)

        with np.errstate(divide="ignore", invalid="ignore"):
            try:
                S1, S2 = float(a[rows].sum()), float(b[rows].sum())
                root = (self.histogram(rows, a, b)
                        if searched(S1, S2, rows.size, 0) else None)
                node(rows, S1, S2, root, orders, 0)
            finally:
                # node refers to itself; without this the cycle would keep
                # the tree's search data until a garbage collection
                del node
        return FlatTree.of_rows(nodes)

    def _best_split(self, crit, a, b, idx, orders, feats, hist, S1, S2):
        """Best (feature, threshold, gain) at a node, or None.

        Every candidate's left side sums come from the node's histogram or
        from cumulative sums over a scan column's presorted order; one
        gain evaluation scores them all. Equal computed gains keep the
        lowest feature, and within a feature the lowest threshold."""
        S = np.array([[idx.size], [S1], [S2]], dtype=np.float64)
        nb = self.bits.size
        lefts = [S - hist[:, :nb]]  # a 0/1 column's left side holds its 0s
        cand_feats = [self.bits]
        held = cut = np.zeros(0, dtype=np.int64)
        if self.codes is not None:
            bins = hist[:, nb:]
            held = np.flatnonzero(bins[0])
            col = held // self.width
            cut = np.flatnonzero(col[1:] == col[:-1])  # held[cut] | held[cut+1]
            cum = np.cumsum(bins.reshape(3, -1, self.width), axis=2)
            lefts.append(cum.reshape(3, -1)[:, held[cut]])
            cand_feats.append(self.code_feats[col[cut]])
        allowed = np.zeros(self.X.shape[1], dtype=bool)
        allowed[feats] = True
        scans = []
        for f, s in orders.items():
            if not allowed[f]:
                continue
            sv = self.cols[f][s]
            boundary = np.flatnonzero(sv[1:] != sv[:-1])
            lefts.append(np.stack([boundary + 1.0, np.cumsum(a[s])[boundary],
                                   np.cumsum(b[s])[boundary]]))
            cand_feats.append(np.full(boundary.size, f))
            scans.append((sv, boundary))
        L = np.concatenate(lefts, axis=1)
        if L.shape[1] == 0:
            return None
        R = S - L
        feat = np.concatenate(cand_feats)
        valid = ((L[0] > 0) & (R[0] > 0) & allowed[feat]
                 & (L[2] >= crit.min_weight) & (R[2] >= crit.min_weight))
        gains = np.where(valid, crit.gains(S1, S2, L[1], L[2], R[1], R[2]),
                         -np.inf)
        j = int(np.argmax(gains))
        if not gains[j] > 0.0:
            return None
        ties = np.flatnonzero(gains == gains[j])
        j = int(ties[np.argmin(feat[ties])])  # first: lowest threshold
        f, gain = int(feat[j]), gains[j]
        if j < nb:
            return f, 0.5, gain
        j -= nb
        if j < cut.size:
            return f, _split_value(self.values[held[cut[j]]],
                                   self.values[held[cut[j] + 1]]), gain
        j -= cut.size
        for sv, boundary in scans:
            if j < boundary.size:
                lo, hi = sv[boundary[j]], sv[boundary[j] + 1]
                return f, _split_value(lo, hi), gain
            j -= boundary.size


# --- CART --------------------------------------------------------------------

def fit_cart(X: np.ndarray, y: np.ndarray, max_depth: int = 12,
             min_samples_leaf: int = 1) -> FlatTree:
    """Greedy CART by Gini impurity reduction over every feature; leaves
    store the positive-class fraction."""
    data = _Presorted(X)
    all_feats = np.arange(X.shape[1])
    return data.grow(_Gini(min_samples_leaf), data.sums(y), data.sums(),
                     np.arange(data.n), all_feats, max_depth)


def _sampler(rng: np.random.Generator, feats: np.ndarray, k: int):
    """Per-node feature sampling: each call draws k of feats, sorted."""
    return lambda: np.sort(rng.choice(feats, size=k, replace=False))


@dataclass
class FlatTree:
    """A tree as four parallel arrays in pre-order, left subtree first: the
    one form every model grows, routes and stores.

    Node i is a leaf when feature[i] == -1; otherwise x goes to its left
    child, node i + 1, when x[feature[i]] <= threshold[i], else to its
    right child, the node after its left subtree (_children finds both).
    value holds the leaf outputs: CART fractions, boosting weights or
    isolation path lengths; gain holds each split's gain. An entry a node
    does not use is 0.0 (a split's value, a leaf's threshold and gain, and
    every gain of an isolation tree).
    """

    feature: np.ndarray    # int64
    threshold: np.ndarray  # float64
    value: np.ndarray      # float64
    gain: np.ndarray       # float64

    @classmethod
    def of_rows(cls, rows: list) -> "FlatTree":
        """The tree whose node i is rows[i] = [feature, threshold, value,
        gain]."""
        feature, threshold, value, gain = zip(*rows)
        return cls(np.array(feature, dtype=np.int64), np.array(threshold),
                   np.array(value), np.array(gain))


# (row, tree) cells routed together; a block's index arrays stay in cache
_ROUTE_CELLS = 1 << 14
# cells per block of rows that mean_route and gbt_margins route at a time,
# so that their memory does not grow with rows times trees
_SUM_CELLS = 1 << 20


def route_trees(trees: list[FlatTree], X: np.ndarray) -> np.ndarray:
    """The (len(trees), rows) leaf values the rows of X reach in each tree."""
    return _router(trees)(X)


def _router(trees: list[FlatTree]):
    """route_trees(trees, ·) as a function of X, its tables built once.

    The trees are stacked end to end, their children found by _children,
    and node i becomes the slots 2i, holding its right child's slot, and
    2i + 1, holding its left child's, so that one routing step is the take
    child[slot + (x <= threshold)]. A leaf's slots both hold the leaf and
    its threshold is +inf, so a cell that sits on a leaf stays there
    whatever its row holds, NaN included. The (row, tree) cells are routed
    row by row in blocks of _ROUTE_CELLS, by flat takes on X, one step per
    level until every cell of the block sits on a leaf."""
    sizes = [t.feature.size for t in trees]
    roots = np.cumsum([0, *sizes[:-1]])
    feature = np.concatenate([t.feature for t in trees])
    leaf = feature < 0
    here = 2 * np.arange(feature.size)
    left, right = _children(feature, sizes)
    child = np.empty(2 * feature.size, dtype=np.int64)
    child[0::2] = np.where(leaf, here, 2 * right)
    child[1::2] = np.where(leaf, here, 2 * left)
    column = np.repeat(np.where(leaf, 0, feature), 2)
    threshold = np.repeat(np.where(
        leaf, np.inf, np.concatenate([t.threshold for t in trees])), 2)
    stop = np.repeat(leaf, 2)
    value = np.concatenate([t.value for t in trees])

    def route(X: np.ndarray) -> np.ndarray:
        n, width = X.shape
        flat_x = np.ascontiguousarray(X).ravel()
        out = np.empty((n, len(trees)))
        cells = out.reshape(-1)  # cell c: row c // len(trees), tree c % len(trees)
        for lo in range(0, cells.size, _ROUTE_CELLS):
            row, tree = np.divmod(
                np.arange(lo, min(lo + _ROUTE_CELLS, cells.size)), len(trees))
            at = 2 * roots[tree]
            base = row * width
            while not stop[at].all():
                at = child[at + (flat_x[base + column[at]] <= threshold[at])]
            cells[lo:lo + at.size] = value[at >> 1]
        return out.T

    return route


def _sum_routes(trees: list[FlatTree], X: np.ndarray, start: float,
                scale: float) -> np.ndarray:
    """start plus scale times the leaf value each row of X reaches in each
    tree, added tree by tree."""
    route = _router(trees)
    out = np.full(X.shape[0], start)
    step = max(1, _SUM_CELLS // len(trees))
    for lo in range(0, X.shape[0], step):
        acc = out[lo:lo + step]
        for leaves in route(X[lo:lo + step]):
            acc += scale * leaves
    return out


def mean_route(trees: list[FlatTree], X: np.ndarray) -> np.ndarray:
    """The mean over trees of the leaf value each row of X reaches, added
    tree by tree."""
    return _sum_routes(trees, X, 0.0, 1.0) / len(trees)


# --- model file payload ------------------------------------------------------

def _children(feature: np.ndarray, sizes: list[int]
              ) -> tuple[np.ndarray, np.ndarray]:
    """The left and right child indices of the nodes of trees stored end to
    end in pre-order, left subtree first, sizes[t] nodes for tree t, as
    indices into those end-to-end arrays; -1 for a leaf's. IoError unless
    each span of sizes is exactly one complete binary tree.

    With steps +1 per split and -1 per leaf, before[k] sums the steps of
    the nodes before node k. If the trees before tree t are complete,
    before is -t at its root and 1 + t + before[k] counts the subtrees
    still to be read when its node k is. So tree t's span is one complete
    tree when before stays >= -t over it and is -t - 1 at its end. A
    split i's left child is i + 1 and its right child the first j > i
    with before[j] == before[i]: its left subtree has then been read."""
    step = np.where(feature >= 0, 1, -1)
    before = np.concatenate([[0], np.cumsum(step)])
    t = np.arange(len(sizes))
    ends = np.cumsum(sizes)
    if (np.any(before[ends] != -1 - t)
            or np.any(before[:-1] < -np.repeat(t, sizes))):
        raise IoError("tree sizes do not each span one complete binary "
                      "tree in pre-order")
    order = np.argsort(before[:-1], kind="stable")
    after = np.full(feature.size, -1)
    after[order[:-1]] = order[1:]  # the next node with the same count
    split = feature >= 0
    return (np.where(split, np.arange(1, feature.size + 1), -1),
            np.where(split, after, -1))


def trees_to_payload(trees: list[FlatTree]) -> dict:
    """The model file form of trees grown in pre-order, left subtree
    first: their node counts as "sizes" and their feature, threshold,
    value and gain arrays end to end as "trees"; the children are implied
    by the order."""

    def stacked(name):
        return np.concatenate([getattr(t, name) for t in trees])

    return {"sizes": [t.feature.size for t in trees],
            "trees": {"feature": stacked("feature").tolist(),
                      "threshold": encode_array(stacked("threshold")),
                      "value": encode_array(stacked("value")),
                      "gain": encode_array(stacked("gain"))}}


def trees_from_payload(obj: dict, width: int) -> list[FlatTree]:
    """The trees trees_to_payload wrote, as views of one array per field,
    checked so that routing ends and reads only columns below width;
    IoError otherwise."""
    sizes, arrays = obj["sizes"], obj["trees"]
    if not (isinstance(sizes, list) and sizes
            and all(type(s) is int and s >= 1 for s in sizes)):
        raise IoError("tree sizes are not a non-empty list of node counts "
                      "of at least 1")
    if not isinstance(arrays, dict):
        raise IoError("trees is not an object")
    try:
        feature = np.array(arrays["feature"])
    except ValueError as exc:  # nested lists of uneven lengths
        raise IoError(f"tree feature list is malformed: {exc}") from exc
    threshold, value, gain = (decode_array(arrays[k])
                              for k in ("threshold", "value", "gain"))
    n = sum(sizes)
    shapes = [a.shape for a in (feature, threshold, value, gain)]
    if any(s != (n,) for s in shapes) or feature.dtype != np.int64:
        raise IoError(f"tree arrays have shapes {shapes}, need the {n} nodes "
                      "the sizes sum to and integer features")
    if np.any((feature < -1) | (feature >= width)):
        raise IoError(f"tree split on a feature outside [0, {width})")
    _children(feature, sizes)  # IoError unless the sizes span whole trees
    parts = feature, threshold, value, gain
    starts = np.cumsum([0, *sizes[:-1]]).tolist()
    return [FlatTree(*(a[lo:lo + m] for a in parts))
            for lo, m in zip(starts, sizes)]


# --- random forest -----------------------------------------------------------

def fit_random_forest(X, y, det: RandomForestDetector) -> list[FlatTree]:
    """Bagged CARTs grown with det's n_trees, max_depth, features_per_split,
    bootstrap_fraction and seed: each tree sees a bootstrap resample and
    samples features_per_split candidate features at every node.

    All trees share one _Presorted of X. A tree grows on the distinct rows
    of X it drew, weighted by how often it drew their copies, and equals
    the CART grown on the resample X[rows], y[rows] with the same per-node
    feature samples."""
    n, width = X.shape
    k = det.features_per_split
    if k is None:
        k = max(1, round(math.sqrt(width)))
    k = min(k, width)
    sample_size = max(1, round(det.bootstrap_fraction * n))
    data = _Presorted(X)
    crit = _Gini(1)
    y = y.astype(np.float64)
    all_feats = np.arange(width)
    trees = []
    for stream in np.random.SeedSequence(det.seed).spawn(det.n_trees):
        rng = np.random.default_rng(stream)
        drawn = np.bincount(rng.integers(0, n, size=sample_size), minlength=n)
        w = data.sums(drawn)
        sample = None if k == width else _sampler(rng, all_feats, k)
        trees.append(data.grow(crit, data.sums(y * drawn), w, np.flatnonzero(w),
                               all_feats, det.max_depth, sample))
    return trees


# --- gradient boosting ---------------------------------------------------------

def _log_loss(margin: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(np.logaddexp(0.0, margin) - y * margin))


def _base_margin(base_score: float) -> float:
    return math.log(base_score / (1.0 - base_score))


def gbt_margins(det: GbtDetector, X: np.ndarray) -> np.ndarray:
    """The margin of each row of X: the base margin of det.base_score plus
    det.learning_rate times the leaf value it reaches in each of det.trees,
    added tree by tree."""
    return _sum_routes(det.trees, X, _base_margin(det.base_score),
                       det.learning_rate)


def _on_grid(v: np.ndarray, s: int) -> np.ndarray:
    """v rounded to the nearest multiples of 2**-s (ties to even)."""
    return np.ldexp(np.rint(np.ldexp(v, s)), -s)


def fit_gbt(X, y, det: GbtDetector) -> tuple[list[FlatTree], list[float]]:
    """Additive logistic-loss boosting with second-order split gains, grown
    with det's params (rounds, learning_rate, max_depth, lam, ..., seed).
    Returns the trees and the loss trace.

    Per round: gradients g = p - y and hessians h = p(1-p) at the current
    margins, rounded to multiples of 2**-s so that their sums are exact;
    one tree grown on (g, h); leaf weights -G/(H+lam) added to the
    margins scaled by the learning rate. loss_trace[0] is the loss at the
    base score, one entry per round follows.

    Copies of a row reach the same leaves, so margins and leaf values are
    kept per distinct row of X and the tree grows on each distinct row's
    sums of g and h over its copies in the round's sample.
    """
    y = y.astype(np.float64)
    n, n_features = X.shape
    s = 53 - n.bit_length()  # n.bit_length() == ceil(log2(n + 1))
    data = _Presorted(X)
    index = data.index
    crit = _Newton(det)
    margin = np.full(data.n, _base_margin(det.base_score))
    trees = []
    loss_trace = [_log_loss(margin[index], y)]
    streams = np.random.SeedSequence(det.seed).spawn(det.rounds)
    all_feats = np.arange(n_features)
    every_row = np.ones(n)
    leaves = np.empty(data.n)  # each distinct row's leaf value this round

    for r in range(det.rounds):
        rng = np.random.default_rng(streams[r])
        p = sigmoid(margin)
        g = _on_grid(p[index] - y, s)  # per row: copies may differ in y
        h = _on_grid(p * (1.0 - p), s)  # per distinct row
        if det.subsample < 1.0:
            m = max(1, round(det.subsample * n))
            sampled = np.bincount(rng.choice(n, size=m, replace=False),
                                  minlength=n)
        else:
            sampled = every_row
        if det.colsample < 1.0:
            k = max(1, round(det.colsample * n_features))
            candidates = np.sort(rng.choice(all_feats, size=k, replace=False))
        else:
            candidates = all_feats
        count = data.sums(sampled)
        rows = np.flatnonzero(count)
        # count * h sums h over the sampled copies, exactly like adding them
        tree = data.grow(crit, data.sums(g * sampled), count * h, rows,
                         candidates, det.max_depth, leaves=leaves)
        trees.append(tree)
        if rows.size < data.n:  # distinct rows the tree was not grown on
            out = np.ones(data.n, dtype=bool)
            out[rows] = False
            leaves[out] = route_trees([tree], X[data.rows[out]])[0]
        margin += det.learning_rate * leaves
        loss_trace.append(_log_loss(margin[index], y))
    return trees, loss_trace


def feature_importance(trees: list[FlatTree], width: int) -> np.ndarray:
    """Total split gain per feature across trees, normalized to sum 1,
    added tree by tree in pre-order. Trees that never split give all
    zeros."""
    feature = np.concatenate([t.feature for t in trees])
    split = feature >= 0
    gain = np.concatenate([t.gain for t in trees])[split]
    # bincount adds each bin's weights in index order
    total = np.bincount(feature[split], weights=gain, minlength=width)
    s = total.sum()
    return total / s if s > 0 else total
