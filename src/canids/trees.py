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
Two features that make the same partition need not compute equal gains,
though. A 0/1 column c takes its right side's sums A1 from a dot product
and its left side's as S - A1; its complement 1 - c gets its own A1 from
its own dot product, so each side's sum comes out of a different
expression and can differ from c's in the last bit. CART's sums are
integers, exact either way, so c wins; boosting's gradient sums are not,
and the higher index can win (it won 359 of 941 gbt splits on such a pair
next to one noise column, 5 rounds of depth 1).

Each fit prepares its columns once, as in the presorted column blocks of
exact greedy XGBoost but without histograms; a random forest prepares them
once for all its trees. Columns whose training values are all 0/1 (the 64
payload bits) have the single candidate threshold 0.5; they are copied
into one C-contiguous block, a node takes its rows from it, and one
matrix-vector product per statistic sums them. Every other column is
argsorted once (stable); a node keeps its rows in that order and its
children inherit it by stable partition. A node's rows are always
ascending, so that order equals a per-node stable argsort and BLAS gets the
same float64 rows in the same layout as a per-node gather: every sum is
taken over the same numbers in the same order, and the trees are bit for
bit those of a search that gathers and sorts at each node.

A forest tree grows on the distinct rows of its bootstrap sample, each
weighted by the number of times it was drawn: CART sums (label * weight,
weight) where a tree on the resampled copy X[rows] sums (label, 1). The
Gini sums are integers below 2**53, exact in any order, so the trees are
bit for bit those grown on X[rows], also where a column is 0/1 only within
the sample: both searches give it the one threshold 0.5.

Every tree is a FlatTree: parallel arrays in pre-order, left subtree
first, which the growers write as they go. Every model, the isolation
forest in density included, routes rows through it with the one test
x <= threshold, and model files hold it as a FlatTree payload.

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
    """CART: S1 sums the rows' labels times their weights and S2 the
    weights, which are 1 or bootstrap multiplicities; leaves hold the
    positive fraction and each side needs a weight of min_samples_leaf."""

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
        return rows < 2

    def gains(self, G, H, GL, HL, GR, HR):
        lam = self.lam
        parent = _gh_score(np.float64(G), np.float64(H), lam)
        return (0.5 * (_gh_score(GL, HL, lam) + _gh_score(GR, HR, lam) - parent)
                - self.gamma_split)


class _Presorted:
    """One fit's split-search data, shared by every tree of a forest: which
    columns are 0/1, and a contiguous copy and a stable argsort of every
    other column. A tree may grow on any ascending subset of the rows."""

    def __init__(self, X: np.ndarray):
        self.X = X
        self.is_binary = np.all((X == 0.0) | (X == 1.0), axis=0)
        self.cols = {f: np.ascontiguousarray(X[:, f])
                     for f in np.flatnonzero(~self.is_binary).tolist()}
        self.orders = {f: np.argsort(v, kind="stable") for f, v in self.cols.items()}
        self.mask = np.zeros(X.shape[0], dtype=bool)  # scratch: rows going left

    def block(self, feats: np.ndarray) -> np.ndarray:
        """The 0/1 columns among feats as a C-contiguous uint8 block."""
        return np.ascontiguousarray(self.X[:, feats[self.is_binary[feats]]],
                                    dtype=np.uint8)

    def grow(self, crit, a, b, rows, feats, max_depth, block=None, sample=None,
             leaves=None) -> FlatTree:
        """One tree on the ascending row indices rows, summing (a, b).
        Every node searches feats, or the sorted subset sample() draws from
        feats. The 0/1 candidates' rows come from block, which holds exactly
        the 0/1 columns of feats, or from X per node when block is None.
        If leaves is given, leaves[i] is set to the value of the leaf that
        row i of rows reaches, the value FlatTree.route gives it."""
        X, mask = self.X, self.mask
        member = np.zeros(X.shape[0], dtype=bool)
        member[rows] = True
        orders = {f: o[member[o]] for f, o in self.orders.items() if f in feats}
        nodes: list[list] = []  # FlatTree.of_rows rows, in pre-order

        def node(idx, orders, depth) -> int:
            i = len(nodes)
            S1 = float(a[idx].sum())
            S2 = float(b[idx].sum())
            split = None
            if depth < max_depth and not crit.is_final(S1, S2, idx.size):
                cand = feats if sample is None else sample()
                split = self._best_split(crit, a, b, idx, orders, cand, block,
                                         S1, S2)
            if split is None:
                value = crit.leaf(S1, S2)
                nodes.append([-1, 0.0, -1, -1, value, 0.0])
                if leaves is not None:
                    leaves[idx] = value
                return i
            f, thr, gain = split
            nodes.append([f, float(thr), -1, -1, 0.0, float(gain)])
            go_left = X[idx, f] <= thr
            mask[idx] = go_left
            left, right = {}, {}
            for g, s in orders.items():
                keep = mask[s]
                left[g], right[g] = s[keep], s[~keep]
            orders.clear()  # its halves replace it down the recursion
            nodes[i][2] = node(idx[go_left], left, depth + 1)
            nodes[i][3] = node(idx[~go_left], right, depth + 1)
            return i

        with np.errstate(divide="ignore", invalid="ignore"):
            try:
                node(rows, orders, 0)
            finally:
                # node refers to itself; without this the cycle would keep
                # the tree's search data until a garbage collection
                del node
        return FlatTree.of_rows(nodes)

    def _best_split(self, crit, a, b, idx, orders, feats, block, S1, S2):
        """Best (feature, threshold, gain) at a node, or None.

        A 0/1 column's right side sums come from one matrix-vector product
        over the node's block rows; any other column's left sums are
        cumulative sums in its presorted order. Equal computed gains keep
        the lowest feature, and within a feature the lowest threshold."""
        m = idx.size
        found = []

        def masked_gains(nL, L1, L2, nR, R1, R2):
            valid = ((nL > 0) & (nR > 0)
                     & (L2 >= crit.min_weight) & (R2 >= crit.min_weight))
            return np.where(valid, crit.gains(S1, S2, L1, L2, R1, R2), -np.inf)

        bits = feats[self.is_binary[feats]]
        if bits.size:
            # float64 rows in C order either way, so BLAS sums them alike
            B = (np.take(block, idx, axis=0).astype(np.float64)
                 if block is not None else self.X[np.ix_(idx, bits)])
            n1 = np.ones(m) @ B
            A1 = a[idx] @ B
            W1 = b[idx] @ B
            gains = masked_gains(m - n1, S1 - A1, S2 - W1, n1, A1, W1)
            j = int(np.argmax(gains))
            found.append((gains[j], -int(bits[j]), 0.5))

        for f in feats[~self.is_binary[feats]].tolist():
            s = orders[f]
            sv = self.cols[f][s]
            boundary = np.flatnonzero(sv[1:] != sv[:-1])
            if boundary.size == 0:
                continue
            nL = boundary + 1.0
            L1 = np.cumsum(a[s])[boundary]
            L2 = np.cumsum(b[s])[boundary]
            gains = masked_gains(nL, L1, L2, m - nL, S1 - L1, S2 - L2)
            j = int(np.argmax(gains))  # first max: lowest threshold wins ties
            found.append((gains[j], -f, _split_value(sv[boundary[j]],
                                                     sv[boundary[j] + 1])))

        if not found:
            return None
        gain, neg_f, thr = max(found)  # equal gains: the larger -f wins
        return (-neg_f, thr, gain) if gain > 0.0 else None


# --- CART --------------------------------------------------------------------

def fit_cart(X: np.ndarray, y: np.ndarray, max_depth: int = 12,
             min_samples_leaf: int = 1) -> FlatTree:
    """Greedy CART by Gini impurity reduction over every feature; leaves
    store the positive-class fraction."""
    data = _Presorted(X)
    all_feats = np.arange(X.shape[1])
    return data.grow(_Gini(min_samples_leaf), y.astype(np.float64),
                     np.ones(len(y)), np.arange(len(y)), all_feats, max_depth,
                     data.block(all_feats))


def _sampler(rng: np.random.Generator, feats: np.ndarray, k: int):
    """Per-node feature sampling: each call draws k of feats, sorted."""
    return lambda: np.sort(rng.choice(feats, size=k, replace=False))


@dataclass
class FlatTree:
    """A tree as parallel arrays, the one form every model grows, routes
    and stores.

    Node i is a leaf when feature[i] == -1; otherwise x goes to left[i]
    when x[feature[i]] <= threshold[i], else to right[i]. Children come
    after their parent. value holds the leaf outputs: CART fractions,
    boosting weights or isolation path lengths; gain holds each split's
    gain. An entry a node does not use is -1 (a leaf's children) or 0.0
    (a split's value, a leaf's threshold and gain, and every gain of an
    isolation tree).
    """

    feature: np.ndarray    # int64
    threshold: np.ndarray  # float64
    left: np.ndarray       # int64
    right: np.ndarray      # int64
    value: np.ndarray      # float64
    gain: np.ndarray       # float64

    @classmethod
    def of_rows(cls, rows: list) -> "FlatTree":
        """The tree whose node i is rows[i] = [feature, threshold, left,
        right, value, gain]."""
        feature, threshold, left, right, value, gain = zip(*rows)
        return cls(np.array(feature, dtype=np.int64), np.array(threshold),
                   np.array(left, dtype=np.int64),
                   np.array(right, dtype=np.int64), np.array(value),
                   np.array(gain))

    def route(self, X: np.ndarray) -> np.ndarray:
        """The leaf value each row of X reaches."""
        node = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            feats = self.feature[node]
            internal = feats >= 0
            if not internal.any():
                return self.value[node]
            rows = np.flatnonzero(internal)
            fvals = X[rows, feats[rows]]
            go_left = fvals <= self.threshold[node[rows]]
            node[rows] = np.where(go_left, self.left[node[rows]],
                                  self.right[node[rows]])

    def to_payload(self) -> dict:
        return {"feature": self.feature.tolist(),
                "threshold": encode_array(self.threshold),
                "left": self.left.tolist(),
                "right": self.right.tolist(),
                "value": encode_array(self.value),
                "gain": encode_array(self.gain)}

    @classmethod
    def from_payload(cls, obj: dict, width: int) -> "FlatTree":
        """The tree to_payload wrote, checked so that route ends and reads
        only columns below width; IoError otherwise."""
        try:
            feature, left, right = [np.array(obj[k])
                                    for k in ("feature", "left", "right")]
        except ValueError as exc:  # nested lists of uneven lengths
            raise IoError(f"tree index list is malformed: {exc}") from exc
        tree = cls(feature, decode_array(obj["threshold"]), left, right,
                   decode_array(obj["value"]), decode_array(obj["gain"]))
        arrays = (feature, tree.threshold, left, right, tree.value, tree.gain)
        n = feature.size
        if (n == 0 or any(a.shape != (n,) for a in arrays)
                or any(a.dtype != np.int64 for a in (feature, left, right))):
            raise IoError(f"tree arrays have shapes {[a.shape for a in arrays]}"
                          ", need one non-empty length and integer indices")
        if np.any((feature < -1) | (feature >= width)):
            raise IoError(f"tree split on a feature outside [0, {width})")
        parent = np.flatnonzero(feature >= 0)
        for kids in (left[parent], right[parent]):
            if np.any((kids <= parent) | (kids >= n)):
                raise IoError("tree child index does not lie after its "
                              f"parent and below {n}")
        return tree


def mean_route(trees: list[FlatTree], X: np.ndarray) -> np.ndarray:
    """The mean over trees of the leaf value each row of X reaches."""
    acc = np.zeros(X.shape[0])
    for tree in trees:
        acc += tree.route(X)
    return acc / len(trees)


# --- random forest -----------------------------------------------------------

def fit_random_forest(X, y, det: RandomForestDetector) -> list[FlatTree]:
    """Bagged CARTs grown with det's n_trees, max_depth, features_per_split,
    bootstrap_fraction and seed: each tree sees a bootstrap resample and
    samples features_per_split candidate features at every node.

    All trees share one _Presorted of X. A tree grows on the distinct rows
    it drew, weighted by how often it drew them, and equals the CART grown
    on the resample X[rows], y[rows] with the same per-node feature
    samples."""
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
    block = data.block(all_feats) if k == width else None
    trees = []
    for stream in np.random.SeedSequence(det.seed).spawn(det.n_trees):
        rng = np.random.default_rng(stream)
        w = np.bincount(rng.integers(0, n, size=sample_size), minlength=n)
        rows = np.flatnonzero(w)
        w = w.astype(np.float64)
        sample = None if block is not None else _sampler(rng, all_feats, k)
        trees.append(data.grow(crit, y * w, w, rows, all_feats, det.max_depth,
                               block, sample))
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
    m = np.full(X.shape[0], _base_margin(det.base_score))
    for tree in det.trees:
        m += det.learning_rate * tree.route(X)
    return m


def fit_gbt(X, y, det: GbtDetector) -> tuple[list[FlatTree], list[float]]:
    """Additive logistic-loss boosting with second-order split gains, grown
    with det's params (rounds, learning_rate, max_depth, lam, ..., seed).
    Returns the trees and the loss trace.

    Per round: gradients g = p - y and hessians h = p(1-p) at the current
    margins; one tree grown on (g, h); leaf weights -G/(H+lam) added to the
    margins scaled by the learning rate. loss_trace[0] is the loss at the
    base score, one entry per round follows.
    """
    y = y.astype(np.float64)
    n, n_features = X.shape
    data = _Presorted(X)
    crit = _Newton(det)
    margin = np.full(n, _base_margin(det.base_score))
    trees = []
    loss_trace = [_log_loss(margin, y)]
    streams = np.random.SeedSequence(det.seed).spawn(det.rounds)
    all_feats = np.arange(n_features)
    full_block = None if det.colsample < 1.0 else data.block(all_feats)
    leaves = np.empty(n)  # each row's leaf value in the round's tree

    for r in range(det.rounds):
        rng = np.random.default_rng(streams[r])
        p = sigmoid(margin)
        g = p - y
        h = p * (1.0 - p)
        if det.subsample < 1.0:
            m = max(1, round(det.subsample * n))
            rows = np.sort(rng.choice(n, size=m, replace=False))
        else:
            rows = np.arange(n)
        if det.colsample < 1.0:
            k = max(1, round(det.colsample * n_features))
            candidates = np.sort(rng.choice(all_feats, size=k, replace=False))
        else:
            candidates = all_feats
        block = data.block(candidates) if full_block is None else full_block
        tree = data.grow(crit, g, h, rows, candidates, det.max_depth, block,
                         leaves=leaves)
        trees.append(tree)
        if rows.size < n:  # rows the tree was not grown on
            out = np.ones(n, dtype=bool)
            out[rows] = False
            leaves[out] = tree.route(X[out])
        margin += det.learning_rate * leaves
        loss_trace.append(_log_loss(margin, y))
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
