"""From-scratch tree models: CART, bootstrap random forest, and
second-order gradient-boosted trees with gain importance.

Split search is exact greedy: candidate thresholds are the midpoints
between consecutive distinct sorted feature values (the lower value where
the midpoint rounds up to the upper one). Gain ties break to the
lowest feature index, and within a feature to the lowest threshold, so fits
are deterministic. CART and boosting share one search over the left and
right sides' (count, S1, S2) sums: CART sums (label, 1) and scores Gini
decrease, boosting sums (gradient, hessian) and scores the second-order
gain.

Each fit prepares its columns once, as in the presorted column blocks of
exact greedy XGBoost but without histograms. Columns whose training values
are all 0/1 (the 64 payload bits) have the single candidate threshold 0.5;
they are copied into one C-contiguous block, a node takes its rows from
it, and one matrix-vector product per statistic sums them. Every other
column is argsorted once (stable); a node keeps its rows in that order and
its children inherit it by stable partition. A node's rows are always
ascending, so that order equals a per-node stable argsort and BLAS gets the
same float64 rows in the same layout as a per-node gather: every sum is
taken over the same numbers in the same order, and the trees are bit for
bit those of a search that gathers and sorts at each node.

Fitted trees are TreeNode objects; every model, the isolation forest in
density included, routes rows through FlatTree, their array form, with the
one test x <= threshold. Model files hold CART and boosted trees as nested
TreeNode dicts and isolation trees as FlatTree payloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .autoencoder import sigmoid
from .errors import EmptyData, IoError, NonBinaryLabels, UnfitModel, WrongWidth
from .model_io import decode_array, decode_float, encode_array, encode_float

if TYPE_CHECKING:
    from .detectors import GbtDetector, RandomForestDetector


@dataclass
class TreeNode:
    """Internal node (feature >= 0) or leaf (feature == -1).

    value holds the positive-class fraction for CART trees and the raw
    leaf weight for boosted trees. Routing goes left when x[feature] is
    <= threshold.
    """

    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: float = 0.0
    gain: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"value": encode_float(self.value)}
        return {
            "feature": self.feature,
            "threshold": encode_float(self.threshold),
            "gain": encode_float(self.gain),
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    @classmethod
    def from_dict(cls, obj: dict, width: int) -> "TreeNode":
        """The tree to_dict wrote; IoError if a split feature lies outside
        [0, width)."""
        if "feature" not in obj:
            return cls(value=decode_float(obj["value"]))
        f = obj["feature"]
        if not (isinstance(f, int) and 0 <= f < width):
            raise IoError(f"tree split on feature {f!r}, fitted width {width}")
        return cls(
            feature=f,
            threshold=decode_float(obj["threshold"]),
            gain=decode_float(obj["gain"]),
            left=cls.from_dict(obj["left"], width),
            right=cls.from_dict(obj["right"], width),
        )


def _as_array(X) -> np.ndarray:
    values = getattr(X, "values", X)
    return np.asarray(values, dtype=np.float64)


def _checked_width(X, width: int) -> np.ndarray:
    arr = np.atleast_2d(_as_array(X))
    if arr.shape[1] != width:
        raise WrongWidth(f"{arr.shape[1]} columns, model expects {width}")
    return arr


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
    """CART: S1 counts positives, S2 counts rows (b is None); leaves hold
    the positive fraction and each side needs min_samples_leaf rows."""

    def __init__(self, min_samples_leaf: int):
        self.min_weight = min_samples_leaf

    def leaf(self, S1, S2):
        return S1 / S2

    def is_final(self, S1, S2, rows):
        return S1 == 0 or S1 == S2 or rows < 2 * self.min_weight

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
    """One fit's split-search data: which columns are 0/1, and a contiguous
    copy and a stable argsort of every other column."""

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
             leaves=None):
        """One tree on the ascending row indices rows, summing (a, b), or
        (a, row count) when b is None. Every node searches feats, or the
        sorted subset sample() draws from feats. The 0/1 candidates' rows
        come from block, which holds exactly the 0/1 columns of feats, or
        from X per node when block is None. If leaves is given, leaves[i]
        is set to the value of the leaf that row i of rows reaches, the
        value FlatTree.route gives it."""
        X, mask = self.X, self.mask
        member = np.zeros(X.shape[0], dtype=bool)
        member[rows] = True
        orders = {f: o[member[o]] for f, o in self.orders.items() if f in feats}

        def node(idx, orders, depth):
            S1 = float(a[idx].sum())
            S2 = float(idx.size) if b is None else float(b[idx].sum())
            leaf = TreeNode(value=crit.leaf(S1, S2))
            split = None
            if depth < max_depth and not crit.is_final(S1, S2, idx.size):
                cand = feats if sample is None else sample()
                split = self._best_split(crit, a, b, idx, orders, cand, block,
                                         S1, S2)
            if split is None:
                if leaves is not None:
                    leaves[idx] = leaf.value
                return leaf
            f, thr, gain = split
            go_left = X[idx, f] <= thr
            mask[idx] = go_left
            left, right = {}, {}
            for g, s in orders.items():
                keep = mask[s]
                left[g], right[g] = s[keep], s[~keep]
            out = TreeNode(feature=f, threshold=float(thr), gain=float(gain),
                           value=leaf.value)
            out.left = node(idx[go_left], left, depth + 1)
            out.right = node(idx[~go_left], right, depth + 1)
            return out

        with np.errstate(divide="ignore", invalid="ignore"):
            return node(rows, orders, 0)

    def _best_split(self, crit, a, b, idx, orders, feats, block, S1, S2):
        """Best (feature, threshold, gain) at a node, or None.

        A 0/1 column's right side sums come from one matrix-vector product
        over the node's block rows; any other column's left sums are
        cumulative sums in its presorted order. Equal gains keep the lowest
        feature, and within a feature the lowest threshold."""
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
            W1 = n1 if b is None else b[idx] @ B
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
            L2 = nL if b is None else np.cumsum(b[s])[boundary]
            gains = masked_gains(nL, L1, L2, m - nL, S1 - L1, S2 - L2)
            j = int(np.argmax(gains))  # first max: lowest threshold wins ties
            found.append((gains[j], -f, _split_value(sv[boundary[j]],
                                                     sv[boundary[j] + 1])))

        if not found:
            return None
        gain, neg_f, thr = max(found)  # equal gains: the larger -f wins
        return (-neg_f, thr, gain) if gain > 0.0 else None


# --- CART --------------------------------------------------------------------

def fit_cart(
    X,
    y,
    max_depth: int = 12,
    min_samples_leaf: int = 1,
    rng: np.random.Generator | None = None,
    features_per_split: int | None = None,
) -> TreeNode:
    """Greedy CART by Gini impurity reduction; leaves store the
    positive-class fraction. rng/features_per_split enable the per-node
    feature sampling used by the random forest; sampling needs the rng."""
    X = _as_array(X)
    y = np.asarray(y)
    if X.size == 0 or len(y) == 0:
        raise EmptyData("cannot fit a tree on zero rows")
    if not np.all((y == 0) | (y == 1)):
        raise NonBinaryLabels("CART labels must be 0/1")
    k = features_per_split
    sampled = k is not None and k < X.shape[1]
    if sampled and rng is None:
        raise ValueError("features_per_split needs an rng to sample features")
    data = _Presorted(X)
    all_feats = np.arange(X.shape[1])
    grow_args = (_Gini(min_samples_leaf), y.astype(np.float64), None,
                 np.arange(len(y)), all_feats, max_depth)
    if sampled:
        return data.grow(*grow_args, sample=lambda: np.sort(
            rng.choice(all_feats, size=k, replace=False)))
    return data.grow(*grow_args, block=data.block(all_feats))


@dataclass
class FlatTree:
    """Array form of a tree, the one form every model routes through.

    Node i is a leaf when feature[i] == -1; otherwise x goes to left[i]
    when x[feature[i]] <= threshold[i], else to right[i]. Children come
    after their parent. value holds the leaf outputs: CART fractions,
    boosting weights or isolation path lengths.
    """

    feature: np.ndarray    # int64
    threshold: np.ndarray  # float64
    left: np.ndarray       # int64
    right: np.ndarray      # int64
    value: np.ndarray      # float64

    @classmethod
    def from_node(cls, root: TreeNode) -> "FlatTree":
        """root's nodes in pre-order, left subtree first."""
        rows = []

        def visit(node: TreeNode) -> int:
            i = len(rows)
            rows.append([node.feature, node.threshold, -1, -1, node.value])
            if not node.is_leaf:
                rows[i][2] = visit(node.left)
                rows[i][3] = visit(node.right)
            return i

        visit(root)
        return cls.of_rows(rows)

    @classmethod
    def of_rows(cls, rows: list) -> "FlatTree":
        """The tree whose node i is rows[i] = [feature, threshold, left,
        right, value]."""
        feature, threshold, left, right, value = zip(*rows)
        return cls(np.array(feature, dtype=np.int64), np.array(threshold),
                   np.array(left, dtype=np.int64),
                   np.array(right, dtype=np.int64), np.array(value))

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
                "value": encode_array(self.value)}

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
                   decode_array(obj["value"]))
        arrays = (feature, tree.threshold, left, right, tree.value)
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


def tree_max_depth(node: TreeNode) -> int:
    if node.is_leaf:
        return 0
    return 1 + max(tree_max_depth(node.left), tree_max_depth(node.right))


# --- random forest -----------------------------------------------------------

@dataclass
class RandomForest:
    trees: list[TreeNode] = field(default_factory=list)
    n_features: int = 0

    def predict_proba(self, X) -> np.ndarray:
        if not self.trees:
            raise UnfitModel("forest has no trees")
        arr = _checked_width(X, self.n_features)
        acc = np.zeros(arr.shape[0])
        for tree in self.trees:
            acc += FlatTree.from_node(tree).route(arr)
        return acc / len(self.trees)

    def to_payload(self) -> dict:
        return {"trees": [t.to_dict() for t in self.trees]}

    @classmethod
    def from_payload(cls, payload: dict, width: int) -> "RandomForest":
        """The forest to_payload wrote, fitted on width columns; see
        TreeNode.from_dict."""
        return cls([TreeNode.from_dict(t, width) for t in payload["trees"]],
                   width)


def fit_random_forest(X, y, det: RandomForestDetector) -> RandomForest:
    """Bagged CARTs grown with det's n_trees, max_depth, features_per_split,
    bootstrap_fraction and seed: each tree sees a bootstrap resample and
    samples features_per_split candidate features at every node."""
    X = _as_array(X)
    y = np.asarray(y)
    if X.size == 0:
        raise EmptyData("cannot fit a forest on zero rows")
    n = X.shape[0]
    k = det.features_per_split
    if k is None:
        k = max(1, round(math.sqrt(X.shape[1])))
    sample_size = max(1, round(det.bootstrap_fraction * n))
    model = RandomForest(n_features=X.shape[1])
    for stream in np.random.SeedSequence(det.seed).spawn(det.n_trees):
        rng = np.random.default_rng(stream)
        rows = rng.integers(0, n, size=sample_size)
        tree = fit_cart(
            X[rows], y[rows],
            max_depth=det.max_depth,
            min_samples_leaf=1,
            rng=rng,
            features_per_split=min(k, X.shape[1]),
        )
        model.trees.append(tree)
    return model


# --- gradient boosting ---------------------------------------------------------

def _log_loss(margin: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(np.logaddexp(0.0, margin) - y * margin))


@dataclass
class GbtModel:
    learning_rate: float
    trees: list[TreeNode] = field(default_factory=list)
    n_features: int = 0
    base_margin: float = 0.0
    loss_trace: list[float] = field(default_factory=list)

    def margins(self, X) -> np.ndarray:
        arr = _checked_width(X, self.n_features)
        m = np.full(arr.shape[0], self.base_margin)
        for tree in self.trees:
            m += self.learning_rate * FlatTree.from_node(tree).route(arr)
        return m

    def predict_proba(self, X) -> np.ndarray:
        return sigmoid(self.margins(X))

    def to_payload(self) -> dict:
        return {
            "base_margin": encode_float(self.base_margin),
            "loss_trace": [encode_float(v) for v in self.loss_trace],
            "trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_payload(cls, payload: dict, width: int,
                     learning_rate: float) -> "GbtModel":
        """The model to_payload wrote, fitted on width columns; see
        TreeNode.from_dict."""
        return cls(
            learning_rate,
            [TreeNode.from_dict(t, width) for t in payload["trees"]],
            width,
            decode_float(payload["base_margin"]),
            [decode_float(v) for v in payload["loss_trace"]],
        )


def fit_gbt(X, y, det: GbtDetector) -> GbtModel:
    """Additive logistic-loss boosting with second-order split gains, grown
    with det's params (rounds, learning_rate, max_depth, lam, ..., seed).

    Per round: gradients g = p - y and hessians h = p(1-p) at the current
    margins; one tree grown on (g, h); leaf weights -G/(H+lam) added to the
    margins scaled by the learning rate. loss_trace[0] is the loss at the
    base score, one entry per round follows.
    """
    X = _as_array(X)
    y = np.asarray(y, dtype=np.float64)
    if X.size == 0 or len(y) == 0:
        raise EmptyData("cannot fit gbt on zero rows")
    if not np.all((y == 0) | (y == 1)):
        raise NonBinaryLabels("gbt labels must be 0/1")

    n, n_features = X.shape
    data = _Presorted(X)
    crit = _Newton(det)
    base_margin = math.log(det.base_score / (1.0 - det.base_score))
    margin = np.full(n, base_margin)
    model = GbtModel(det.learning_rate, n_features=n_features,
                     base_margin=base_margin)
    model.loss_trace.append(_log_loss(margin, y))
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
        model.trees.append(tree)
        if rows.size < n:  # rows the tree was not grown on
            out = np.ones(n, dtype=bool)
            out[rows] = False
            leaves[out] = FlatTree.from_node(tree).route(X[out])
        margin += det.learning_rate * leaves
        model.loss_trace.append(_log_loss(margin, y))
    return model


def feature_importance(model: GbtModel | RandomForest) -> np.ndarray:
    """Total split gain per feature across all trees, normalized to sum 1.
    A model that never split returns all zeros."""
    if not getattr(model, "trees", None):
        raise UnfitModel("feature_importance needs a fitted model")
    total = np.zeros(model.n_features)

    def visit(node: TreeNode):
        if node.is_leaf:
            return
        total[node.feature] += node.gain
        visit(node.left)
        visit(node.right)

    for tree in model.trees:
        visit(tree)
    s = total.sum()
    return total / s if s > 0 else total
