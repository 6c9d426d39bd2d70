import gc
import json
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from canids.autoencoder import sigmoid
from canids.density import fit_isolation_forest
from canids.detectors import (DecisionTreeDetector, GbtDetector,
                              RandomForestDetector, load_detector,
                              save_detector, trees_from_payload,
                              trees_to_payload)
from canids.errors import EmptyData, IoError, NonBinaryLabels, UnfitModel
from canids.features import FeatureMatrix
from canids.model_io import decode_array, encode_array
from canids.trees import (
    FlatTree,
    feature_importance,
    fit_cart,
    fit_gbt,
    fit_random_forest,
    gbt_margins,
    mean_route,
    route_trees,
)
from canids import trees
from canids.trees import _log_loss, _Presorted

TREE_ARRAYS = ("feature", "threshold", "value", "gain")


def fit_on(det, X, y):
    """det fitted on the rows of X labelled y."""
    return det.fit(FeatureMatrix(X, y, tuple(range(X.shape[1]))))


def is_leaf(tree):
    """Whether tree is one leaf."""
    return tree.feature.tolist() == [-1]


def ref_children(tree):
    """Each node's left and right child indices (-1 for a leaf's), found
    by walking tree's pre-order, left subtree first, node by node: a
    split's left child is the next node and its right child the node after
    its left subtree. The walk must end at the last node."""
    left = np.full(tree.feature.size, -1)
    right = np.full(tree.feature.size, -1)

    def walk(i):
        """The index just past the subtree rooted at node i."""
        if tree.feature[i] < 0:
            return i + 1
        left[i] = i + 1
        right[i] = walk(i + 1)
        return walk(right[i])

    assert walk(0) == tree.feature.size
    return left, right


# --- exact-rational CART oracle ------------------------------------------------

def ref_split_value(lo, hi):
    """The midpoint of lo < hi, or lo where it rounds up to hi."""
    mid = (lo + hi) / 2.0
    return mid if mid < hi else lo


def exhaustive_best_split(X, y, min_samples_leaf=1):
    """All (feature, midpoint) candidates evaluated with Fraction
    arithmetic; returns (best gain, set of argmax (feature, threshold))."""
    n, d = X.shape
    pos = int(sum(y))

    def gini_num(n_side, pos_side):
        # n_side * gini as an exact fraction
        if n_side == 0:
            return Fraction(0)
        neg = n_side - pos_side
        return Fraction(n_side) - Fraction(pos_side ** 2 + neg ** 2, n_side)

    parent = gini_num(n, pos) / n
    best_gain = Fraction(-1)
    argmax = set()
    for f in range(d):
        order = np.argsort(X[:, f], kind="stable")
        sv = X[order, f]
        sy = y[order]
        for i in range(n - 1):
            if sv[i] == sv[i + 1]:
                continue
            n_left = i + 1
            n_right = n - n_left
            if n_left < min_samples_leaf or n_right < min_samples_leaf:
                continue
            pos_left = int(sy[: i + 1].sum())
            weighted = (gini_num(n_left, pos_left)
                        + gini_num(n_right, pos - pos_left)) / n
            gain = parent - weighted
            thr = ref_split_value(sv[i], sv[i + 1])
            if gain > best_gain:
                best_gain = gain
                argmax = {(f, thr)}
            elif gain == best_gain:
                argmax.add((f, thr))
    return best_gain, argmax


@pytest.mark.parametrize("lo", [-5e-324, 5e-324, np.nextafter(1.0, 2.0),
                                np.finfo(np.float64).max])
def test_split_between_adjacent_floats_separates_them(lo):
    """lo and the next float up: their midpoint rounds up to the upper
    value (or overflows), and the split must still send lo left."""
    with np.errstate(over="ignore"):  # the float max steps up to inf
        hi = np.nextafter(lo, np.inf)
    assert (lo + hi) / 2.0 >= hi
    X, y = np.array([[lo], [hi]]), np.array([0, 1])
    tree = fit_cart(X, y, max_depth=1)
    assert (tree.feature[0], tree.threshold[0]) == (0, lo)
    assert route_trees([tree], X)[0].tolist() == [0.0, 1.0]
    gbt = fit_on(GbtDetector(rounds=1, max_depth=1, lam=0.0,
                             min_child_weight=0.0), X, y)
    low, high = gbt.score(X)
    assert low < 0.5 < high


def test_pure_node_is_leaf():
    tree = fit_cart(np.array([[1.0], [2.0], [3.0]]), np.array([1, 1, 1]))
    assert is_leaf(tree) and tree.value[0] == 1.0


def test_root_split_on_separable_1d():
    X = np.array([[1.0], [2.0], [8.0], [9.0]])
    y = np.array([0, 0, 1, 1])
    tree = fit_cart(X, y, max_depth=3)
    assert tree.feature.tolist() == [0, -1, -1]
    assert tree.threshold[0] == 5.0
    left, right = ref_children(tree)
    assert (left[0], right[0]) == (1, 2)
    assert tree.value[1] == 0.0 and tree.value[2] == 1.0
    # root gini before split is 0.5 and the split is exhaustively optimal
    gain, argmax = exhaustive_best_split(X, y)
    assert float(gain) == pytest.approx(0.5)
    assert tree.gain[0] == pytest.approx(0.5)
    assert (tree.feature[0], tree.threshold[0]) in argmax


def fit_dt(X, y, **params):
    return fit_on(DecisionTreeDetector(**params), X, y)


def test_predict_single_leaf():
    # depth 0: the root is a leaf holding the positive fraction 4/5
    det = fit_dt(np.arange(5.0).reshape(-1, 1), np.array([1, 1, 0, 1, 1]),
                 max_depth=0)
    assert is_leaf(det.trees[0])
    for x in ([0.0], [123.0]):
        assert det.score(np.array(x)).tolist() == [0.8]


def test_predict_traces_split():
    X = np.array([[1.0], [2.0], [8.0], [9.0]])
    y = np.array([0, 0, 1, 1])
    det = fit_dt(X, y, max_depth=3)
    assert det.score(np.array([1.5])).tolist() == [0.0]
    assert det.score(np.array([8.5])).tolist() == [1.0]


def test_predict_cutoff_tie_goes_to_anomaly():
    det = fit_dt(np.zeros((2, 1)), np.array([0, 1]), max_depth=0, cutoff=0.5)
    assert det.trees[0].value.tolist() == [0.5]
    assert det.predict(np.array([0.0])).tolist() == [1]


def test_cart_matches_exhaustive_oracle():
    rng = np.random.default_rng(42)
    for trial in range(200):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 4))
        # small integer grids provoke plenty of exact gain ties
        X = rng.integers(0, 4, size=(n, d)).astype(np.float64)
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        tree = fit_cart(X, y, max_depth=1)
        best_gain, argmax = exhaustive_best_split(X, y)
        root = (tree.feature[0], tree.threshold[0])
        if best_gain <= 0:
            assert is_leaf(tree), f"trial {trial}: split where none has gain"
            continue
        assert not is_leaf(tree), f"trial {trial}: missed a positive-gain split"
        assert root in argmax
        assert tree.gain[0] == pytest.approx(float(best_gain), abs=1e-12)
        if len(argmax) == 1:
            assert root == next(iter(argmax))


def test_cart_tie_breaks_to_lowest_feature():
    # identical duplicate columns: equal gains, lowest index must win
    X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    y = np.array([0, 0, 1, 1])
    tree = fit_cart(X, y, max_depth=1)
    assert tree.feature[0] == 0


def max_depth(tree):
    left, right = ref_children(tree)
    depth = np.zeros(tree.feature.size, dtype=np.int64)
    for i in np.flatnonzero(tree.feature >= 0):  # parents before children
        depth[[left[i], right[i]]] = depth[i] + 1
    return int(depth.max())


def test_cart_respects_min_samples_leaf():
    X = np.array([[1.0], [2.0], [8.0], [9.0], [10.0]])
    y = np.array([0, 0, 1, 1, 1])
    tree = fit_cart(X, y, max_depth=4, min_samples_leaf=2)
    # route every row to its leaf's index: each leaf holds two rows or more
    nodes = np.arange(tree.feature.size, dtype=np.float64)
    leaf_of = route_trees([FlatTree(tree.feature, tree.threshold, nodes,
                                    tree.gain)], X)[0].astype(np.int64)
    assert np.bincount(leaf_of)[np.unique(leaf_of)].min() >= 2
    # depth limit also respected
    assert max_depth(fit_cart(X, y, max_depth=1)) <= 1


def test_cart_rejects_bad_input():
    # the detector refuses both before fit_cart sees them
    with pytest.raises(EmptyData):
        fit_on(DecisionTreeDetector(), np.empty((0, 2)), np.array([]))
    with pytest.raises(NonBinaryLabels):
        fit_on(DecisionTreeDetector(), np.ones((3, 1)), np.array([0, 1, 2]))


def test_cart_monotone_transform_invariance():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(60, 4))
    y = (X[:, 0] + X[:, 2] > 0).astype(int)
    det = fit_dt(X, y, max_depth=5)
    Xt = X.copy()
    Xt[:, 0] = np.exp(X[:, 0])
    Xt[:, 1] = X[:, 1] ** 3
    Xt[:, 2] = 2 * X[:, 2] + 7
    det_t = fit_dt(Xt, y, max_depth=5)
    # queries drawn from the training support route identically
    assert np.array_equal(det.score(X), det_t.score(Xt))


# --- random forest ---------------------------------------------------------------

def test_forest_single_tree_degenerate_config():
    X = np.array([[1.0], [2.0], [8.0], [9.0]])
    y = np.array([0, 0, 1, 1])
    cfg = RandomForestDetector(n_trees=1, max_depth=3, features_per_split=1,
                               bootstrap_fraction=1.0, seed=0)
    trees = fit_random_forest(X, y, cfg)
    assert len(trees) == 1
    proba = mean_route(trees, X)
    assert np.all((proba >= 0) & (proba <= 1))


@pytest.mark.parametrize("k", [0, -1])
def test_forest_config_rejects_nonpositive_features_per_split(k):
    with pytest.raises(ValueError, match="features_per_split"):
        RandomForestDetector(features_per_split=k)


def test_forest_separable_training_accuracy():
    rng = np.random.default_rng(1)
    X = np.concatenate([rng.normal(-3, 0.5, size=(50, 1)),
                        rng.normal(3, 0.5, size=(50, 1))])
    y = np.array([0] * 50 + [1] * 50)
    det = RandomForestDetector(n_trees=50, max_depth=6, seed=2)
    det.fit(FeatureMatrix(X, y, (0,)))
    assert (det.predict(X) == y).mean() == 1.0


def test_forest_deterministic_under_seed():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(80, 5))
    y = (X[:, 1] > 0).astype(int)
    cfg = RandomForestDetector(n_trees=10, max_depth=4, seed=11)
    a = fit_random_forest(X, y, cfg)
    b = fit_random_forest(X, y, cfg)
    assert np.array_equal(mean_route(a, X), mean_route(b, X))


def test_forest_serialization_round_trip():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 3))
    y = (X[:, 0] > 0).astype(int)
    trees = fit_random_forest(X, y, RandomForestDetector(n_trees=5, max_depth=4,
                                                         seed=1))
    restored = trees_from_payload(
        json.loads(json.dumps(trees_to_payload(trees))), 3)
    assert_same_trees(restored, trees)
    assert np.array_equal(mean_route(trees, X), mean_route(restored, X))


# --- array trees -------------------------------------------------------------------

def _cart_data(seed=12):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(60, 3))
    return X, (X[:, 0] + X[:, 2] > 0).astype(int)


def _flat_trees():
    """A CART tree, a one-leaf tree and a second CART tree."""
    X, y = _cart_data()
    return [fit_cart(X, y), fit_cart(X, np.zeros(len(y))),
            fit_cart(*_cart_data(seed=13), max_depth=2)]


def _flat_payload():
    return json.loads(json.dumps(trees_to_payload(_flat_trees())))


def test_flat_tree_payload_round_trip():
    X, y = _cart_data()
    got = trees_from_payload(_flat_payload(), 3)
    assert_same_trees(got, _flat_trees())
    assert ([t.feature.size for t in got]
            == _flat_payload()["sizes"] == [t.feature.size for t in _flat_trees()])
    assert (route_trees(got[:1], X).tobytes()
            == route_trees([fit_cart(X, y)], X).tobytes())


def _set(key, i, v):
    def corrupt(p):
        p["trees"][key][i] = v
    return corrupt


def _node_count(p):
    return len(p["trees"]["feature"])


def _resize(key, by):
    """Corrupts the encoded array key to the node count plus by entries."""
    def corrupt(p):
        p["trees"][key] = encode_array(np.zeros(_node_count(p) + by))
    return corrupt


def _edit_nodes(edit):
    """Applies edit(lists, sizes) to the payload's node arrays as lists, one
    per key, and to its sizes."""
    def corrupt(p):
        arrays = p["trees"]
        lists = {"feature": arrays["feature"]}
        lists.update({k: decode_array(arrays[k]).tolist()
                      for k in ("threshold", "value", "gain")})
        edit(lists, p["sizes"])
        arrays["feature"] = lists["feature"]
        arrays.update({k: encode_array(np.array(lists[k]))
                       for k in ("threshold", "value", "gain")})
    return corrupt


def _first_leaf(lists):
    return lists["feature"].index(-1)


def _split_last_leaf(lists, sizes):
    # the first tree's last leaf becomes a split whose children are missing;
    # a file with child indices would have sent them back up the tree
    lists["feature"][sizes[0] - 1] = 0


def _leaf_at_root(lists, sizes):
    # the first tree's root becomes a leaf, so no split leads to the nodes
    # after it in its span
    lists["feature"][0] = -1


def _drop_node(at):
    def edit(lists, sizes):
        i = at(lists)
        for values in lists.values():
            del values[i]
        sizes[0 if i < sizes[0] else -1] -= 1
    return edit


def _append_to_first_tree(*features):
    """Appends nodes that split on these features (-1 a leaf) to the first
    tree's span."""
    def edit(lists, sizes):
        for f in reversed(features):
            for key, v in (("feature", f), ("threshold", 0.0),
                           ("value", 0.5), ("gain", 0.0)):
                lists[key].insert(sizes[0], v)
        sizes[0] += len(features)
    return edit


def _move_leaf_to_next_tree(p):
    # the first tree's last leaf opens the second tree's span instead
    p["sizes"][0] -= 1
    p["sizes"][1] += 1


def _empty(p):
    p["sizes"] = [0]
    p["trees"]["feature"] = []
    p["trees"].update({k: encode_array(np.zeros(0))
                       for k in ("threshold", "value", "gain")})


STRUCTURE = "one complete binary tree"


@pytest.mark.parametrize("corrupt, match", [
    (_edit_nodes(_split_last_leaf), STRUCTURE),
    (_move_leaf_to_next_tree, STRUCTURE),
    (_edit_nodes(_drop_node(lambda lists: len(lists["feature"]) - 1)),
     STRUCTURE),
    (lambda p: p["trees"]["feature"].pop(), "need the"),
    (lambda p: p["trees"].update(value=encode_array(np.zeros((1, 1)))),
     "need the"),
    (_resize("gain", -1), "need the"),
    (_resize("gain", 1), "need the"),
    (lambda p: p["trees"].update(
        gain=encode_array(np.zeros((_node_count(p), 1)))), "need the"),
    (_empty, "node counts of at least 1"),
    (_set("feature", 0, 3), r"outside \[0, 3\)"),
    (_set("feature", 0, -2), r"outside \[0, 3\)"),
    (_set("feature", 0, 1.5), "integer"),
    (_set("feature", 0, "0"), "integer"),
    (_set("feature", 0, [1, 2]), "malformed"),
    (lambda p: p["sizes"].__setitem__(-1, p["sizes"][-1] - 1), "need the"),
    (lambda p: p["sizes"].__setitem__(-1, p["sizes"][-1] + 1), "need the"),
    (_edit_nodes(_drop_node(_first_leaf)), STRUCTURE),
    (_edit_nodes(_leaf_at_root), STRUCTURE),
    (_edit_nodes(_append_to_first_tree(-1)), STRUCTURE),
    # a split and a leaf add no step, but are read after the tree has ended
    (_edit_nodes(_append_to_first_tree(0, -1)), STRUCTURE),
    (lambda p: p["sizes"].insert(1, 0), "node counts of at least 1"),
    (lambda p: p.update(sizes=[]), "node counts of at least 1"),
    (lambda p: p["sizes"].__setitem__(1, True), "node counts of at least 1"),
    (lambda p: p.update(sizes=len(p["trees"]["feature"])),
     "node counts of at least 1"),
    (lambda p: p.update(trees=[]), "trees is not an object"),
], ids=["cycle-at-root", "child-before-parent", "child-past-end", "ragged",
        "value-2d", "gain-short", "gain-long", "gain-2d", "empty", "feature-3",
        "feature-minus-2", "float-index", "string-feature", "nested-index",
        "sizes-sum-short", "sizes-sum-long", "missing-leaf", "leaf-root",
        "trailing-node", "trailing-split-and-leaf", "zero-size", "no-sizes", "bool-size", "sizes-number",
        "trees-list"])
def test_flat_tree_payload_is_checked(corrupt, match):
    payload = _flat_payload()
    corrupt(payload)
    with pytest.raises(IoError, match=match):
        trees_from_payload(payload, 3)


# --- routing oracle ------------------------------------------------------------

def ref_route(tree, X):
    """The leaf value each row of X reaches in tree, routing the rows that
    are not yet on a leaf one level at a time."""
    left, right = ref_children(tree)
    node = np.zeros(X.shape[0], dtype=np.int64)
    while True:
        feats = tree.feature[node]
        internal = feats >= 0
        if not internal.any():
            return tree.value[node]
        rows = np.flatnonzero(internal)
        go_left = X[rows, feats[rows]] <= tree.threshold[node[rows]]
        node[rows] = np.where(go_left, left[node[rows]], right[node[rows]])


_THRESHOLDS = [0.0, -0.0, 0.5, 1.0, -3.25, 1e300, 5e-324, np.inf, -np.inf,
               np.nan]
_ROUTE_VALUES = st.one_of(st.sampled_from(_THRESHOLDS),
                          st.floats(allow_nan=False, width=32))
# no fitted leaf holds NaN, and NaN + NaN keeps either operand's payload as
# numpy's loop for the array length chooses, so sums of NaN leaves need not
# repeat bit for bit; inf - inf gives the one default NaN
_LEAF_VALUES = st.one_of(st.sampled_from(_THRESHOLDS[:-1]),
                         st.floats(allow_nan=False, width=32))


@st.composite
def preorder_trees(draw, width):
    """A FlatTree in pre-order, left subtree first, as the growers write
    it, of at most depth 5."""
    nodes = []

    def build(depth):
        if depth < 5 and draw(st.booleans()):
            nodes.append([draw(st.integers(0, width - 1)),
                          draw(_ROUTE_VALUES), 0.0, draw(st.floats(0, 10))])
            build(depth + 1)
            build(depth + 1)
        else:
            nodes.append([-1, 0.0, draw(_LEAF_VALUES), 0.0])

    build(0)
    return FlatTree.of_rows(nodes)


@st.composite
def forests(draw):
    width = draw(st.integers(1, 4))
    return width, draw(st.lists(preorder_trees(width), min_size=1,
                                max_size=30))


def _route_queries(trees, width, rows, seed):
    """rows rows whose entries are drawn from the forest's thresholds, their
    one-ulp neighbours, NaN, the infinities and both zeros."""
    thr = np.concatenate([t.threshold for t in trees])
    with np.errstate(invalid="ignore"):
        pool = np.concatenate([thr, np.nextafter(thr, np.inf),
                               np.nextafter(thr, -np.inf), _THRESHOLDS])
    return np.random.default_rng(seed).choice(pool, size=(rows, width))


@settings(max_examples=60, deadline=None)
@given(forests(), st.sampled_from([0, 1, 2, 9, 16385]),
       st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 5, 64, 1 << 14]))
def test_route_trees_matches_per_tree_routing(forest, rows, seed, cells):
    width, forest_trees = forest
    X = _route_queries(forest_trees, width, rows, seed)
    with mock.patch.object(trees, "_ROUTE_CELLS", cells):
        got = route_trees(forest_trees, X)
    assert got.shape == (len(forest_trees), rows)
    for leaves, tree in zip(got, forest_trees):
        assert leaves.tobytes() == ref_route(tree, X).tobytes()
    acc = np.zeros(rows)
    with np.errstate(invalid="ignore"):  # leaf values inf and -inf
        for tree in forest_trees:
            acc += ref_route(tree, X)
        with (mock.patch.object(trees, "_SUM_CELLS", cells),
              mock.patch.object(trees, "children",
                                wraps=trees.children) as children):
            mean = mean_route(forest_trees, X)
    assert mean.tobytes() == (acc / len(forest_trees)).tobytes()
    assert children.call_count == 1  # the tables are built once per call


@settings(max_examples=60, deadline=None)
@given(forests())
def test_trees_payload_round_trip_keeps_every_array(forest):
    width, forest_trees = forest
    payload = json.loads(json.dumps(trees_to_payload(forest_trees)))
    assert_same_trees(trees_from_payload(payload, width), forest_trees)


# --- gradient boosting ---------------------------------------------------------------

def test_gbt_balanced_single_leaf_weight_zero():
    X = np.zeros((10, 1))
    y = np.array([0, 1] * 5)
    cfg = GbtDetector(rounds=1, max_depth=0, lam=0.0, learning_rate=1.0,
                      base_score=0.5)
    det = fit_on(cfg, X, y)
    assert is_leaf(det.trees[0])
    assert det.trees[0].value[0] == 0.0
    assert np.allclose(det.score(X), 0.5)


def test_gbt_all_positive_leaf_weight_two():
    # g = 0.5 - 1 = -0.5 per row, h = 0.25: w = 0.5n / 0.25n = 2 exactly
    X = np.zeros((8, 1))
    y = np.ones(8, dtype=int)
    cfg = GbtDetector(rounds=1, max_depth=0, lam=0.0, learning_rate=1.0,
                      base_score=0.5)
    trees, _ = fit_gbt(X, y, cfg)
    assert is_leaf(trees[0])
    assert trees[0].value[0] == 2.0


def _blobs(n=200, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    X = np.concatenate([rng.normal((-2, -2), 0.6, size=(half, 2)),
                        rng.normal((2, 2), 0.6, size=(half, 2))])
    y = np.array([0] * half + [1] * half)
    return X, y


def test_gbt_blobs_accuracy_and_loss_monotonicity():
    X, y = _blobs()
    cfg = GbtDetector(rounds=50, max_depth=3, learning_rate=0.3, lam=1.0,
                      seed=0)
    det = fit_on(cfg, X, y)
    acc = ((det.score(X) >= 0.5) == y).mean()
    assert acc >= 0.99
    trace = np.array(det.loss_trace)
    assert np.all(np.diff(trace) <= 1e-12)


def test_gbt_deterministic_with_subsampling():
    X, y = _blobs(seed=3)
    params = dict(rounds=10, max_depth=3, subsample=0.7, colsample=0.6, seed=9)
    a = fit_on(GbtDetector(**params), X, y)
    b = fit_on(GbtDetector(**params), X, y)
    assert a.loss_trace == b.loss_trace
    assert np.array_equal(a.score(X), b.score(X))


def test_gbt_serialization_bit_exact(tmp_path):
    X, y = _blobs(seed=5)
    det = fit_on(GbtDetector(rounds=8, max_depth=3, seed=2), X, y)
    save_detector(tmp_path / "gbt.json", det)
    restored = load_detector(tmp_path / "gbt.json")
    assert np.array_equal(det.score(X), restored.score(X))
    assert restored.loss_trace == det.loss_trace


def test_gbt_binary_feature_fast_path_consistency():
    # 0/1 columns must behave like any other feature with one candidate
    rng = np.random.default_rng(8)
    bits = rng.integers(0, 2, size=(120, 6)).astype(float)
    y = (bits[:, 2] * 2 + bits[:, 4] > 1.5).astype(int)
    model = fit_on(GbtDetector(rounds=20, max_depth=3, seed=1), bits, y)
    assert ((model.score(bits) >= 0.5) == y).mean() >= 0.99
    # the same data with thresholds shifted off 0.5 (scaled 0/2 columns)
    model2 = fit_on(GbtDetector(rounds=20, max_depth=3, seed=1), bits * 2, y)
    assert np.array_equal(model.score(bits) >= 0.5,
                          model2.score(bits * 2) >= 0.5)


@pytest.mark.parametrize("seed", range(40))
def test_gbt_same_partition_ties_to_the_lower_feature(seed):
    # c and 1 - c make the same partition; exact sums give them equal
    # gains, so the lower index wins every split on the pair
    rng = np.random.default_rng(seed)
    c = (rng.random(300) < 0.5).astype(np.float64)
    X = np.column_stack([c, 1.0 - c, rng.normal(size=300)])
    y = (c.astype(bool) ^ (rng.random(300) < 0.2)).astype(np.int64)
    trees, _ = fit_gbt(X, y, GbtDetector(rounds=5, max_depth=1, seed=seed))
    feats = np.concatenate([t.feature for t in trees])
    assert 1 not in feats.tolist()


def test_gbt_rejects_bad_labels():
    # the detector refuses both before fit_gbt sees them
    with pytest.raises(NonBinaryLabels):
        fit_on(GbtDetector(rounds=1), np.ones((4, 1)), np.array([0, 1, 2, 1]))
    with pytest.raises(EmptyData):
        fit_on(GbtDetector(rounds=1), np.empty((0, 1)), np.array([]))


# --- feature importance ---------------------------------------------------------

def test_importance_single_feature_is_one():
    rng = np.random.default_rng(10)
    X = np.zeros((100, 3))
    X[:, 1] = rng.normal(size=100)
    y = (X[:, 1] > 0).astype(int)
    imp = fit_on(GbtDetector(rounds=5, max_depth=2, seed=0), X, y).importance()
    assert imp[1] == pytest.approx(1.0)
    assert imp[0] == imp[2] == 0.0


def test_importance_no_splits_all_zero():
    X = np.zeros((10, 2))
    y = np.array([0, 1] * 5)
    trees, _ = fit_gbt(X, y, GbtDetector(rounds=3, max_depth=2, seed=0))
    assert feature_importance(trees, 2).tolist() == [0.0, 0.0]


def test_importance_requires_fitted_model():
    with pytest.raises(UnfitModel):
        GbtDetector().importance()


def test_importance_sums_to_one():
    X, y = _blobs(seed=7)
    imp = fit_on(GbtDetector(rounds=10, max_depth=3, seed=0), X, y).importance()
    assert imp.sum() == pytest.approx(1.0)
    assert np.all(imp >= 0)


# --- equivalence with a per-node gather-and-sort split search -------------------
#
# The reference grower below searches each node by gathering its 0/1 columns
# with np.ix_ and argsorting every other column. The presorted search must
# grow node-for-node the same trees, with the same feature, threshold, gain
# and leaf bits.

def _ref_gini_weighted(n_side, pos_side):
    neg_side = n_side - pos_side
    with np.errstate(divide="ignore", invalid="ignore"):
        w = n_side - (pos_side ** 2 + neg_side ** 2) / n_side
    return np.where(n_side > 0, w, np.inf)


def _ref_best_split_gini(X, y, idx, candidates, is_binary, min_samples_leaf):
    n = idx.size
    pos = float(y[idx].sum())
    parent = 1.0 - (pos / n) ** 2 - ((n - pos) / n) ** 2
    best = None
    bin_feats = [f for f in candidates if is_binary[f]]
    gen_feats = [f for f in candidates if not is_binary[f]]
    results = {}
    if bin_feats:
        B = X[np.ix_(idx, bin_feats)]
        n1 = B.sum(axis=0)
        pos1 = y[idx].astype(np.float64) @ B
        n0 = n - n1
        pos0 = pos - pos1
        weighted = (_ref_gini_weighted(n0, pos0) + _ref_gini_weighted(n1, pos1)) / n
        gains = parent - weighted
        valid = (n0 >= min_samples_leaf) & (n1 >= min_samples_leaf)
        for j, f in enumerate(bin_feats):
            if valid[j] and gains[j] > 0.0:
                results[f] = (gains[j], 0.5)
    for f in gen_feats:
        v = X[idx, f]
        order = np.argsort(v, kind="stable")
        sv = v[order]
        sy = y[idx][order].astype(np.float64)
        boundary = np.flatnonzero(sv[1:] != sv[:-1])
        if boundary.size == 0:
            continue
        csum = np.cumsum(sy)
        n_left = boundary + 1.0
        pos_left = csum[boundary]
        n_right = n - n_left
        pos_right = pos - pos_left
        weighted = (_ref_gini_weighted(n_left, pos_left)
                    + _ref_gini_weighted(n_right, pos_right)) / n
        gains = parent - weighted
        valid = (n_left >= min_samples_leaf) & (n_right >= min_samples_leaf)
        gains = np.where(valid, gains, -np.inf)
        j = int(np.argmax(gains))
        if gains[j] > 0.0:
            results[f] = (gains[j], ref_split_value(sv[boundary[j]], sv[boundary[j] + 1]))
    for f in candidates:
        if f in results:
            gain, thr = results[f]
            if best is None or gain > best[2]:
                best = (f, thr, gain)
    return best


def _ref_gh_score(G, H, lam):
    with np.errstate(divide="ignore", invalid="ignore"):
        s = G ** 2 / (H + lam)
    return np.where(H + lam > 0, s, 0.0)


def _ref_best_split_gh(X, g, h, idx, candidates, is_binary, cfg):
    n = idx.size
    G = float(g[idx].sum())
    H = float(h[idx].sum())
    parent = _ref_gh_score(np.float64(G), np.float64(H), cfg.lam)
    best = None
    bin_feats = [f for f in candidates if is_binary[f]]
    gen_feats = [f for f in candidates if not is_binary[f]]
    results = {}
    if bin_feats:
        B = X[np.ix_(idx, bin_feats)]
        G1 = g[idx] @ B
        H1 = h[idx] @ B
        n1 = B.sum(axis=0)
        G0, H0, n0 = G - G1, H - H1, n - n1
        gains = 0.5 * (_ref_gh_score(G0, H0, cfg.lam) + _ref_gh_score(G1, H1, cfg.lam)
                       - parent) - cfg.gamma_split
        valid = ((n0 > 0) & (n1 > 0)
                 & (H0 >= cfg.min_child_weight) & (H1 >= cfg.min_child_weight))
        for j, f in enumerate(bin_feats):
            if valid[j] and gains[j] > 0.0:
                results[f] = (gains[j], 0.5)
    for f in gen_feats:
        v = X[idx, f]
        order = np.argsort(v, kind="stable")
        sv = v[order]
        boundary = np.flatnonzero(sv[1:] != sv[:-1])
        if boundary.size == 0:
            continue
        Gc = np.cumsum(g[idx][order])
        Hc = np.cumsum(h[idx][order])
        GL = Gc[boundary]
        HL = Hc[boundary]
        GR, HR = G - GL, H - HL
        gains = 0.5 * (_ref_gh_score(GL, HL, cfg.lam) + _ref_gh_score(GR, HR, cfg.lam)
                       - parent) - cfg.gamma_split
        valid = (HL >= cfg.min_child_weight) & (HR >= cfg.min_child_weight)
        gains = np.where(valid, gains, -np.inf)
        j = int(np.argmax(gains))
        if gains[j] > 0.0:
            results[f] = (gains[j], ref_split_value(sv[boundary[j]], sv[boundary[j] + 1]))
    for f in candidates:
        if f in results:
            gain, thr = results[f]
            if best is None or gain > best[2]:
                best = (f, thr, gain)
    return best


def _ref_route(tree, children, x):
    """Leaf value reached by one row, walking the nodes one at a time;
    children is ref_children(tree)."""
    left, right = children
    i = 0
    while tree.feature[i] >= 0:
        go_left = x[tree.feature[i]] <= tree.threshold[i]
        i = left[i] if go_left else right[i]
    return tree.value[i]


def _ref_is_binary(X):
    return np.all((X == 0.0) | (X == 1.0), axis=0)


def ref_fit_cart(X, y, max_depth=12, min_samples_leaf=1, rng=None,
                 features_per_split=None):
    X = np.asarray(X, dtype=np.float64)
    is_binary = _ref_is_binary(X)
    all_feats = np.arange(X.shape[1])
    nodes = []  # FlatTree.of_rows rows, in pre-order

    def grow(idx, depth):
        i = len(nodes)
        pos = float(y[idx].sum())
        nodes.append([-1, 0.0, pos / idx.size, 0.0])  # a leaf
        if pos == 0 or pos == idx.size or depth >= max_depth:
            return
        if idx.size < 2 * min_samples_leaf:
            return
        if features_per_split is not None and features_per_split < X.shape[1]:
            cand = np.sort(rng.choice(all_feats, size=features_per_split,
                                      replace=False))
        else:
            cand = all_feats
        split = _ref_best_split_gini(X, y, idx, cand, is_binary, min_samples_leaf)
        if split is None:
            return
        f, thr, gain = split
        go_left = X[idx, f] <= thr
        nodes[i] = [int(f), float(thr), 0.0, float(gain)]
        grow(idx[go_left], depth + 1)
        grow(idx[~go_left], depth + 1)

    grow(np.arange(len(y)), 0)
    return FlatTree.of_rows(nodes)


def ref_fit_random_forest(X, y, cfg):
    n, d = X.shape
    k = cfg.features_per_split or max(1, round(np.sqrt(d)))
    trees = []
    for stream in np.random.SeedSequence(cfg.seed).spawn(cfg.n_trees):
        rng = np.random.default_rng(stream)
        rows = rng.integers(0, n, size=max(1, round(cfg.bootstrap_fraction * n)))
        trees.append(ref_fit_cart(X[rows], y[rows], cfg.max_depth, 1, rng,
                                  min(k, d)))
    return trees


def ref_fit_gbt(X, y, cfg):
    """The trees and the loss trace, with the loss over every row."""
    y = y.astype(np.float64)
    n, d = X.shape
    is_binary = _ref_is_binary(X)

    def grow(nodes, g, h, idx, candidates, depth):
        i = len(nodes)
        G = float(g[idx].sum())
        H = float(h[idx].sum())
        value = -G / (H + cfg.lam) if H + cfg.lam > 0 else 0.0
        nodes.append([-1, 0.0, value, 0.0])  # a leaf
        if depth >= cfg.max_depth or idx.size < 2:
            return
        split = _ref_best_split_gh(X, g, h, idx, candidates, is_binary, cfg)
        if split is None:
            return
        f, thr, gain = split
        go_left = X[idx, f] <= thr
        nodes[i] = [int(f), float(thr), 0.0, float(gain)]
        grow(nodes, g, h, idx[go_left], candidates, depth + 1)
        grow(nodes, g, h, idx[~go_left], candidates, depth + 1)

    def loss(margin):
        return float(np.mean(np.logaddexp(0.0, margin) - y * margin))

    margin = np.full(n, np.log(cfg.base_score / (1.0 - cfg.base_score)))
    trees = []
    trace = [loss(margin)]
    for stream in np.random.SeedSequence(cfg.seed).spawn(cfg.rounds):
        rng = np.random.default_rng(stream)
        p = sigmoid(margin)
        g, h = p - y, p * (1.0 - p)
        scale = 2.0 ** (53 - int(np.ceil(np.log2(n + 1))))
        g, h = np.round(g * scale) / scale, np.round(h * scale) / scale
        rows = (np.sort(rng.choice(n, size=max(1, round(cfg.subsample * n)),
                                   replace=False))
                if cfg.subsample < 1.0 else np.arange(n))
        cand = (np.sort(rng.choice(np.arange(d), size=max(1, round(cfg.colsample * d)),
                                   replace=False))
                if cfg.colsample < 1.0 else np.arange(d))
        nodes = []
        grow(nodes, g, h, rows, cand, 0)
        trees.append(FlatTree.of_rows(nodes))
        kids = ref_children(trees[-1])
        margin += cfg.learning_rate * np.array([_ref_route(trees[-1], kids, x)
                                                for x in X])
        trace.append(loss(margin))
    return trees, trace


_COLUMN_VALUES = {
    "bit": st.sampled_from([0.0, 1.0, -0.0]),
    "low": st.sampled_from([0.0, 1.0, 3.0, 8.0]),
    "tied": st.one_of(st.sampled_from([-2.5, 0.0, 0.125, 0.125, 7.0]),
                      st.floats(-1e3, 1e3, allow_nan=False)),
}


@st.composite
def tree_data(draw):
    n = draw(st.integers(2, 300))
    kinds = draw(st.lists(st.sampled_from(sorted(_COLUMN_VALUES)),
                          min_size=1, max_size=7))
    X = np.column_stack([draw(arrays(np.float64, n, elements=_COLUMN_VALUES[k]))
                         for k in kinds])
    y = draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    return X, y


def _frames_like(n=4000, seed=0):
    """64 payload bits, a DLC, an ID and a tied interval column: the
    feature layout at a size where BLAS blocks its sums."""
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, 12, size=n)
    X = np.column_stack([
        rng.random((n, 64)) < np.linspace(0.05, 0.95, 64),
        (ids % 4) + 5,
        ids * 16.0,
        np.round(rng.exponential(0.01, size=n) + ids * 1e-3, 4),
    ]).astype(np.float64)
    y = ((X[:, 3] + X[:, 40] > 1) | (X[:, 66] < 0.004)).astype(np.int64)
    return X, y


def _rare_three(n=60, seed=5):
    """Two 0/1 columns and one valued {0, 1, 3} with a single 3, which many
    bootstrap samples miss: they see that column as 0/1."""
    rng = np.random.default_rng(seed)
    X = (rng.random((n, 3)) < 0.5).astype(np.float64)
    X[7, 1] = 3.0
    y = ((X[:, 1] > 0) ^ (rng.random(n) < 0.2)).astype(np.int64)
    return X, y


def _first66_like(n=2000, seed=0):
    """Rows drawn from 100 distinct ones over 64 payload bits, a DLC and an
    ID, with -0.0 beside 0.0 in the bits and the ID and some rows under both
    labels: the shape of the timing ablation's first66 subset, where the
    growers merge repeated rows."""
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, 6, size=100)
    distinct = np.column_stack([
        rng.random((100, 64)) < np.linspace(0.1, 0.9, 64),
        (ids % 3) + 6,
        ids * 16.0,
    ]).astype(np.float64)
    X = distinct[rng.integers(0, 100, size=n)]
    X[(X == 0.0) & (rng.random(X.shape) < 0.3)] = -0.0
    y = ((X[:, 3] + X[:, 40] > 1) ^ (rng.random(n) < 0.1)).astype(np.int64)
    return X, y


def assert_same_trees(got, want):
    """got and want hold the same trees: all four arrays, byte for byte."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name in TREE_ARRAYS:
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


@settings(max_examples=150, deadline=None)
@given(tree_data(), st.integers(0, 6), st.integers(1, 4))
@example(_frames_like(), 8, 2)
@example(_first66_like(), 8, 1)
@example(_first66_like(), 6, 3)
def test_cart_matches_gather_and_sort_reference(data, depth, leaf):
    X, y = data
    assert_same_trees([fit_cart(X, y, depth, leaf)],
                      [ref_fit_cart(X, y, depth, leaf)])


@settings(max_examples=100, deadline=None)
@given(tree_data(), st.integers(1, 3), st.integers(0, 6),
       st.one_of(st.none(), st.integers(1, 7)), st.sampled_from([0.5, 1.0]),
       st.integers(0, 2 ** 32 - 1))
@example(_frames_like(), 2, 8, None, 1.0, 3)
@example(_frames_like(), 2, 8, None, 0.5, 5)
@example(_rare_three(), 4, 6, 3, 1.0, 0)
@example(_rare_three(), 4, 6, 1, 1.0, 0)
@example(_first66_like(), 2, 8, None, 0.5, 7)
@example(_first66_like(), 2, 8, None, 1.0, 8)
def test_forest_matches_gather_and_sort_reference(data, n_trees, depth, k,
                                                  fraction, seed):
    X, y = data
    cfg = RandomForestDetector(n_trees, depth, k, fraction, seed=seed)
    assert_same_trees(fit_random_forest(X, y, cfg),
                      ref_fit_random_forest(X, y, cfg))


@settings(max_examples=150, deadline=None)
@given(tree_data(), st.integers(1, 4), st.integers(0, 5),
       st.sampled_from([0.0, 1.0]), st.sampled_from([0.0, 0.05]),
       st.sampled_from([0.0, 0.1, 1.0]), st.sampled_from([0.5, 0.8, 1.0]),
       st.sampled_from([0.5, 1.0]), st.integers(0, 2 ** 32 - 1))
@example(_frames_like(), 3, 5, 1.0, 0.0, 1.0, 0.8, 1.0, 1)
@example(_frames_like(), 2, 4, 1.0, 0.0, 1.0, 1.0, 0.5, 2)
@example(_first66_like(), 3, 5, 0.0, 0.0, 0.0, 0.8, 1.0, 3)
@example(_first66_like(), 3, 5, 1.0, 0.0, 1.0, 1.0, 1.0, 4)
def test_gbt_matches_gather_and_sort_reference(data, rounds, depth, lam, gamma,
                                               weight, subsample, colsample, seed):
    # model files store the loss trace, so it must match to the bit too
    X, y = data
    cfg = GbtDetector(rounds, 0.3, depth, lam, gamma, weight, subsample,
                      colsample, 0.5, seed=seed)
    got_trees, got_trace = fit_gbt(X, y, cfg)
    want_trees, want_trace = ref_fit_gbt(X, y, cfg)
    assert_same_trees(got_trees, want_trees)
    assert (np.array(got_trace).tobytes() == np.array(want_trace).tobytes())


PATH_FITS = {
    "fit_cart": lambda X, y: [fit_cart(X, y, 5, 2)],
    "fit_random_forest": lambda X, y: fit_random_forest(
        X, y, RandomForestDetector(3, 5, 2, 0.5, seed=1)),
    "fit_gbt": lambda X, y: fit_gbt(
        X, y, GbtDetector(3, 0.3, 4, 0.0, 0.0, 0.0, 0.5, 0.5, seed=2))[0],
}


@settings(max_examples=60, deadline=None)
@given(tree_data(), st.sampled_from(sorted(PATH_FITS)))
@example(_frames_like(), "fit_cart")
@example(_frames_like(), "fit_random_forest")
@example(_frames_like(), "fit_gbt")
def test_histogram_and_scan_columns_grow_the_same_trees(data, name):
    # only the distinct-value count picks a column's search; every column
    # scanned and every column histogrammed must agree to the bit
    X, y = data
    with mock.patch.object(trees, "_HIST_VALUES", 0):
        scanned = PATH_FITS[name](X, y)
    with mock.patch.object(trees, "_HIST_VALUES", 10 ** 6):
        binned = PATH_FITS[name](X, y)
    assert_same_trees(binned, scanned)


def _node_sizes(tree, X):
    """The number of rows of X that reach each node, and each node's
    depth."""
    left, right = ref_children(tree)
    sizes = np.zeros(tree.feature.size, dtype=np.int64)
    depth = np.zeros(tree.feature.size, dtype=np.int64)
    stack = [(0, np.arange(X.shape[0]), 0)]
    while stack:
        i, rows, d = stack.pop()
        sizes[i], depth[i] = rows.size, d
        if tree.feature[i] >= 0:
            go = X[rows, tree.feature[i]] <= tree.threshold[i]
            stack += [(left[i], rows[go], d + 1),
                      (right[i], rows[~go], d + 1)]
    return sizes, depth


def test_gbt_sums_only_the_smaller_child_of_each_split():
    # the root is summed, then at each split (pre-order) the smaller child
    # once one of the two children is searched; the larger child's sums
    # come by subtraction and are never summed
    X, y = _frames_like()
    max_depth = 5
    summed = []
    histogram = _Presorted.histogram

    def spy(self, idx, a, b):
        summed.append(idx.size)
        return histogram(self, idx, a, b)

    with mock.patch.object(_Presorted, "histogram", spy):
        fitted, _ = fit_gbt(X, y, GbtDetector(rounds=4, max_depth=max_depth,
                                              min_child_weight=0.0))
    want = []
    for tree in fitted:
        sizes, depth = _node_sizes(tree, X)
        left, right = ref_children(tree)
        want.append(X.shape[0])
        for i in np.flatnonzero(tree.feature >= 0):
            kids = sizes[[left[i], right[i]]]
            assert kids.sum() == sizes[i]
            if depth[i] + 1 < max_depth and kids.max() >= 2:
                want.append(int(kids.min()))
    assert summed == want
    assert sum(summed) < 2 * len(fitted) * X.shape[0]


@pytest.mark.parametrize("subsample", [1.0, 0.5])
def test_gbt_loss_trace_ends_at_the_model_margins(subsample):
    # the fit adds the leaf values the grower recorded and routes only the
    # rows a round did not sample; margins() routes every row of every tree
    X, y = _frames_like()
    det = fit_on(GbtDetector(rounds=12, max_depth=4, subsample=subsample,
                             seed=4), X, y)
    assert det.loss_trace[-1] == _log_loss(gbt_margins(det, X), y)


# --- memory ----------------------------------------------------------------------

FITS = {
    "fit_cart": lambda X, y: fit_cart(X, y, 6),
    "fit_random_forest": lambda X, y: fit_random_forest(
        X, y, RandomForestDetector(n_trees=3, max_depth=6)),
    "fit_gbt": lambda X, y: fit_gbt(
        X, y, GbtDetector(rounds=3, max_depth=4, subsample=0.5)),
    "fit_isolation_forest": lambda X, y: fit_isolation_forest(X, 3, 64),
}


@pytest.mark.parametrize("name", sorted(FITS))
def test_fit_leaves_no_reference_cycle(name):
    # a cycle would hold a tree's search data until the collector ran
    X, y = _frames_like(n=500)
    FITS[name](X, y)  # warm up: first calls may import and cache
    gc.collect()
    gc.disable()
    try:
        FITS[name](X, y)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _forest_fit_memory(X, y, n_trees):
    """tracemalloc's peak during an rf fit, and what is still allocated
    after it (the forest)."""
    tracemalloc.start()
    try:
        trees = fit_random_forest(X, y, RandomForestDetector(n_trees=n_trees))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trees) == n_trees
    return peak, held


def test_forest_fit_memory_does_not_grow_with_tree_count():
    # one presort for the forest, and one tree's search data at a time
    X, y = _frames_like()
    peak10, held10 = _forest_fit_memory(X, y, 10)
    peak40, held40 = _forest_fit_memory(X, y, 40)
    assert peak10 < X.nbytes
    assert peak40 - held40 < 1.1 * (peak10 - held10)
