import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from canids.autoencoder import sigmoid
from canids.detectors import (DecisionTreeDetector, GbtDetector,
                              RandomForestDetector)
from canids.errors import (
    EmptyData,
    IoError,
    NonBinaryLabels,
    UnfitModel,
    WrongWidth,
)
from canids.features import FeatureMatrix
from canids.model_io import encode_array
from canids.trees import (
    FlatTree,
    GbtModel,
    RandomForest,
    TreeNode,
    feature_importance,
    fit_cart,
    fit_gbt,
    fit_random_forest,
    tree_max_depth,
)
from canids.trees import _log_loss


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
    hi = np.nextafter(lo, np.inf)
    assert (lo + hi) / 2.0 >= hi
    X, y = np.array([[lo], [hi]]), np.array([0, 1])
    tree = fit_cart(X, y, max_depth=1)
    assert (tree.feature, tree.threshold) == (0, lo)
    assert FlatTree.from_node(tree).route(X).tolist() == [0.0, 1.0]
    gbt = fit_gbt(X, y, GbtDetector(rounds=1, max_depth=1, lam=0.0,
                                    min_child_weight=0.0))
    low, high = gbt.predict_proba(X)
    assert low < 0.5 < high


def test_pure_node_is_leaf():
    tree = fit_cart(np.array([[1.0], [2.0], [3.0]]), np.array([1, 1, 1]))
    assert tree.is_leaf and tree.value == 1.0


def test_root_split_on_separable_1d():
    X = np.array([[1.0], [2.0], [8.0], [9.0]])
    y = np.array([0, 0, 1, 1])
    tree = fit_cart(X, y, max_depth=3)
    assert tree.feature == 0
    assert tree.threshold == 5.0
    assert tree.left.is_leaf and tree.left.value == 0.0
    assert tree.right.is_leaf and tree.right.value == 1.0
    # root gini before split is 0.5 and the split is exhaustively optimal
    gain, argmax = exhaustive_best_split(X, y)
    assert float(gain) == pytest.approx(0.5)
    assert (tree.feature, tree.threshold) in argmax


def fit_dt(X, y, **params):
    return DecisionTreeDetector(**params).fit(
        FeatureMatrix(X, y, tuple(range(X.shape[1]))))


def test_predict_single_leaf():
    # depth 0: the root is a leaf holding the positive fraction 4/5
    det = fit_dt(np.arange(5.0).reshape(-1, 1), np.array([1, 1, 0, 1, 1]),
                 max_depth=0)
    assert det.tree.is_leaf
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
    assert det.tree.value == 0.5
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
        if best_gain <= 0:
            assert tree.is_leaf, f"trial {trial}: split where none has gain"
            continue
        assert not tree.is_leaf, f"trial {trial}: missed a positive-gain split"
        assert (tree.feature, tree.threshold) in argmax
        assert tree.gain == pytest.approx(float(best_gain), abs=1e-12)
        if len(argmax) == 1:
            assert (tree.feature, tree.threshold) == next(iter(argmax))


def test_cart_tie_breaks_to_lowest_feature():
    # identical duplicate columns: equal gains, lowest index must win
    X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    y = np.array([0, 0, 1, 1])
    tree = fit_cart(X, y, max_depth=1)
    assert tree.feature == 0


def test_cart_respects_min_samples_leaf():
    X = np.array([[1.0], [2.0], [8.0], [9.0], [10.0]])
    y = np.array([0, 0, 1, 1, 1])
    tree = fit_cart(X, y, max_depth=4, min_samples_leaf=2)

    def check(node):
        if node.is_leaf:
            return
        check(node.left)
        check(node.right)

    check(tree)
    # depth limit also respected
    assert tree_max_depth(fit_cart(X, y, max_depth=1)) <= 1


def test_cart_feature_sampling_needs_rng():
    X = np.arange(12.0).reshape(4, 3)
    y = np.array([0, 0, 1, 1])
    with pytest.raises(ValueError, match="rng"):
        fit_cart(X, y, features_per_split=2)
    # no sampling happens when every feature is a candidate
    assert fit_cart(X, y, features_per_split=3).feature == 0


def test_cart_rejects_bad_input():
    with pytest.raises(EmptyData):
        fit_cart(np.empty((0, 2)), np.array([]))
    with pytest.raises(NonBinaryLabels):
        fit_cart(np.ones((3, 1)), np.array([0, 1, 2]))


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
    model = fit_random_forest(X, y, cfg)
    assert len(model.trees) == 1
    proba = model.predict_proba(X)
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
    assert np.array_equal(a.predict_proba(X), b.predict_proba(X))


def test_forest_serialization_round_trip():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 3))
    y = (X[:, 0] > 0).astype(int)
    model = fit_random_forest(X, y, RandomForestDetector(n_trees=5, max_depth=4,
                                                         seed=1))
    payload = json.loads(json.dumps(model.to_payload()))
    restored = RandomForest.from_payload(payload, model.n_features)
    assert np.array_equal(model.predict_proba(X), restored.predict_proba(X))


# --- array trees -------------------------------------------------------------------

def _cart_data(seed=12):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(60, 3))
    return X, (X[:, 0] + X[:, 2] > 0).astype(int)


def _flat_payload():
    tree = FlatTree.from_node(fit_cart(*_cart_data()))
    return json.loads(json.dumps(tree.to_payload()))


def test_flat_tree_payload_round_trip():
    X, y = _cart_data()
    tree = FlatTree.from_node(fit_cart(X, y))
    back = FlatTree.from_payload(_flat_payload(), 3)
    for name in ("feature", "threshold", "left", "right", "value"):
        a, b = getattr(tree, name), getattr(back, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert back.route(X).tobytes() == tree.route(X).tobytes()


def _set(key, i, v):
    def corrupt(p):
        p[key][i] = v
    return corrupt


def _point_back_up(p):
    internal = [i for i, f in enumerate(p["feature"]) if f >= 0]
    p["right"][internal[-1]] = internal[0]


def _empty(p):
    p.update({k: [] for k in ("feature", "left", "right")})
    p.update({k: encode_array(np.zeros(0)) for k in ("threshold", "value")})


@pytest.mark.parametrize("corrupt, match", [
    (_set("left", 0, 0), "after its parent"),
    (_point_back_up, "after its parent"),
    (_set("right", 0, 10 ** 6), "after its parent"),
    (lambda p: p["left"].pop(), "one non-empty length"),
    (lambda p: p.update(value=encode_array(np.zeros((1, 1)))), "length"),
    (_empty, "non-empty"),
    (_set("feature", 0, 3), r"outside \[0, 3\)"),
    (_set("feature", 0, -2), r"outside \[0, 3\)"),
    (_set("left", 0, 1.5), "integer"),
    (_set("feature", 0, "0"), "integer"),
    (_set("left", 0, [1, 2]), "malformed"),
], ids=["cycle-at-root", "child-before-parent", "child-past-end", "ragged",
        "value-2d", "empty", "feature-3", "feature-minus-2", "float-index",
        "string-feature", "nested-index"])
def test_flat_tree_payload_is_checked(corrupt, match):
    payload = _flat_payload()
    corrupt(payload)
    with pytest.raises(IoError, match=match):
        FlatTree.from_payload(payload, 3)


def test_tree_dict_feature_outside_width_is_refused():
    obj = fit_cart(*_cart_data()).to_dict()
    assert TreeNode.from_dict(obj, 3).to_dict() == obj
    for width in (0, 1, 2):
        with pytest.raises(IoError, match=f"fitted width {width}"):
            TreeNode.from_dict(obj, width)


# --- gradient boosting ---------------------------------------------------------------

def test_gbt_balanced_single_leaf_weight_zero():
    X = np.zeros((10, 1))
    y = np.array([0, 1] * 5)
    cfg = GbtDetector(rounds=1, max_depth=0, lam=0.0, learning_rate=1.0,
                      base_score=0.5)
    model = fit_gbt(X, y, cfg)
    assert model.trees[0].is_leaf
    assert model.trees[0].value == 0.0
    assert np.allclose(model.predict_proba(X), 0.5)


def test_gbt_all_positive_leaf_weight_two():
    # g = 0.5 - 1 = -0.5 per row, h = 0.25: w = 0.5n / 0.25n = 2 exactly
    X = np.zeros((8, 1))
    y = np.ones(8, dtype=int)
    cfg = GbtDetector(rounds=1, max_depth=0, lam=0.0, learning_rate=1.0,
                      base_score=0.5)
    model = fit_gbt(X, y, cfg)
    assert model.trees[0].is_leaf
    assert model.trees[0].value == 2.0


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
    model = fit_gbt(X, y, cfg)
    acc = ((model.predict_proba(X) >= 0.5) == y).mean()
    assert acc >= 0.99
    trace = np.array(model.loss_trace)
    assert np.all(np.diff(trace) <= 1e-12)


def test_gbt_deterministic_with_subsampling():
    X, y = _blobs(seed=3)
    cfg = GbtDetector(rounds=10, max_depth=3, subsample=0.7, colsample=0.6,
                      seed=9)
    a = fit_gbt(X, y, cfg)
    b = fit_gbt(X, y, cfg)
    assert a.loss_trace == b.loss_trace
    assert np.array_equal(a.predict_proba(X), b.predict_proba(X))


def test_gbt_serialization_bit_exact():
    X, y = _blobs(seed=5)
    model = fit_gbt(X, y, GbtDetector(rounds=8, max_depth=3, seed=2))
    payload = json.loads(json.dumps(model.to_payload()))
    restored = GbtModel.from_payload(payload, model.n_features,
                                     model.learning_rate)
    assert np.array_equal(model.predict_proba(X), restored.predict_proba(X))
    assert restored.loss_trace == model.loss_trace


def test_gbt_binary_feature_fast_path_consistency():
    # 0/1 columns must behave like any other feature with one candidate
    rng = np.random.default_rng(8)
    bits = rng.integers(0, 2, size=(120, 6)).astype(float)
    y = (bits[:, 2] * 2 + bits[:, 4] > 1.5).astype(int)
    model = fit_gbt(bits, y, GbtDetector(rounds=20, max_depth=3, seed=1))
    assert ((model.predict_proba(bits) >= 0.5) == y).mean() >= 0.99
    # the same data with thresholds shifted off 0.5 (scaled 0/2 columns)
    model2 = fit_gbt(bits * 2, y, GbtDetector(rounds=20, max_depth=3, seed=1))
    assert np.array_equal(model.predict_proba(bits) >= 0.5,
                          model2.predict_proba(bits * 2) >= 0.5)


def test_gbt_rejects_bad_labels():
    with pytest.raises(NonBinaryLabels):
        fit_gbt(np.ones((4, 1)), np.array([0, 1, 2, 1]), GbtDetector(rounds=1))
    with pytest.raises(EmptyData):
        fit_gbt(np.empty((0, 1)), np.array([]), GbtDetector(rounds=1))


def test_gbt_width_check_on_predict():
    X, y = _blobs(seed=6)
    model = fit_gbt(X, y, GbtDetector(rounds=2, max_depth=2, seed=0))
    with pytest.raises(WrongWidth):
        model.predict_proba(np.ones((3, 5)))


# --- feature importance ---------------------------------------------------------

def test_importance_single_feature_is_one():
    rng = np.random.default_rng(10)
    X = np.zeros((100, 3))
    X[:, 1] = rng.normal(size=100)
    y = (X[:, 1] > 0).astype(int)
    model = fit_gbt(X, y, GbtDetector(rounds=5, max_depth=2, seed=0))
    imp = feature_importance(model)
    assert imp[1] == pytest.approx(1.0)
    assert imp[0] == imp[2] == 0.0


def test_importance_no_splits_all_zero():
    X = np.zeros((10, 2))
    y = np.array([0, 1] * 5)
    model = fit_gbt(X, y, GbtDetector(rounds=3, max_depth=2, seed=0))
    assert feature_importance(model).tolist() == [0.0, 0.0]


def test_importance_requires_fitted_model():
    with pytest.raises(UnfitModel):
        feature_importance(GbtModel(GbtDetector(rounds=1).learning_rate,
                                    trees=[]))


def test_importance_sums_to_one():
    X, y = _blobs(seed=7)
    model = fit_gbt(X, y, GbtDetector(rounds=10, max_depth=3, seed=0))
    imp = feature_importance(model)
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


def _ref_route(node, x):
    """Leaf value reached by one row, walking the linked nodes."""
    while not node.is_leaf:
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node.value


def _ref_is_binary(X):
    return np.all((X == 0.0) | (X == 1.0), axis=0)


def ref_fit_cart(X, y, max_depth=12, min_samples_leaf=1, rng=None,
                 features_per_split=None):
    X = np.asarray(X, dtype=np.float64)
    is_binary = _ref_is_binary(X)
    all_feats = np.arange(X.shape[1])

    def grow(idx, depth):
        pos = float(y[idx].sum())
        leaf = TreeNode(value=pos / idx.size)
        if pos == 0 or pos == idx.size or depth >= max_depth:
            return leaf
        if idx.size < 2 * min_samples_leaf:
            return leaf
        if features_per_split is not None and features_per_split < X.shape[1]:
            cand = np.sort(rng.choice(all_feats, size=features_per_split,
                                      replace=False))
        else:
            cand = all_feats
        split = _ref_best_split_gini(X, y, idx, cand, is_binary, min_samples_leaf)
        if split is None:
            return leaf
        f, thr, gain = split
        go_left = X[idx, f] <= thr
        node = TreeNode(feature=int(f), threshold=float(thr), gain=float(gain))
        node.left = grow(idx[go_left], depth + 1)
        node.right = grow(idx[~go_left], depth + 1)
        return node

    return grow(np.arange(len(y)), 0)


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
    y = y.astype(np.float64)
    n, d = X.shape
    is_binary = _ref_is_binary(X)

    def grow(g, h, idx, candidates, depth):
        G = float(g[idx].sum())
        H = float(h[idx].sum())
        leaf = TreeNode(value=-G / (H + cfg.lam) if H + cfg.lam > 0 else 0.0)
        if depth >= cfg.max_depth or idx.size < 2:
            return leaf
        split = _ref_best_split_gh(X, g, h, idx, candidates, is_binary, cfg)
        if split is None:
            return leaf
        f, thr, gain = split
        go_left = X[idx, f] <= thr
        node = TreeNode(feature=int(f), threshold=float(thr), gain=float(gain))
        node.left = grow(g, h, idx[go_left], candidates, depth + 1)
        node.right = grow(g, h, idx[~go_left], candidates, depth + 1)
        return node

    margin = np.full(n, np.log(cfg.base_score / (1.0 - cfg.base_score)))
    trees = []
    for stream in np.random.SeedSequence(cfg.seed).spawn(cfg.rounds):
        rng = np.random.default_rng(stream)
        p = sigmoid(margin)
        g, h = p - y, p * (1.0 - p)
        rows = (np.sort(rng.choice(n, size=max(1, round(cfg.subsample * n)),
                                   replace=False))
                if cfg.subsample < 1.0 else np.arange(n))
        cand = (np.sort(rng.choice(np.arange(d), size=max(1, round(cfg.colsample * d)),
                                   replace=False))
                if cfg.colsample < 1.0 else np.arange(d))
        trees.append(grow(g, h, rows, cand, 0))
        margin += cfg.learning_rate * np.array([_ref_route(trees[-1], x)
                                                for x in X])
    return trees


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


def _dicts(trees):
    return [t.to_dict() for t in trees]


@settings(max_examples=150, deadline=None)
@given(tree_data(), st.integers(0, 6), st.integers(1, 4),
       st.one_of(st.none(), st.integers(1, 7)), st.integers(0, 2 ** 32 - 1))
@example(_frames_like(), 8, 2, None, 0)
def test_cart_matches_gather_and_sort_reference(data, depth, leaf, k, seed):
    X, y = data
    got = fit_cart(X, y, depth, leaf, np.random.default_rng(seed), k)
    want = ref_fit_cart(X, y, depth, leaf, np.random.default_rng(seed), k)
    assert got.to_dict() == want.to_dict()


@settings(max_examples=100, deadline=None)
@given(tree_data(), st.integers(1, 3), st.integers(0, 6),
       st.one_of(st.none(), st.integers(1, 7)), st.sampled_from([0.5, 1.0]),
       st.integers(0, 2 ** 32 - 1))
@example(_frames_like(), 2, 8, None, 1.0, 3)
def test_forest_matches_gather_and_sort_reference(data, n_trees, depth, k,
                                                  fraction, seed):
    X, y = data
    cfg = RandomForestDetector(n_trees, depth, k, fraction, seed=seed)
    assert _dicts(fit_random_forest(X, y, cfg).trees) == _dicts(
        ref_fit_random_forest(X, y, cfg))


@settings(max_examples=150, deadline=None)
@given(tree_data(), st.integers(1, 4), st.integers(0, 5),
       st.sampled_from([0.0, 1.0]), st.sampled_from([0.0, 0.05]),
       st.sampled_from([0.0, 0.1, 1.0]), st.sampled_from([0.5, 0.8, 1.0]),
       st.sampled_from([0.5, 1.0]), st.integers(0, 2 ** 32 - 1))
@example(_frames_like(), 3, 5, 1.0, 0.0, 1.0, 0.8, 1.0, 1)
@example(_frames_like(), 2, 4, 1.0, 0.0, 1.0, 1.0, 0.5, 2)
def test_gbt_matches_gather_and_sort_reference(data, rounds, depth, lam, gamma,
                                               weight, subsample, colsample, seed):
    X, y = data
    cfg = GbtDetector(rounds, 0.3, depth, lam, gamma, weight, subsample,
                      colsample, 0.5, seed=seed)
    assert _dicts(fit_gbt(X, y, cfg).trees) == _dicts(ref_fit_gbt(X, y, cfg))


@pytest.mark.parametrize("subsample", [1.0, 0.5])
def test_gbt_loss_trace_ends_at_the_model_margins(subsample):
    # the fit adds the leaf values the grower recorded and routes only the
    # rows a round did not sample; margins() routes every row of every tree
    X, y = _frames_like()
    model = fit_gbt(X, y, GbtDetector(rounds=12, max_depth=4,
                                      subsample=subsample, seed=4))
    assert model.loss_trace[-1] == _log_loss(model.margins(X), y)
