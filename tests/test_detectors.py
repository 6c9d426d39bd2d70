import hashlib
import json
import re
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canids.detectors import (
    ALL_MODELS,
    SEMI_SUPERVISED_MODELS,
    SUPERVISED_MODELS,
    derive_seed,
    load_detector,
    make_detector,
    save_detector,
)
from canids.errors import (
    ConfigError,
    EmptyData,
    IoError,
    MissingLabels,
    NonBinaryLabels,
    UnfitModel,
    WrongWidth,
)
from canids.features import FeatureMatrix
from canids.model_io import encode_array
from canids.neighbors import NeighborIndex


def small_dataset(seed=0, n=300):
    """Separable toy features: anomalies shift two columns strongly."""
    rng = np.random.default_rng(seed)
    n_anom = n // 6
    normal = rng.normal(0.0, 1.0, size=(n - n_anom, 5))
    anom = rng.normal(0.0, 1.0, size=(n_anom, 5))
    anom[:, 1] += 8.0
    anom[:, 3] -= 8.0
    values = np.vstack([normal, anom])
    labels = np.array([0] * (n - n_anom) + [1] * n_anom, dtype=np.int8)
    perm = rng.permutation(n)
    return FeatureMatrix(values[perm], labels[perm], tuple(range(5)))


FAST_PARAMS = {
    "dt": {"max_depth": 6},
    "knn": {"k": 3},
    "rf": {"n_trees": 10, "max_depth": 5},
    "gbt": {"rounds": 15, "max_depth": 3},
    "rc": {"support_fraction": 0.9},
    "lof": {"k": 10},
    "iforest": {"n_trees": 30, "subsample": 64},
    "dae": {"hidden": (8,), "bottleneck": 3, "epochs": 15, "batch_size": 32},
}


# every constructor keyword away from its default
OTHER_PARAMS = {
    "dt": {"max_depth": 5, "min_samples_leaf": 2, "cutoff": 0.4},
    "knn": {"k": 4},
    "rf": {"n_trees": 7, "max_depth": 4, "features_per_split": 2,
           "bootstrap_fraction": 0.8, "cutoff": 0.45},
    "gbt": {"rounds": 12, "learning_rate": 0.2, "max_depth": 3, "lam": 0.5,
            "gamma_split": 0.01, "min_child_weight": 0.5, "subsample": 0.9,
            "colsample": 0.8, "base_score": 0.4, "cutoff": 0.6},
    "rc": {"support_fraction": 0.8, "cutoff_level": 0.95},
    "lof": {"k": 7, "threshold": 1.3, "max_fit_samples": 100},
    "iforest": {"n_trees": 25, "subsample": 50, "threshold": 0.55},
    "dae": {"hidden": (6,), "bottleneck": 2, "epochs": 5, "batch_size": 16,
            "learning_rate": 0.005, "optimizer": "sgd"},
}


def fit_view(det, train):
    """Every row for supervised models, the normal rows otherwise."""
    if det.supervised:
        return train
    rows = np.flatnonzero(train.labels == 0)
    return FeatureMatrix(train.values[rows], train.labels[rows],
                         train.column_ids)


@pytest.mark.parametrize("name", ALL_MODELS)
def test_detector_contract(name):
    train = small_dataset(seed=1)
    val = small_dataset(seed=2, n=120)
    test = small_dataset(seed=3, n=120)
    det = make_detector(name, FAST_PARAMS[name], seed=derive_seed(7, name))
    det.fit(fit_view(det, train), val=val)
    scores = det.score(test)
    preds = det.predict(test)
    assert scores.shape == (test.n_rows,)
    assert set(np.unique(preds)).issubset({0, 1})
    # predict is exactly the thresholding of score
    assert np.array_equal(preds, det.decide(scores))
    # these toy anomalies are blatant: every model should beat chance
    anom_mean = scores[test.labels == 1].mean()
    norm_mean = scores[test.labels == 0].mean()
    assert anom_mean > norm_mean


@pytest.mark.parametrize("name", SUPERVISED_MODELS)
def test_supervised_requires_labels(name):
    train = small_dataset()
    unlabeled = FeatureMatrix(train.values, None, train.column_ids)
    det = make_detector(name, FAST_PARAMS[name])
    with pytest.raises(MissingLabels):
        det.fit(unlabeled)


@pytest.mark.parametrize("name", ALL_MODELS)
def test_fit_checks_and_converts_its_input(name):
    """fit refuses a matrix without rows or columns and supervised labels
    other than 0/1, and fits integer values as their float64 copy."""
    det = make_detector(name, FAST_PARAMS[name], seed=2)
    train = fit_view(det, small_dataset(seed=23))
    for rows, cols in ((slice(0), slice(None)), (slice(None), slice(0))):
        empty = FeatureMatrix(train.values[rows, cols], train.labels[rows],
                              train.column_ids[cols])
        with pytest.raises(EmptyData):
            det.fit(empty)
    ints = np.round(4 * train.values).astype(np.int64)
    test = small_dataset(seed=24, n=100)
    scores = [det.fit(FeatureMatrix(v, train.labels, train.column_ids))
              .score(test).tobytes() for v in (ints, ints.astype(np.float64))]
    assert scores[0] == scores[1]
    if det.supervised:
        labels = train.labels.copy()
        labels[0] = 2
        with pytest.raises(NonBinaryLabels):
            det.fit(FeatureMatrix(train.values, labels, train.column_ids))


def test_score_before_fit_raises():
    det = make_detector("dt")
    with pytest.raises(UnfitModel):
        det.score(np.ones((2, 5)))


@pytest.mark.parametrize("name", ALL_MODELS)
def test_detector_serialization_round_trip(name, tmp_path):
    train = small_dataset(seed=4)
    val = small_dataset(seed=5, n=120)
    test = small_dataset(seed=6, n=100)
    det = make_detector(name, FAST_PARAMS[name], seed=1)
    det.fit(fit_view(det, train), val=val)
    path = tmp_path / f"{name}.json"
    save_detector(path, det)
    restored = load_detector(path)
    assert restored.name == name
    assert det.score(test).tobytes() == restored.score(test).tobytes()
    assert np.array_equal(det.predict(test), restored.predict(test))
    # a loaded model saves to the bytes it was loaded from
    again = tmp_path / f"{name}.again.json"
    save_detector(again, restored)
    assert again.read_bytes() == path.read_bytes()


def test_derive_seed_stable_and_distinct():
    assert derive_seed(42, "gbt") == derive_seed(42, "gbt")
    assert derive_seed(42, "gbt") != derive_seed(42, "dt")
    assert derive_seed(42, "gbt") != derive_seed(43, "gbt")


def test_make_detector_unknown_name():
    with pytest.raises(KeyError):
        make_detector("svm")


def test_make_detector_unknown_param_is_a_config_error():
    with pytest.raises(ConfigError, match="unknown dt param 'bogus'"):
        make_detector("dt", {"max_depth": 3, "bogus": 1})


def test_model_groups():
    assert set(SUPERVISED_MODELS) | set(SEMI_SUPERVISED_MODELS) == set(ALL_MODELS)
    assert not set(SUPERVISED_MODELS) & set(SEMI_SUPERVISED_MODELS)


def test_dae_normal_only_enforced():
    train = small_dataset(seed=8)
    det = make_detector("dae", FAST_PARAMS["dae"])
    with pytest.raises(ConfigError, match="normal rows only"):
        det.fit(train)  # contains anomaly-labeled rows


def test_dae_threshold_fallback_without_validation():
    train = small_dataset(seed=9)
    rows = np.flatnonzero(train.labels == 0)
    normal = FeatureMatrix(train.values[rows], train.labels[rows],
                           train.column_ids)
    det = make_detector("dae", FAST_PARAMS["dae"])
    det.fit(normal)  # no val: falls back to train percentile
    assert det.threshold > 0
    assert det.threshold_p == 95.0


@pytest.mark.parametrize("name", ALL_MODELS)
def test_detector_rejects_other_widths(name):
    train = small_dataset(seed=10)
    det = make_detector(name, FAST_PARAMS[name], seed=1)
    det.fit(fit_view(det, train), val=small_dataset(seed=11, n=120))
    test = small_dataset(seed=12, n=20).values
    for X in (test[:, :-1], np.hstack([test, test[:, :1]])):
        with pytest.raises(WrongWidth):
            det.score(X)


@pytest.mark.parametrize("name", ALL_MODELS)
def test_fit_refuses_validation_of_another_width(name):
    train = fit_view(make_detector(name), small_dataset(seed=10))
    val = small_dataset(seed=11, n=120)
    for values in (val.values[:, :3], np.hstack([val.values, val.values])):
        other = FeatureMatrix(values, val.labels, tuple(range(values.shape[1])))
        det = make_detector(name, FAST_PARAMS[name], seed=1)
        with pytest.raises(WrongWidth, match="validation has"):
            det.fit(train, val=other)
        assert not det.fitted


@pytest.mark.parametrize("name", ALL_MODELS)
def test_params_round_trip(name, tmp_path):
    train = small_dataset(seed=13)
    test = small_dataset(seed=14, n=100)
    det = make_detector(name, OTHER_PARAMS[name], seed=5)
    det.fit(fit_view(det, train), val=small_dataset(seed=15, n=120))
    path = tmp_path / f"{name}.json"
    save_detector(path, det)
    restored = load_detector(path)
    assert restored.params() == det.params()
    assert restored.seed == det.seed
    assert det.score(test).tobytes() == restored.score(test).tobytes()


# --- params read and checked on the detector ---------------------------------

@pytest.mark.parametrize("name, key, fitted_count", [
    ("rf", "n_trees", lambda det: len(det.trees)),
    ("gbt", "rounds", lambda det: len(det.trees)),
    ("dae", "epochs", lambda det: len(det.loss_trace)),
], ids=["rf", "gbt", "dae"])
def test_param_set_after_construction_is_fitted_and_saved(name, key,
                                                          fitted_count,
                                                          tmp_path):
    test = small_dataset(seed=20, n=100)
    det = make_detector(name, FAST_PARAMS[name], seed=2)
    setattr(det, key, 3)
    det.fit(fit_view(det, small_dataset(seed=19)))
    assert fitted_count(det) == det.params()[key] == 3
    path = tmp_path / f"{name}.json"
    save_detector(path, det)
    restored = load_detector(path)
    assert restored.params()[key] == 3
    if name != "dae":  # a dae model file holds no loss trace
        assert fitted_count(restored) == 3
    assert restored.score(test).tobytes() == det.score(test).tobytes()


def test_gbt_params_set_after_fit_agree_across_save_and_load(tmp_path):
    # the margins read learning_rate and base_score from the detector, in
    # memory and after loading alike
    test = small_dataset(seed=23, n=100)
    det = make_detector("gbt", {"rounds": 5, "max_depth": 3}, seed=4)
    det.fit(small_dataset(seed=24))
    det.learning_rate, det.base_score = 0.1, 0.2
    save_detector(tmp_path / "gbt.json", det)
    restored = load_detector(tmp_path / "gbt.json")
    assert restored.score(test).tobytes() == det.score(test).tobytes()


REFUSED_PARAMS = [
    ("rf", "n_trees", 0, "n_trees must be >= 1"),
    ("rf", "features_per_split", 0, "features_per_split must be >= 1 or None"),
    ("gbt", "rounds", 0, "rounds must be >= 1"),
    ("gbt", "learning_rate", 0, "learning_rate must lie in (0, 1]"),
    ("gbt", "learning_rate", 2, "learning_rate must lie in (0, 1]"),
    ("gbt", "lam", -1, "lam and gamma_split must be >= 0"),
    ("gbt", "gamma_split", -1, "lam and gamma_split must be >= 0"),
    ("gbt", "base_score", 0, "base_score must lie in (0, 1)"),
    ("gbt", "base_score", 1, "base_score must lie in (0, 1)"),
    ("dae", "epochs", 0, "epochs and batch_size must be >= 1"),
    ("dae", "batch_size", 0, "epochs and batch_size must be >= 1"),
    ("dae", "learning_rate", -1, "learning rate must be >= 0"),
    ("dae", "optimizer", "rmsprop", "unknown optimizer 'rmsprop'"),
    ("iforest", "n_trees", 0, "n_trees must be >= 1"),
    ("iforest", "subsample", 1, "subsample must be >= 2"),
    ("lof", "k", 0, "k must be >= 1"),
    ("knn", "k", 0, "k must be >= 1"),
    ("rc", "support_fraction", 0.5, "support_fraction must lie in (0.5, 1]"),
    ("rc", "support_fraction", 1.5, "support_fraction must lie in (0.5, 1]"),
    ("rc", "cutoff_level", 0, "cutoff_level must lie in (0, 1)"),
    ("rc", "cutoff_level", 1, "cutoff_level must lie in (0, 1)"),
    ("rc", "cutoff_level", 7, "cutoff_level must lie in (0, 1)"),
    # a keyword declared int or float holds a number, whatever the kind
    ("knn", "k", "abc", "knn param k must be a number, not 'abc'"),
    ("dt", "max_depth", "x", "dt param max_depth must be a number, not 'x'"),
    ("gbt", "learning_rate", True,
     "gbt param learning_rate must be a number, not True"),
    ("rf", "features_per_split", "4",
     "rf param features_per_split must be a number, not '4'"),
    ("lof", "max_fit_samples", [1],
     "lof param max_fit_samples must be a number, not [1]"),
    ("iforest", "subsample", None,
     "iforest param subsample must be a number, not None"),
]


@pytest.mark.parametrize("name, key, value, message", REFUSED_PARAMS)
def test_refused_param_is_a_config_error_at_make(name, key, value, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        make_detector(name, {key: value})


def test_number_keywords_take_ints_numpy_numbers_and_declared_none():
    assert make_detector("gbt", {"learning_rate": 1}).learning_rate == 1
    assert make_detector("rc", {"support_fraction": np.float64(0.8),
                                "seed": np.int64(3)}).seed == 3
    assert make_detector("lof", {"max_fit_samples": None}).max_fit_samples is None
    assert make_detector("rf", {"features_per_split": 4}).features_per_split == 4


@pytest.mark.parametrize("name, key, value, message", REFUSED_PARAMS)
def test_refused_param_set_after_construction_fails_fit(name, key, value,
                                                        message):
    det = make_detector(name, FAST_PARAMS[name])
    setattr(det, key, value)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        det.fit(fit_view(det, small_dataset(seed=21)))


def saved_model(tmp_path, name):
    det = make_detector(name, FAST_PARAMS[name])
    det.fit(fit_view(det, small_dataset(seed=16)))
    path = tmp_path / f"{name}.json"
    save_detector(path, det)
    return path, json.loads(path.read_text())


def saved_dt(tmp_path):
    return saved_model(tmp_path, "dt")


def refuse_version(version, tmp_path):
    path, doc = saved_dt(tmp_path)
    doc["version"] = version
    path.write_text(json.dumps(doc))
    with pytest.raises(IoError, match=f"version {version}"):
        load_detector(path)


def test_version_1_model_file_is_refused(tmp_path):
    refuse_version(1, tmp_path)


def test_version_2_model_file_is_refused(tmp_path):
    refuse_version(2, tmp_path)


def test_version_3_model_file_is_refused(tmp_path):
    refuse_version(3, tmp_path)


def test_version_4_model_file_is_refused(tmp_path):
    refuse_version(4, tmp_path)


def test_version_5_model_file_is_refused(tmp_path):
    refuse_version(5, tmp_path)


def test_version_6_model_file_is_refused(tmp_path):
    refuse_version(6, tmp_path)


def test_version_7_model_file_is_refused(tmp_path):
    refuse_version(7, tmp_path)


@pytest.mark.parametrize("drop", ["kind", "payload", "params", "seed",
                                  "n_features", "state", "trees", "sizes"])
def test_model_file_missing_key_is_an_io_error(drop, tmp_path):
    path, doc = saved_dt(tmp_path)
    for obj in (doc, doc["payload"], doc["payload"]["state"]):
        obj.pop(drop, None)
    path.write_text(json.dumps(doc))
    with pytest.raises(IoError, match=repr(drop)):
        load_detector(path)


@pytest.mark.parametrize("part, value", [
    ("payload", []), ("state", []), ("params", [1]), ("standardizer", "x"),
])
def test_model_file_part_not_an_object_is_an_io_error(part, value, tmp_path):
    path, doc = saved_model(tmp_path, "knn")
    for obj in (doc, doc["payload"], doc["payload"]["state"]):
        if part in obj:
            obj[part] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(IoError, match=f"model file .*: {part} is not an object"):
        load_detector(path)


def test_model_file_unknown_param_is_an_io_error(tmp_path):
    path, doc = saved_dt(tmp_path)
    doc["payload"]["params"]["bogus"] = 1
    path.write_text(json.dumps(doc))
    with pytest.raises(IoError, match="unknown dt param 'bogus'"):
        load_detector(path)


@pytest.mark.parametrize("width", ["6", 0, 2.5, None])
def test_model_file_bad_width_is_an_io_error(width, tmp_path):
    path, doc = saved_dt(tmp_path)
    doc["payload"]["n_features"] = width
    path.write_text(json.dumps(doc))
    with pytest.raises(IoError, match=f"model file {path}: n_features"):
        load_detector(path)


# keys that model files held before and that loading ignores
STALE_KEYS = {"rf": {"n_features": 9}, "gbt": {"n_features": 9},
              "iforest": {"n_trees": 7, "seed": 1}}


def tree_holder(name, doc):
    """The object of a model file that holds the tree sizes and arrays."""
    state = doc["payload"]["state"]
    return state["model"] if name == "iforest" else state


@pytest.mark.parametrize("name", sorted(STALE_KEYS))
def test_model_file_stale_model_keys_are_ignored(name, tmp_path):
    path, doc = saved_model(tmp_path, name)
    assert not STALE_KEYS[name].keys() & tree_holder(name, doc).keys()
    test = small_dataset(seed=22, n=100)
    want = load_detector(path).score(test)
    tree_holder(name, doc).update(STALE_KEYS[name])
    path.write_text(json.dumps(doc))
    assert load_detector(path).score(test).tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["rf", "gbt"])
def test_model_file_tree_split_beyond_width_is_an_io_error(name, tmp_path):
    path, doc = saved_model(tmp_path, name)
    feature = tree_holder(name, doc)["trees"]["feature"]
    assert feature[0] >= 0
    feature[0] = doc["payload"]["n_features"]
    path.write_text(json.dumps(doc))
    with pytest.raises(IoError, match=f"model file {re.escape(str(path))}: "
                                      r"tree split on a feature outside \[0, 5\)"):
        load_detector(path)


@pytest.mark.parametrize("name, key", [("rf", "n_trees"), ("gbt", "rounds"),
                                       ("iforest", "n_trees")])
def test_model_file_tree_count_must_match_params(name, key, tmp_path):
    path, doc = saved_model(tmp_path, name)
    stored = len(tree_holder(name, doc)["sizes"])
    assert doc["payload"]["params"][key] == stored
    doc["payload"]["params"][key] = 2 * stored
    path.write_text(json.dumps(doc))
    with pytest.raises(IoError, match=f"model file {re.escape(str(path))}: "
                                      f"{stored} trees, {key} is {2 * stored}$"):
        load_detector(path)


# (kind, path to a state value, the value put there, IoError message)
MALFORMED_STATE = [
    pytest.param("rc", ["cutoff"], 5, "5 is not a hex float",
                 id="rc cutoff number"),
    pytest.param("rc", ["cutoff"], "0x1.8q", "'0x1.8q' is not a hex float",
                 id="rc cutoff malformed"),
    pytest.param("dae", ["threshold", "p"], 95, "95 is not a hex float",
                 id="dae threshold p number"),
    pytest.param("gbt", ["loss_trace", 0], 0.5,
                 "0.5 is not a hex float", id="gbt loss_trace number"),
    pytest.param("rc", ["mean"], encode_array(np.zeros(3)),
                 r"mean has shape \[3\], n_features 5 needs \[5\]",
                 id="rc mean 3 wide"),
    pytest.param("rc", ["cov"], encode_array(np.eye(3)),
                 r"cov has shape \[3, 3\], n_features 5 needs \[5, 5\]",
                 id="rc cov 3 by 3"),
    pytest.param("rc", ["cov_inv"], encode_array(np.ones(25)),
                 r"cov_inv has shape \[25\], n_features 5 needs \[5, 5\]",
                 id="rc cov_inv flat"),
]


@pytest.mark.parametrize("name, keys, value, message", MALFORMED_STATE)
def test_model_file_malformed_state_is_an_io_error(name, keys, value, message,
                                                   tmp_path):
    path, doc = saved_model(tmp_path, name)
    obj = doc["payload"]["state"]
    for key in keys[:-1]:
        obj = obj[key]
    obj[keys[-1]] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(IoError, match=f"^model file {re.escape(str(path))}: "
                                      f"{message}"):
        load_detector(path)


def test_model_file_unknown_kind_is_an_io_error(tmp_path):
    path, doc = saved_dt(tmp_path)
    doc["kind"] = "svm"
    path.write_text(json.dumps(doc))
    with pytest.raises(IoError, match="unknown model kind 'svm'"):
        load_detector(path)


def test_lof_loads_without_neighbour_search(tmp_path, monkeypatch):
    train = small_dataset(seed=17)
    test = small_dataset(seed=18, n=100)
    det = make_detector("lof", FAST_PARAMS["lof"], seed=3)
    det.fit(fit_view(det, train))
    path = tmp_path / "lof.json"
    save_detector(path, det)

    def no_query(*args, **kwargs):
        raise AssertionError("load_detector ran a neighbour search")

    with monkeypatch.context() as m:
        m.setattr(NeighborIndex, "query", no_query)
        restored = load_detector(path)
    assert restored.score(test).tobytes() == det.score(test).tobytes()


# --- batch invariance ----------------------------------------------------------

INVARIANCE_PARAMS = {**FAST_PARAMS, "dae": {"epochs": 3, "batch_size": 64}}


def can_like_dataset(seed, n):
    """67 columns as extract makes them: 64 payload bits drawn from a few
    patterns and 3 coarse timing columns, so rows repeat exactly; anomalies
    shift the timing columns."""
    rng = np.random.default_rng(seed)
    patterns = (rng.random((8, 64)) < 0.4).astype(float)
    values = np.hstack([patterns[rng.integers(0, 8, n)],
                        np.round(rng.exponential(1.0, size=(n, 3)), 1)])
    labels = (rng.random(n) < 0.2).astype(np.int8)
    values[labels == 1, 64:] += 4.0
    return FeatureMatrix(values, labels, tuple(range(67)))


@cache
def invariance_case(name):
    """A fitted detector and the test rows it scores."""
    train = can_like_dataset(20, 600)
    det = make_detector(name, INVARIANCE_PARAMS[name], seed=5)
    det.fit(fit_view(det, train), val=can_like_dataset(21, 300))
    test = can_like_dataset(22, 400).values
    test[:40] = train.values[:40]  # exact copies of references
    return det, test


@pytest.mark.parametrize("name", ALL_MODELS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_scores_do_not_depend_on_the_batch(name, data):
    """A row's score is the same bytes in any batch: any subset of the
    test rows, in any order and with repeats, or a permutation of all."""
    det, test = invariance_case(name)
    n = len(test)
    rows = data.draw(st.one_of(
        st.permutations(range(n)),
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n)))
    rows = np.array(rows)
    assert det.score(test[rows]).tobytes() == det.score(test)[rows].tobytes()


def golden_dataset(seed, n):
    """8 columns: four 0/1 columns, a 5-valued column and three continuous
    ones, so that tree fits search the 0/1 block, value codes and scanned
    columns; anomalies shift two continuous columns and set a bit."""
    rng = np.random.default_rng(seed)
    values = np.hstack([(rng.random((n, 4)) < 0.3).astype(float),
                        rng.integers(0, 5, (n, 1)).astype(float),
                        rng.normal(0.0, 1.0, (n, 3))])
    labels = (rng.random(n) < 0.25).astype(np.int8)
    values[labels == 1, 5:7] += 1.5
    values[labels == 1, 0] = 1.0
    return FeatureMatrix(values, labels, tuple(range(8)))


# sha256 of each tree and neighbour model's file, fitted with OTHER_PARAMS on
# golden_dataset(30, 400), validated on golden_dataset(31, 150), seed 9.
# Every split sum is exact, the standardizer takes numpy reductions and
# neighbour distances are exact, so the bytes do not depend on BLAS.
GOLDEN_MODEL_FILES = {
    "dt": "a159771c52129afbfeb36f1fef3cca2a3af03a88ce6a27bd17494081a091a1f8",
    "rf": "8c715548cf53fca9496bf876eeda8cfc6b6c44fed8bf99d383d348662bec8977",
    "gbt": "136483d8ad1db85e2aa35588c2d79d5c06f7e53dda38309d9a0c072953c341af",
    "iforest":
        "7dba99bef91d27754516d5b6ae026441d42cc56aa3680ecfa08cb7329bd53e82",
    "knn": "1342e8b35d20866b244bfe0f50e5ced04bc6c38b9255b221434d01bad709f8fe",
    "lof": "7f725374f90a25f2aac8e4b91fa728b8233357ce612951ecb5d4411f5679ae52",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_MODEL_FILES))
def test_tree_model_files_golden_digest(name, tmp_path):
    det = make_detector(name, OTHER_PARAMS[name], seed=9)
    det.fit(fit_view(det, golden_dataset(30, 400)),
            val=golden_dataset(31, 150))
    path = tmp_path / f"{name}.json"
    save_detector(path, det)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_MODEL_FILES[name]
