import json

import numpy as np
import pytest

from canids.detectors import (
    ALL_MODELS,
    SEMI_SUPERVISED_MODELS,
    SUPERVISED_MODELS,
    derive_seed,
    load_detector,
    make_detector,
    save_detector,
)
from canids.errors import IoError, MissingLabels, UnfitModel, WrongWidth
from canids.features import FeatureMatrix


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
    assert np.array_equal(det.score(test), restored.score(test))
    assert np.array_equal(det.predict(test), restored.predict(test))


def test_derive_seed_stable_and_distinct():
    assert derive_seed(42, "gbt") == derive_seed(42, "gbt")
    assert derive_seed(42, "gbt") != derive_seed(42, "dt")
    assert derive_seed(42, "gbt") != derive_seed(43, "gbt")


def test_make_detector_unknown_name():
    with pytest.raises(KeyError):
        make_detector("svm")


def test_model_groups():
    assert set(SUPERVISED_MODELS) | set(SEMI_SUPERVISED_MODELS) == set(ALL_MODELS)
    assert not set(SUPERVISED_MODELS) & set(SEMI_SUPERVISED_MODELS)


def test_dae_normal_only_enforced():
    train = small_dataset(seed=8)
    det = make_detector("dae", FAST_PARAMS["dae"])
    with pytest.raises(ValueError):
        det.fit(train)  # contains anomaly-labeled rows


def test_dae_threshold_fallback_without_validation():
    train = small_dataset(seed=9)
    rows = np.flatnonzero(train.labels == 0)
    normal = FeatureMatrix(train.values[rows], train.labels[rows],
                           train.column_ids)
    det = make_detector("dae", FAST_PARAMS["dae"])
    det.fit(normal)  # no val: falls back to train percentile
    assert det.threshold > 0
    assert det.threshold_config.p == 95.0


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


def test_version_1_model_file_is_refused(tmp_path):
    det = make_detector("dt", FAST_PARAMS["dt"]).fit(small_dataset(seed=16))
    path = tmp_path / "dt.json"
    save_detector(path, det)
    doc = json.loads(path.read_text())
    doc["version"] = 1
    path.write_text(json.dumps(doc))
    with pytest.raises(IoError, match="version 1"):
        load_detector(path)
