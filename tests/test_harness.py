import json
from collections import Counter

import numpy as np
import pytest

from canids.detectors import (
    ALL_MODELS,
    Detector,
    make_detector,
    register_detector,
)
from canids.errors import (
    ConfigError,
    EmptyGrid,
    EmptySplit,
    IoError,
    ReportInconsistent,
)
from canids.features import FeatureMatrix
from canids.harness import (
    DEFAULT_PARAMS,
    DataSpec,
    EvalReport,
    EvalRow,
    ExperimentConfig,
    carve_validation,
    emit_report,
    expand_grid,
    grid_search,
    load_experiment_config,
    prepare_features,
    read_report_csv,
    read_report_json,
    run_ablation,
    run_comparison,
    split_fraction,
)
from canids.metrics import ConfusionCounts


def toy_matrix(n=200, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, 4))
    labels = (values[:, 2] > 1.0).astype(np.int8)
    return FeatureMatrix(values, labels, tuple(range(4)),
                         row_index=np.arange(n))


# --- splits ---------------------------------------------------------------

def test_split_fraction_sizes_and_disjointness():
    m = toy_matrix(203)
    train, val, test = split_fraction(m, (0.8, 0.1, 0.1), seed=5)
    assert train.n_rows == int(0.8 * 203)
    assert val.n_rows == int(0.1 * 203)
    assert test.n_rows == 203 - train.n_rows - val.n_rows
    all_rows = np.concatenate([train.row_index, val.row_index, test.row_index])
    assert len(set(all_rows)) == 203


def test_split_fraction_reproducible():
    m = toy_matrix(100)
    a = split_fraction(m, seed=9)
    b = split_fraction(m, seed=9)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.values, pb.values)


def test_split_union_recovers_input_multiset():
    m = toy_matrix(150, seed=2)
    parts = split_fraction(m, (0.6, 0.2, 0.2), seed=1)
    combined = Counter()
    for part in parts:
        combined.update(map(tuple, part.values))
    assert combined == Counter(map(tuple, m.values))


def test_split_fraction_empty_part():
    with pytest.raises(EmptySplit):
        split_fraction(toy_matrix(5), (0.9, 0.05, 0.05), seed=0)


def test_carve_validation_stratified():
    m = toy_matrix(400, seed=3)
    train, val = carve_validation(m, fraction=0.1, seed=0)
    assert train.n_rows + val.n_rows == 400
    # both classes represented in the carve-out
    assert set(np.unique(val.labels)) == {0, 1}
    frac_val = (val.labels == 1).mean()
    frac_all = (m.labels == 1).mean()
    assert abs(frac_val - frac_all) < 0.1


# --- grid search -------------------------------------------------------------

def test_expand_grid_order():
    grid = {"a": [1, 2], "b": [10, 20]}
    assert expand_grid(grid) == [
        {"a": 1, "b": 10}, {"a": 1, "b": 20},
        {"a": 2, "b": 10}, {"a": 2, "b": 20},
    ]
    assert expand_grid({}) == [{}]


def _search_data():
    m = toy_matrix(300, seed=4)
    train, val, _ = split_fraction(m, (0.6, 0.2, 0.2), seed=4)
    return train, val


def test_grid_search_single_point():
    train, val = _search_data()
    best, score, evals = grid_search("dt", {"max_depth": [4]}, train, val)
    assert best == {"max_depth": 4}
    assert len(evals) == 1


def test_grid_search_degenerate_point_loses():
    train, val = _search_data()
    grid = [{"rounds": 0}, {"rounds": 20, "max_depth": 3}]  # rounds=0 invalid
    best, score, evals = grid_search("gbt", grid, train, val)
    assert best == {"rounds": 20, "max_depth": 3}
    assert evals[0][1] == -np.inf


def test_grid_search_matches_exhaustive_oracle():
    from canids.detectors import derive_seed
    from canids.metrics import confusion, f1

    train, val = _search_data()
    grid = {"max_depth": [2, 4, 8], "min_samples_leaf": [1, 5]}
    best, best_score, evals = grid_search("dt", grid, train, val, seed=3)

    oracle_scores = []
    for params in expand_grid(grid):
        det = make_detector("dt", params, seed=derive_seed(3, "dt"))
        det.fit(train, val=val)
        s = f1(confusion(det.predict(val), np.asarray(val.labels)))
        oracle_scores.append((params, -1.0 if s is None else s))
    want = max(oracle_scores, key=lambda t: t[1])
    first_max = next(p for p, s in oracle_scores if s == want[1])
    assert best == first_max
    assert best_score == want[1]
    assert evals == oracle_scores


def test_grid_search_empty():
    train, val = _search_data()
    with pytest.raises(EmptyGrid):
        grid_search("dt", [], train, val)


def test_grid_search_propagates_a_bug_in_a_grid_point():
    class Buggy(Detector):
        name = "buggy"
        supervised = True

        def _fit(self, train, val=None):
            raise TypeError("not a model error")

    register_detector("buggy", Buggy)
    train, val = _search_data()
    with pytest.raises(TypeError, match="not a model error"):
        grid_search("buggy", [{}], train, val)


# --- comparison params ------------------------------------------------------------

# every model's params in the comparison run
COMPARE_PARAMS = {
    "dt": {"max_depth": 12, "min_samples_leaf": 1, "cutoff": 0.5},
    "knn": {"k": 5},
    "rf": {"n_trees": 50, "max_depth": 12, "features_per_split": None,
           "bootstrap_fraction": 1.0, "cutoff": 0.5},
    "gbt": {"rounds": 100, "learning_rate": 0.3, "max_depth": 6, "lam": 1.0,
            "gamma_split": 0.0, "min_child_weight": 1.0, "subsample": 1.0,
            "colsample": 1.0, "base_score": 0.5, "cutoff": 0.5},
    "rc": {"support_fraction": 0.75, "cutoff_level": 0.99},
    "lof": {"k": 20, "threshold": 1.5, "max_fit_samples": 16384},
    "iforest": {"n_trees": 100, "subsample": 256, "threshold": 0.6},
    "dae": {"hidden": [48, 24], "bottleneck": 12, "epochs": 30,
            "batch_size": 256, "learning_rate": 0.001, "optimizer": "adam",
            "threshold_p": None, "threshold_gamma": None},
}


def test_default_params_hold_only_departures_from_detector_defaults():
    assert list(DEFAULT_PARAMS) == list(ALL_MODELS)
    for name, params in DEFAULT_PARAMS.items():
        defaults = make_detector(name).params()
        for key, value in params.items():
            assert value != defaults[key], (name, key)


@pytest.mark.parametrize("name", ALL_MODELS)
def test_comparison_params(name):
    assert make_detector(name, DEFAULT_PARAMS[name]).params() == COMPARE_PARAMS[name]


# --- comparison with stub detectors ----------------------------------------------

class PerfectOracle(Detector):
    """Test stub: reads the ground truth straight off the feature matrix."""

    name = "oracle"
    supervised = True

    def _fit(self, train, val=None):
        pass

    def score(self, X):
        return np.asarray(X.labels, dtype=np.float64)

    def decide(self, scores):
        return (scores >= 0.5).astype(np.int8)


class ConstantNormal(Detector):
    name = "const0"
    supervised = True

    def _fit(self, train, val=None):
        pass

    def score(self, X):
        return np.zeros(X.n_rows)

    def decide(self, scores):
        return np.zeros_like(scores, dtype=np.int8)


class NormalOnlyProbe(Detector):
    """Asserts the normal-only policy never hands it an anomaly row."""

    name = "probe"
    supervised = False
    seen_labels = None

    def _fit(self, train, val=None):
        NormalOnlyProbe.seen_labels = (None if train.labels is None
                                       else np.asarray(train.labels).copy())
        assert train.labels is None or not np.any(train.labels == 1)

    def score(self, X):
        return np.zeros(X.n_rows)

    def decide(self, scores):
        return np.zeros_like(scores, dtype=np.int8)


register_detector("oracle", PerfectOracle)
register_detector("const0", ConstantNormal)
register_detector("probe", NormalOnlyProbe)


def test_comparison_perfect_oracle_and_constant_rows():
    cfg = ExperimentConfig(models=("oracle", "const0"), seed=3,
                           data=DataSpec(kind="synth", attacks=("flooding",)))
    report = run_comparison(cfg)
    row = report.row("oracle")
    assert row.error is None
    assert row.accuracy == row.precision == row.recall == row.f1 == 1.0
    assert row.roc_auc == 1.0

    row = report.row("const0")
    c = row.counts
    assert c.tp == 0 and c.fp == 0
    normal_fraction = c.tn / c.total
    assert row.accuracy == pytest.approx(normal_fraction)
    assert row.recall == 0.0
    assert row.precision is None  # undefined, never silently 0


def test_comparison_policy_filters_anomalies():
    cfg = ExperimentConfig(models=("probe",), seed=4,
                           data=DataSpec(kind="synth", attacks=("fuzzing",)),
                           policy="normal-only")
    report = run_comparison(cfg)
    assert report.row("probe").error is None
    assert NormalOnlyProbe.seen_labels is not None
    assert not np.any(NormalOnlyProbe.seen_labels == 1)


def test_comparison_contaminated_policy_hides_labels():
    cfg = ExperimentConfig(models=("probe",), seed=4,
                           data=DataSpec(kind="synth", attacks=("fuzzing",)),
                           policy="contaminated")
    run_comparison(cfg)
    assert NormalOnlyProbe.seen_labels is None


def test_comparison_failed_model_does_not_abort():
    class Exploding(Detector):
        name = "boom"
        supervised = True

        def _fit(self, train, val=None):
            raise RuntimeError("kaboom")

    register_detector("boom", Exploding)
    cfg = ExperimentConfig(models=("boom", "oracle"), seed=3,
                           data=DataSpec(kind="synth", attacks=("flooding",)))
    report = run_comparison(cfg)
    assert report.row("boom").error is not None
    assert "kaboom" in report.row("boom").error
    assert report.row("oracle").accuracy == 1.0


def test_comparison_deterministic_and_thread_invariant():
    cfg = ExperimentConfig(models=("oracle", "const0"), seed=6,
                           data=DataSpec(kind="synth", attacks=("flooding",)))
    a = emit_report(run_comparison(cfg), "csv")
    b = emit_report(run_comparison(cfg), "csv")
    assert a == b
    cfg_threads = ExperimentConfig(models=("oracle", "const0"), seed=6,
                                   data=DataSpec(kind="synth",
                                                 attacks=("flooding",)),
                                   threads=2)
    c = emit_report(run_comparison(cfg_threads), "csv")
    assert a == c


# --- reports --------------------------------------------------------------------

def sample_report() -> EvalReport:
    counts = ConfusionCounts(tp=80, tn=900, fp=10, fn=10)
    from canids import metrics as mx
    row = EvalRow(
        model="dt", params={"max_depth": 4}, policy=None, counts=counts,
        accuracy=mx.accuracy(counts), precision=mx.precision(counts),
        recall=mx.recall(counts), f1=mx.f1(counts), roc_auc=0.95,
        wall_clock=1.25,
    )
    undef = EvalRow(model="const0",
                    counts=ConfusionCounts(tp=0, tn=990, fp=0, fn=10),
                    accuracy=0.99, precision=None, recall=0.0, f1=None,
                    roc_auc=None)
    return EvalReport(rows=[row, undef], seed=1, meta={"note": "test"})


def test_emit_csv_round_trip():
    report = sample_report()
    text = emit_report(report, "csv")
    parsed = read_report_csv(text)
    assert [r.model for r in parsed.rows] == ["dt", "const0"]
    for orig, back in zip(report.rows, parsed.rows):
        for key in ("accuracy", "precision", "recall", "f1", "roc_auc"):
            assert getattr(orig, key) == getattr(back, key)
    # emitting the parsed report reproduces the bytes
    assert emit_report(parsed, "csv") == text


def test_emit_text_format():
    text = emit_report(sample_report(), "text")
    lines = text.splitlines()
    assert lines[0].split() == ["model", "accuracy", "precision", "recall",
                                "f1", "roc_auc"]
    assert "0.9800" in lines[1]  # 4-decimal rendering
    assert "—" in lines[2]  # undefined metrics as em-dash
    assert any(line.startswith("dt: tp=80") for line in lines)


def test_emit_json_round_trip():
    report = sample_report()
    doc = emit_report(report, "json")
    parsed = read_report_json(doc)
    assert parsed.seed == report.seed
    assert parsed.rows[0].counts == report.rows[0].counts
    assert parsed.rows[0].params == {"max_depth": 4}
    assert parsed.rows[1].precision is None
    # a parsed report re-emits identically
    assert emit_report(parsed, "json") == doc


def test_audit_catches_tampered_metrics():
    report = sample_report()
    report.rows[0].accuracy = 0.5  # inconsistent with stored counts
    with pytest.raises(ReportInconsistent):
        emit_report(report, "csv")


def test_emit_report_unknown_format():
    with pytest.raises(ValueError):
        emit_report(sample_report(), "yaml")


def test_read_report_csv_rejects_garbage():
    with pytest.raises(IoError):
        read_report_csv("not,a,report\n")


# --- ablation -----------------------------------------------------------------

def test_ablation_rows_and_importance():
    cfg = ExperimentConfig(
        models=("gbt",), seed=2,
        data=DataSpec(kind="synth", attacks=("flooding",)),
        params={"gbt": {"rounds": 10, "max_depth": 3}},
    )
    report = run_ablation(cfg)
    assert [r.model for r in report.rows] == [
        "gbt_all67", "gbt_first66", "gbt_last3"]
    assert all(r.error is None for r in report.rows)
    assert report.importance is not None and len(report.importance) == 67
    assert report.meta["subsets"] == ["all67", "first66", "last3"]


# --- config files ----------------------------------------------------------------

def test_load_experiment_config(tmp_path):
    doc = {
        "models": ["dt", "gbt"],
        "data": {"kind": "synth", "attacks": ["flooding"], "horizon": 30.0},
        "policy": "contaminated",
        "seed": 11,
        "params": {"gbt": {"rounds": 50}},
        "threads": 2,
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    cfg = load_experiment_config(path)
    assert cfg.models == ("dt", "gbt")
    assert cfg.data.attacks == ("flooding",)
    assert cfg.data.horizon == 30.0
    assert cfg.policy == "contaminated"
    assert cfg.params["gbt"]["rounds"] == 50
    assert cfg.threads == 2


def test_load_experiment_config_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError):
        load_experiment_config(path)


def test_config_rejects_unknown_policy():
    with pytest.raises(ConfigError):
        ExperimentConfig(policy="mystery")


def test_files_data_spec_requires_paths():
    cfg = ExperimentConfig(data=DataSpec(kind="files"))
    with pytest.raises(ConfigError):
        prepare_features(cfg)
