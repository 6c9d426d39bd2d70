import json
from collections import Counter

import numpy as np
import pytest

from canids import detectors
from canids.detectors import ALL_MODELS, Detector, make_detector
from canids.errors import (
    ConfigError,
    EmptyGrid,
    EmptySplit,
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
    emit_csv,
    emit_json,
    emit_report,
    emit_text,
    expand_grid,
    grid_search,
    load_experiment_config,
    prepare_features,
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


def test_grid_search_propagates_a_bug_in_a_grid_point(monkeypatch):
    class Buggy(Detector):
        name = "buggy"
        supervised = True

        def _fit(self, train, val=None):
            raise TypeError("not a model error")

    monkeypatch.setitem(detectors._REGISTRY, "buggy", Buggy)
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


@pytest.fixture(autouse=True)
def stub_detectors(monkeypatch):
    """The stubs, registered for the length of each test."""
    for cls in (PerfectOracle, ConstantNormal, NormalOnlyProbe):
        monkeypatch.setitem(detectors._REGISTRY, cls.name, cls)


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


def test_comparison_fits_dae_normal_only_under_any_policy():
    cfg = ExperimentConfig(models=("dt", "probe", "dae"), seed=4,
                           data=DataSpec(kind="synth", attacks=("fuzzing",)),
                           params={"dae": {"epochs": 1}},
                           policy="contaminated")
    report = run_comparison(cfg)
    assert [report.row(m).policy for m in cfg.models] == [
        None, "contaminated", "normal-only"]
    assert report.row("dae").error is None


def test_comparison_failed_model_does_not_abort(monkeypatch):
    class Exploding(Detector):
        name = "boom"
        supervised = True

        def _fit(self, train, val=None):
            raise RuntimeError("kaboom")

    monkeypatch.setitem(detectors._REGISTRY, "boom", Exploding)
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


def parse_report_csv(text):
    """The rows of a CSV report, with its metric cells read back."""
    report = EvalReport()
    for line in text.splitlines()[1:]:
        model, *cells = line.split(",")
        vals = [None if c == "—" else float(c) for c in cells]
        report.rows.append(EvalRow(model=model, accuracy=vals[0],
                                   precision=vals[1], recall=vals[2],
                                   f1=vals[3], roc_auc=vals[4]))
    return report


def test_emit_csv_round_trip():
    report = sample_report()
    text = emit_report(report, "csv")
    assert text.splitlines()[0] == "model,accuracy,precision,recall,f1,roc_auc"
    parsed = parse_report_csv(text)
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


def golden_report() -> EvalReport:
    """A normal row, a FAILED row, a row with undefined metrics and an
    importance list."""
    from canids import metrics as mx
    ok = ConfusionCounts(tp=7, tn=11, fp=2, fn=3)
    undef = ConfusionCounts(tp=0, tn=20, fp=0, fn=3)
    rows = [
        EvalRow(model="gbt", params={"rounds": 10, "learning_rate": 0.3},
                counts=ok, accuracy=mx.accuracy(ok),
                precision=mx.precision(ok), recall=mx.recall(ok),
                f1=mx.f1(ok), roc_auc=0.8125, wall_clock=0.5),
        EvalRow(model="lof", params={"k": 100000}, policy="normal-only",
                wall_clock=0.25, error="KTooLarge: k=100000 exceeds 19"),
        EvalRow(model="rc", params={}, policy="contaminated", counts=undef,
                accuracy=mx.accuracy(undef), precision=None,
                recall=mx.recall(undef), f1=None, roc_auc=None,
                wall_clock=1.0),
    ]
    return EvalReport(rows=rows, seed=7,
                      meta={"policy": "normal-only", "sizes": {"train": 3}},
                      importance=[0.5 ** i for i in range(12)][::-1])


GOLDEN_CSV = (
    "model,accuracy,precision,recall,f1,roc_auc\n"
    "gbt,0.782608695652174,0.7777777777777778,0.7,0.7368421052631577,0.8125\n"
    "lof,FAILED,,,,\n"
    "rc,0.8695652173913043,—,0.0,—,—\n"
)

GOLDEN_TEXT = (
    "model       accuracy   precision   recall   f1       roc_auc \n"
    "gbt         0.7826     0.7778      0.7000   0.7368   0.8125  \n"
    "lof         FAILED: KTooLarge: k=100000 exceeds 19\n"
    "rc          0.8696     —           0.0000   —        —       \n"
    "\n"
    "gbt: tp=7 tn=11 fp=2 fn=3\n"
    "rc: tp=0 tn=20 fp=0 fn=3\n"
    "\n"
    "top feature importances (gain):\n"
    "  bit11: 1.0000\n"
    "  bit10: 0.5000\n"
    "  bit09: 0.2500\n"
    "  bit08: 0.1250\n"
    "  bit07: 0.0625\n"
    "  bit06: 0.0312\n"
    "  bit05: 0.0156\n"
    "  bit04: 0.0078\n"
    "  bit03: 0.0039\n"
    "  bit02: 0.0020\n"
)

GOLDEN_JSON = """\
{
  "seed": 7,
  "meta": {
    "policy": "normal-only",
    "sizes": {
      "train": 3
    }
  },
  "importance": [
    0.00048828125,
    0.0009765625,
    0.001953125,
    0.00390625,
    0.0078125,
    0.015625,
    0.03125,
    0.0625,
    0.125,
    0.25,
    0.5,
    1.0
  ],
  "rows": [
    {
      "model": "gbt",
      "params": {
        "rounds": 10,
        "learning_rate": 0.3
      },
      "policy": null,
      "counts": {
        "tp": 7,
        "tn": 11,
        "fp": 2,
        "fn": 3
      },
      "accuracy": 0.782608695652174,
      "precision": 0.7777777777777778,
      "recall": 0.7,
      "f1": 0.7368421052631577,
      "roc_auc": 0.8125,
      "wall_clock": 0.5,
      "error": null
    },
    {
      "model": "lof",
      "params": {
        "k": 100000
      },
      "policy": "normal-only",
      "counts": null,
      "accuracy": null,
      "precision": null,
      "recall": null,
      "f1": null,
      "roc_auc": null,
      "wall_clock": 0.25,
      "error": "KTooLarge: k=100000 exceeds 19"
    },
    {
      "model": "rc",
      "params": {},
      "policy": "contaminated",
      "counts": {
        "tp": 0,
        "tn": 20,
        "fp": 0,
        "fn": 3
      },
      "accuracy": 0.8695652173913043,
      "precision": null,
      "recall": 0.0,
      "f1": null,
      "roc_auc": null,
      "wall_clock": 1.0,
      "error": null
    }
  ]
}
"""


@pytest.mark.parametrize("emit,golden", [
    (emit_csv, GOLDEN_CSV), (emit_text, GOLDEN_TEXT), (emit_json, GOLDEN_JSON),
])
def test_report_formats_are_byte_stable(emit, golden):
    assert emit(golden_report()) == golden
    # the JSON report reads back to a report that emits the same bytes
    assert emit(read_report_json(GOLDEN_JSON)) == golden


@pytest.mark.parametrize("emit", [emit_csv, emit_text, emit_json])
@pytest.mark.parametrize("key", ["accuracy", "precision", "recall", "f1"])
def test_each_emitter_audits_its_rows(emit, key):
    report = golden_report()
    setattr(report.rows[0], key, 0.5)
    with pytest.raises(ReportInconsistent, match=f"gbt.{key}"):
        emit(report)


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


def test_config_file_keys_are_the_dataclass_fields(tmp_path):
    doc = {"models": ["dt"], "fractions": [0.6, 0.2, 0.2], "seed": 4,
           "data": {"kind": "files", "attacks": ["timing"], "horizon": 2,
                    "profile": "p.txt", "train": "a.csv", "test": "b.csv"},
           "grids": {"dt": {"max_depth": [2]}}, "subset": "last3"}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    assert load_experiment_config(path) == ExperimentConfig(
        models=("dt",), fractions=(0.6, 0.2, 0.2), seed=4,
        data=DataSpec(kind="files", attacks=("timing",), horizon=2.0,
                      profile_path="p.txt", train_path="a.csv",
                      test_path="b.csv"),
        grids={"dt": {"max_depth": [2]}}, subset="last3")
    # configs built in Python get the same casts
    assert ExperimentConfig(models=["dt"], seed=4.0).models == ("dt",)
    assert DataSpec(attacks=["timing"], horizon=2).horizon == 2.0


@pytest.mark.parametrize("key, value", [
    ("seed", 3.7), ("threads", 2.5), ("seed", True), ("threads", True),
    ("seed", "3"), ("threads", 0), ("threads", -2),
], ids=["seed-3.7", "threads-2.5", "seed-true", "threads-true", "seed-str",
        "threads-0", "threads-negative"])
def test_config_refuses_seed_or_threads_it_would_truncate(tmp_path, key,
                                                           value):
    with pytest.raises(ConfigError, match=key):
        ExperimentConfig(models=("dt",), **{key: value})
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"models": ["dt"], key: value}))
    with pytest.raises(ConfigError, match=key):
        load_experiment_config(path)


def test_config_takes_whole_seed_and_threads_as_ints():
    cfg = ExperimentConfig(models=("dt",), seed=np.int64(7), threads=2.0)
    assert (cfg.seed, cfg.threads) == (7, 2)
    assert type(cfg.seed) is int and type(cfg.threads) is int


def test_grid_points_are_laid_over_the_run_params(monkeypatch):
    import canids.harness as harness

    made = []

    def spy(name, params=None, seed=0):
        det = make_detector(name, params, seed)
        made.append(det)
        return det

    monkeypatch.setattr(harness, "make_detector", spy)
    cfg = ExperimentConfig(models=("gbt",), seed=2,
                           data=DataSpec(attacks=("flooding",), horizon=25.0),
                           params={"gbt": {"rounds": 5}},
                           grids={"gbt": {"max_depth": [2, 3]}})
    report = run_comparison(cfg)
    assert report.row("gbt").error is None
    assert report.row("gbt").params["rounds"] == 5
    assert len(made) >= 3  # two grid points and the refit winner
    assert all(det.rounds == 5 for det in made)


@pytest.mark.parametrize("name, grid, key", [
    ("dt", {"max_dept": [3, 4]}, "max_dept"),
    ("rf", {"n_tree": [5], "max_depth": [4]}, "n_tree"),
    ("gbt", {"rounds": [5], "learning_rte": [0.1]}, "learning_rte"),
    ("knn", {"K": [3]}, "K"),
    ("iforest", [{"subsample": 64}, {"sub_sample": 32}], "sub_sample"),
], ids=["dt-max_dept", "rf-n_tree", "gbt-learning_rte", "knn-K",
        "iforest-point-list"])
def test_config_refuses_unknown_grid_param(tmp_path, name, grid, key):
    match = f"unknown {name} grid param {key!r}"
    with pytest.raises(ConfigError, match=match):
        ExperimentConfig(models=(name,), grids={name: grid})
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"models": [name], "grids": {name: grid}}))
    with pytest.raises(ConfigError, match=match):
        load_experiment_config(path)


@pytest.mark.parametrize("values", [4, "ab", []],
                         ids=["number", "string", "empty-list"])
def test_config_refuses_a_grid_param_that_is_not_a_list_of_values(
        tmp_path, values):
    match = "dt grid param 'max_depth' needs a non-empty list of values"
    with pytest.raises(ConfigError, match=match):
        ExperimentConfig(models=("dt",), grids={"dt": {"max_depth": values}})
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"models": ["dt"],
                                "grids": {"dt": {"max_depth": values}}}))
    with pytest.raises(ConfigError, match=match):
        load_experiment_config(path)


@pytest.mark.parametrize("grid", [[], [1], ["ab"], [{"max_depth": 3}, 4],
                                  "ab", 5],
                         ids=["empty-list", "list-of-number",
                              "list-of-string", "list-with-a-number",
                              "string", "number"])
def test_config_refuses_a_grid_that_is_not_a_list_of_points(tmp_path, grid):
    match = "dt grid needs an object of param values or a non-empty list"
    with pytest.raises(ConfigError, match=match):
        ExperimentConfig(models=("dt",), grids={"dt": grid})
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"models": ["dt"], "grids": {"dt": grid}}))
    with pytest.raises(ConfigError, match=match):
        load_experiment_config(path)


def test_config_keeps_grid_values_that_fail_at_fit():
    # only names are checked at load; a bad value loses its grid point
    grid = {"rounds": [0, 20], "max_depth": [3]}
    cfg = ExperimentConfig(models=("gbt",), grids={"gbt": grid})
    train, val = _search_data()
    best, _, evals = grid_search("gbt", cfg.grids["gbt"], train, val)
    assert best == {"rounds": 20, "max_depth": 3}
    assert evals[0][1] == -np.inf


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
