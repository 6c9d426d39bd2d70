"""Experiment orchestration: splits, grid search, the model comparison
run, the feature-subset ablation, and report emission.

All randomness in a run derives from one master seed through stable
per-task seeds, so serial and threaded executions emit identical reports.
"""

from __future__ import annotations

import itertools
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import metrics as mx
from . import synth
from .canlog import clean, load_log
from .detectors import (
    ALL_MODELS,
    Detector,
    derive_seed,
    make_detector,
)
from .errors import (
    CanidsError,
    ConfigError,
    DegenerateLabels,
    EmptyGrid,
    EmptySplit,
    IoError,
    ReportInconsistent,
)
from .features import FeatureMatrix, extract, select_subset
from .metrics import ConfusionCounts, ScoredLabels, confusion, roc_auc

# Per-model hyperparameter grids for grid search (exhaustive).
DEFAULT_GRIDS: dict[str, dict[str, list]] = {
    "dt": {"max_depth": [4, 8, 12, 16]},
    "knn": {"k": [1, 3, 5, 9]},
    "rf": {"n_trees": [50, 100], "max_depth": [8, 12]},
    "gbt": {"rounds": [100, 200], "max_depth": [4, 6],
            "learning_rate": [0.1, 0.3]},
    "lof": {"k": [10, 20, 35]},
    "iforest": {"subsample": [128, 256]},
    "rc": {"support_fraction": [0.75, 0.9, 1.0]},
    "dae": {},  # threshold grid is internal to the detector
}

# Where the comparison run departs from the detector defaults, sized so the
# desk-scale benchmark finishes in seconds per model; every model has a key.
DEFAULT_PARAMS: dict[str, dict] = {**{name: {} for name in ALL_MODELS},
                                   "gbt": {"rounds": 100}}


# --- splits -----------------------------------------------------------------

def _take(m: FeatureMatrix, rows: np.ndarray) -> FeatureMatrix:
    return FeatureMatrix(
        m.values[rows],
        None if m.labels is None else m.labels[rows],
        m.column_ids,
        None if m.row_index is None else m.row_index[rows],
    )


def split_fraction(
    m: FeatureMatrix,
    fractions: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> tuple[FeatureMatrix, FeatureMatrix, FeatureMatrix]:
    """Disjoint shuffled (train, val, test) with sizes floor(f*N); the test
    part absorbs the rounding remainder."""
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError("split fractions must sum to 1")
    n = m.n_rows
    n_train = int(fractions[0] * n)
    n_val = int(fractions[1] * n)
    if n_train == 0 or n_val == 0 or n - n_train - n_val == 0:
        raise EmptySplit(f"fractions {fractions} leave an empty part for n={n}")
    perm = np.random.default_rng(np.random.SeedSequence(seed)).permutation(n)
    return (
        _take(m, perm[:n_train]),
        _take(m, perm[n_train:n_train + n_val]),
        _take(m, perm[n_train + n_val:]),
    )


def carve_validation(
    train: FeatureMatrix, fraction: float = 0.1, seed: int = 0
) -> tuple[FeatureMatrix, FeatureMatrix]:
    """Stratified-by-label validation carve-out, deterministic by seed."""
    n = train.n_rows
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if train.labels is None:
        perm = rng.permutation(n)
        n_val = max(1, int(fraction * n))
        val_rows = perm[:n_val]
    else:
        labels = np.asarray(train.labels)
        val_parts = []
        for cls in np.unique(labels):
            rows = np.flatnonzero(labels == cls)
            k = max(1, int(fraction * rows.size))
            val_parts.append(rng.permutation(rows)[:k])
        val_rows = np.sort(np.concatenate(val_parts))
    mask = np.zeros(n, dtype=bool)
    mask[val_rows] = True
    if mask.all() or not mask.any():
        raise EmptySplit("validation carve-out left a part empty")
    return _take(train, np.flatnonzero(~mask)), _take(train, np.flatnonzero(mask))


def split_file_given(
    train_m: FeatureMatrix,
    test_m: FeatureMatrix,
    val_fraction: float = 0.1,
    seed: int = 0,
) -> tuple[FeatureMatrix, FeatureMatrix, FeatureMatrix]:
    """File-given train/test; validation is carved from train.

    The test matrix's row_index is cleared: it indexes a different source
    file, so it must not be compared against train row ids.
    """
    train2, val = carve_validation(train_m, val_fraction, seed)
    test = FeatureMatrix(test_m.values, test_m.labels, test_m.column_ids, None)
    return train2, val, test


# --- grid search --------------------------------------------------------------

def expand_grid(grid: dict[str, list]) -> list[dict]:
    """Cartesian product in key insertion order; {} yields [{}]."""
    if not grid:
        return [{}]
    keys = list(grid)
    return [dict(zip(keys, combo))
            for combo in itertools.product(*(grid[k] for k in keys))]


def grid_search(
    model_name: str,
    grid: dict[str, list] | list[dict],
    train: FeatureMatrix,
    val: FeatureMatrix,
    policy: str = "normal-only",
    seed: int = 0,
) -> tuple[dict, float, list[tuple[dict, float]]]:
    """Exhaustive search: fit each grid point on train, score F1 on val.

    Returns (best_params, best_f1, all evaluations); ties keep the earliest
    grid point. Undefined F1 counts as -1, and a point whose make, fit or
    predict raises a CanidsError scores -inf; any other exception is a bug
    and propagates.
    """
    points = expand_grid(grid) if isinstance(grid, dict) else list(grid)
    if not points:
        raise EmptyGrid(f"empty grid for {model_name}")
    evaluations = []
    best: tuple[dict, float] | None = None
    for params in points:
        try:
            det = make_detector(model_name, params,
                                seed=derive_seed(seed, model_name))
            fit_m = _fit_matrix(det, train, policy)
            det.fit(fit_m, val=val)
            score = mx.f1(confusion(det.predict(val), np.asarray(val.labels)))
            score = -1.0 if score is None else score
        except CanidsError:
            # a degenerate grid point loses; it must not abort the search
            score = -np.inf
        evaluations.append((params, score))
        if best is None or score > best[1]:
            best = (params, score)
    return best[0], best[1], evaluations


# --- comparison / ablation ------------------------------------------------------

@dataclass
class DataSpec:
    """Where the experiment's records come from: synthetic benchmark or
    challenge-CSV files."""

    kind: str = "synth"  # "synth" | "files"
    attacks: tuple[str, ...] = synth.DEFAULT_ATTACKS
    horizon: float = synth.DEFAULT_HORIZON
    profile_path: str | None = None
    train_path: str | None = None
    test_path: str | None = None


@dataclass
class ExperimentConfig:
    models: tuple[str, ...] = ALL_MODELS
    data: DataSpec = field(default_factory=DataSpec)
    fractions: tuple[float, float, float] = (0.8, 0.1, 0.1)
    policy: str = "normal-only"  # semi-supervised fit policy
    seed: int = 0
    params: dict[str, dict] = field(default_factory=dict)
    grids: dict[str, dict] = field(default_factory=dict)
    threads: int = 1
    subset: str = "all67"

    def __post_init__(self):
        if self.policy not in ("normal-only", "contaminated"):
            raise ConfigError(f"unknown policy {self.policy!r}")


@dataclass
class EvalRow:
    model: str
    params: dict = field(default_factory=dict)
    policy: str | None = None
    counts: ConfusionCounts | None = None
    accuracy: float | None = None
    precision: float | None = None
    recall: float | None = None
    f1: float | None = None
    roc_auc: float | None = None
    wall_clock: float = 0.0
    error: str | None = None
    scored: ScoredLabels | None = None  # transient; not serialized


@dataclass
class EvalReport:
    rows: list[EvalRow] = field(default_factory=list)
    seed: int = 0
    meta: dict = field(default_factory=dict)
    importance: list[float] | None = None

    def row(self, model: str) -> EvalRow:
        for r in self.rows:
            if r.model == model:
                return r
        raise KeyError(model)


def prepare_features(cfg: ExperimentConfig) -> tuple[FeatureMatrix, FeatureMatrix, FeatureMatrix]:
    """Build (train, val, test) feature matrices per the config's data spec."""
    d = cfg.data
    if d.kind == "synth":
        profile = synth.load_profile(d.profile_path) if d.profile_path else None
        batch = synth.benchmark_batch(cfg.seed, d.attacks, d.horizon, profile)
        cleaned, _ = clean(batch)
        m = extract(cleaned)
        return split_fraction(m, cfg.fractions, cfg.seed)
    if d.kind == "files":
        if not d.train_path or not d.test_path:
            raise ConfigError("files data spec needs train_path and test_path")
        train_b, _ = clean(load_log(d.train_path))
        test_b, _ = clean(load_log(d.test_path))
        return split_file_given(extract(train_b), extract(test_b),
                                seed=cfg.seed)
    raise ConfigError(f"unknown data kind {d.kind!r}")


def _fit_matrix(det: Detector, train: FeatureMatrix, policy: str) -> FeatureMatrix:
    """Training view a detector receives under the run's fitting policy."""
    if det.supervised:
        return train
    if det.name == "dae" or policy == "normal-only":
        if train.labels is None:
            raise ConfigError("normal-only policy needs labeled training data")
        return _take(train, np.flatnonzero(np.asarray(train.labels) == 0))
    # contaminated: all rows, labels hidden
    return FeatureMatrix(train.values, None, train.column_ids, train.row_index)


def evaluate(det: Detector, test: FeatureMatrix) -> EvalRow:
    """Row of a fitted detector on a labeled test matrix: scores, decisions,
    confusion counts, the metrics they give, and ROC AUC (None when the
    test labels hold one class)."""
    scores = np.asarray(det.score(test), dtype=np.float64)
    truth = np.asarray(test.labels)
    counts = confusion(det.decide(scores), truth)
    scored = ScoredLabels(scores, truth)
    try:
        auc = roc_auc(scored)
    except DegenerateLabels:
        auc = None
    return EvalRow(
        model=det.name, params=det.params(), counts=counts,
        accuracy=mx.accuracy(counts), precision=mx.precision(counts),
        recall=mx.recall(counts), f1=mx.f1(counts), roc_auc=auc,
        scored=scored,
    )


def _run_model(
    name: str,
    cfg: ExperimentConfig,
    train: FeatureMatrix,
    val: FeatureMatrix,
    test: FeatureMatrix,
) -> tuple[EvalRow, Detector | None]:
    params = {**DEFAULT_PARAMS.get(name, {}), **cfg.params.get(name, {})}
    policy = None
    started = time.perf_counter()
    try:
        if name in cfg.grids:
            best, _, _ = grid_search(name, cfg.grids[name], train, val,
                                     cfg.policy, cfg.seed)
            params = {**params, **best}
        det = make_detector(name, params, seed=derive_seed(cfg.seed, name))
        if not det.supervised:
            policy = "normal-only" if det.name == "dae" else cfg.policy
        det.fit(_fit_matrix(det, train, cfg.policy), val=val)
        row = evaluate(det, test)
        row.policy = policy
        row.wall_clock = time.perf_counter() - started
        return row, det
    except Exception as exc:  # a failed model must not abort the run
        row = EvalRow(model=name, params=params, policy=policy,
                      wall_clock=time.perf_counter() - started,
                      error=f"{type(exc).__name__}: {exc}")
        return row, None


def run_comparison(cfg: ExperimentConfig) -> EvalReport:
    """Fit every configured model and evaluate all on the shared test set.

    Supervised models see the labeled train split; semi-supervised models
    are fitted per the config policy (dae always normal-only). Model
    failures are recorded in their row and the run continues.
    """
    train, val, test = prepare_features(cfg)
    if cfg.subset != "all67":
        train, val, test = (select_subset(m, cfg.subset)
                            for m in (train, val, test))
    _assert_disjoint(train, test)
    report = EvalReport(seed=cfg.seed, meta={
        "policy": cfg.policy,
        "data": vars(cfg.data).copy(),
        "subset": cfg.subset,
        "sizes": {"train": train.n_rows, "val": val.n_rows, "test": test.n_rows},
    })
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            futures = [pool.submit(_run_model, name, cfg, train, val, test)
                       for name in cfg.models]
            report.rows = [f.result()[0] for f in futures]
    else:
        report.rows = [_run_model(name, cfg, train, val, test)[0]
                       for name in cfg.models]
    return report


def _assert_disjoint(train: FeatureMatrix, test: FeatureMatrix) -> None:
    if train.row_index is None or test.row_index is None:
        return
    overlap = np.intersect1d(train.row_index, test.row_index)
    if overlap.size:
        raise ReportInconsistent("train and test share source rows")


ABLATION_SUBSETS = ("all67", "first66", "last3")


def run_ablation(cfg: ExperimentConfig) -> EvalReport:
    """Train the boosted-tree model on each feature subset and report the
    comparison rows plus the full-width gain-importance ranking."""
    train, val, test = prepare_features(cfg)
    _assert_disjoint(train, test)
    gbt_cfg = replace(cfg, models=("gbt",))
    report = EvalReport(seed=cfg.seed, meta={
        "policy": cfg.policy, "data": vars(cfg.data).copy(),
        "subsets": list(ABLATION_SUBSETS),
        "sizes": {"train": train.n_rows, "val": val.n_rows, "test": test.n_rows},
    })
    for subset in ABLATION_SUBSETS:
        parts = [select_subset(m, subset) for m in (train, val, test)]
        row, det = _run_model("gbt", gbt_cfg, *parts)
        row.model = f"gbt_{subset}"
        report.rows.append(row)
        if subset == "all67" and det is not None:
            report.importance = [float(v) for v in det.importance()]
    return report


# --- report emission --------------------------------------------------------------

REPORT_COLUMNS = ("model", "accuracy", "precision", "recall", "f1", "roc_auc")


def _audit(report: EvalReport) -> None:
    """Every stored metric must recompute exactly from the row's counts and
    scores; any drift is an internal bug surfaced as ReportInconsistent."""
    for row in report.rows:
        if row.error is not None or row.counts is None:
            continue
        expected = {
            "accuracy": mx.accuracy(row.counts),
            "precision": mx.precision(row.counts),
            "recall": mx.recall(row.counts),
            "f1": mx.f1(row.counts),
        }
        for key, want in expected.items():
            if getattr(row, key) != want:
                raise ReportInconsistent(
                    f"{row.model}.{key} stored {getattr(row, key)} != {want}"
                )
        if row.scored is not None and row.roc_auc is not None:
            if roc_auc(row.scored) != row.roc_auc:
                raise ReportInconsistent(f"{row.model}.roc_auc does not recompute")


def _float_repr(value: float | None) -> str:
    return "—" if value is None else repr(float(value))


def emit_csv(report: EvalReport) -> str:
    """Metric rows at full float precision so the CSV round-trips exactly;
    undefined metrics render as an em-dash."""
    _audit(report)
    lines = [",".join(REPORT_COLUMNS)]
    for row in report.rows:
        if row.error is not None:
            lines.append(f"{row.model},FAILED,,,,")
            continue
        lines.append(",".join([
            row.model,
            _float_repr(row.accuracy), _float_repr(row.precision),
            _float_repr(row.recall), _float_repr(row.f1),
            _float_repr(row.roc_auc),
        ]))
    return "\n".join(lines) + "\n"


def read_report_csv(text: str) -> EvalReport:
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != ",".join(REPORT_COLUMNS):
        raise IoError("not a canids report CSV")
    report = EvalReport()
    for line in lines[1:]:
        parts = line.split(",")
        if parts[1] == "FAILED":
            report.rows.append(EvalRow(model=parts[0], error="FAILED"))
            continue
        vals = [None if p == "—" else float(p) for p in parts[1:6]]
        report.rows.append(EvalRow(
            model=parts[0], accuracy=vals[0], precision=vals[1],
            recall=vals[2], f1=vals[3], roc_auc=vals[4],
        ))
    return report


def emit_text(report: EvalReport) -> str:
    """Aligned table, 4-decimal metrics, plus per-model confusion counts."""
    _audit(report)
    widths = [10, 9, 10, 7, 7, 8]
    header = ["model", "accuracy", "precision", "recall", "f1", "roc_auc"]
    out = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for row in report.rows:
        if row.error is not None:
            out.append(f"{row.model.ljust(10)}  FAILED: {row.error}")
            continue
        cells = [row.model, mx.format_metric(row.accuracy),
                 mx.format_metric(row.precision), mx.format_metric(row.recall),
                 mx.format_metric(row.f1), mx.format_metric(row.roc_auc)]
        out.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
    out.append("")
    for row in report.rows:
        if row.counts is not None:
            c = row.counts
            out.append(f"{row.model}: tp={c.tp} tn={c.tn} fp={c.fp} fn={c.fn}")
    if report.importance is not None:
        ranked = np.argsort(report.importance)[::-1][:10]
        out.append("")
        out.append("top feature importances (gain):")
        from .features import FEATURE_NAMES
        for i in ranked:
            out.append(f"  {FEATURE_NAMES[i]}: {report.importance[i]:.4f}")
    return "\n".join(out) + "\n"


def emit_json(report: EvalReport) -> str:
    _audit(report)
    doc = {
        "seed": report.seed,
        "meta": report.meta,
        "importance": report.importance,
        "rows": [
            {
                "model": r.model,
                "params": r.params,
                "policy": r.policy,
                "counts": None if r.counts is None else
                {"tp": r.counts.tp, "tn": r.counts.tn,
                 "fp": r.counts.fp, "fn": r.counts.fn},
                "accuracy": r.accuracy, "precision": r.precision,
                "recall": r.recall, "f1": r.f1, "roc_auc": r.roc_auc,
                "wall_clock": r.wall_clock,
                "error": r.error,
            }
            for r in report.rows
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def read_report_json(text: str) -> EvalReport:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise IoError(f"bad report JSON: {exc}") from exc
    report = EvalReport(seed=doc.get("seed", 0), meta=doc.get("meta", {}),
                        importance=doc.get("importance"))
    for r in doc.get("rows", []):
        counts = r.get("counts")
        report.rows.append(EvalRow(
            model=r["model"], params=r.get("params", {}),
            policy=r.get("policy"),
            counts=None if counts is None else ConfusionCounts(**counts),
            accuracy=r.get("accuracy"), precision=r.get("precision"),
            recall=r.get("recall"), f1=r.get("f1"), roc_auc=r.get("roc_auc"),
            wall_clock=r.get("wall_clock", 0.0), error=r.get("error"),
        ))
    return report


def emit_report(report: EvalReport, fmt: str, path: str | Path | None = None) -> str:
    if fmt == "csv":
        text = emit_csv(report)
    elif fmt == "text":
        text = emit_text(report)
    elif fmt == "json":
        text = emit_json(report)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if path is not None:
        try:
            Path(path).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise IoError(f"cannot write report {path}: {exc}") from exc
    return text


# --- config files ------------------------------------------------------------------

def load_experiment_config(path: str | Path) -> ExperimentConfig:
    """JSON config mirroring ExperimentConfig; see README for the schema."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    try:
        data_doc = doc.get("data", {})
        data = DataSpec(
            kind=data_doc.get("kind", "synth"),
            attacks=tuple(data_doc.get("attacks", synth.DEFAULT_ATTACKS)),
            horizon=float(data_doc.get("horizon", synth.DEFAULT_HORIZON)),
            profile_path=data_doc.get("profile"),
            train_path=data_doc.get("train"),
            test_path=data_doc.get("test"),
        )
        return ExperimentConfig(
            models=tuple(doc.get("models", ALL_MODELS)),
            data=data,
            fractions=tuple(doc.get("fractions", (0.8, 0.1, 0.1))),
            policy=doc.get("policy", "normal-only"),
            seed=int(doc.get("seed", 0)),
            params=doc.get("params", {}),
            grids=doc.get("grids", {}),
            threads=int(doc.get("threads", 1)),
            subset=doc.get("subset", "all67"),
        )
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"bad config {path}: {exc}") from exc
