"""The benchmark's four workloads.

Each workload has a set-up that writes its inputs into a work directory, a
load step that reads them back in the measuring process (untimed), a timed
run, and output checks. The untimed load is what lets the measuring process
skip the set-up, so its peak RSS is that of the run alone.

compare and ablate-timing time the harness entry points
(run_comparison, run_ablation) when untraced; traced, they replay the same
experiment through canids' public calls, one span per call, and must emit a
byte-identical report CSV. ingest and persist-eval run the same code either
way, with or without spans.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from canids import harness, synth
from canids import metrics as mx
from canids.canlog import clean, load_log, render_line
from canids.detectors import (
    ALL_MODELS,
    derive_seed,
    load_detector,
    make_detector,
    save_detector,
)
from canids.errors import DegenerateLabels
from canids.features import (
    FeatureMatrix,
    extract,
    read_features,
    select_subset,
    write_features,
)

from spans import NULL_TRACER

# compare, ablate-timing and persist-eval stretch every period of the
# default traffic profile by this factor. At full rate one compare run takes
# ~45 s on a 2-core box, more than a run may take when every workload is run
# 22 times within the benchmark's time budget. Attack windows and rates stay
# at their defaults, so attack frames are ~34% of compare's rows, not ~10%.
RATE_DIVISOR = 4
# ablate-timing keeps the default 10-14 s timing-attack window.
ABLATE_HORIZON = 30.0
# ingest uses the default profile at full rate: ~81k frames.
INGEST_HORIZON = 100.0
# Share of ingest log lines followed by a corrupted copy that must be rejected.
PLANTED_SHARE = 0.001

MODULE = {"dt": "trees", "rf": "trees", "gbt": "trees",
          "knn": "neighbors", "lof": "neighbors",
          "rc": "density", "iforest": "density", "dae": "autoencoder"}


@dataclass
class Outcome:
    """What one timed run produced; `keep` holds objects the checks need."""

    ops: int
    errors: list[str] = field(default_factory=list)
    rows: list = field(default_factory=list)
    csv: str | None = None
    output_bytes: int = 0
    counts: dict = field(default_factory=dict)
    keep: dict = field(default_factory=dict)


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _sha256_array(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def mean_quality(rows) -> tuple[float, float]:
    """Mean F1 and mean ROC AUC over report rows; undefined counts as 0."""
    if not rows:
        return 0.0, 0.0
    f1 = sum(r.f1 or 0.0 for r in rows) / len(rows)
    auc = sum(r.roc_auc or 0.0 for r in rows) / len(rows)
    return f1, auc


# --- experiment pieces shared by set-up and replay -----------------------------

def reduced_rate_profile() -> synth.TrafficProfile:
    return synth.TrafficProfile(tuple(
        dataclasses.replace(s, period=s.period * RATE_DIVISOR)
        for s in synth.default_profile().ids))


def write_experiment(work: Path, seed: int, attacks, horizon: float) -> Path:
    """The experiment as a `canids compare --config` file plus its profile."""
    profile = work / "profile.txt"
    synth.save_profile(profile, reduced_rate_profile())
    path = work / "experiment.json"
    path.write_text(json.dumps({
        "seed": seed, "threads": 1,
        "data": {"kind": "synth", "attacks": list(attacks),
                 "horizon": horizon, "profile": str(profile)},
    }), encoding="utf-8")
    return path


def fit_view(det, train: FeatureMatrix) -> FeatureMatrix:
    """Training rows under the harness's normal-only policy: supervised
    models see every row, the others only the normal ones."""
    if det.supervised:
        return train
    rows = np.flatnonzero(np.asarray(train.labels) == 0)
    return FeatureMatrix(
        train.values[rows], train.labels[rows], train.column_ids,
        None if train.row_index is None else train.row_index[rows])


def fit_model(name, seed, train, val, tr=NULL_TRACER, label=None):
    with tr.span("detectors.make_detector"):
        det = make_detector(name, harness.DEFAULT_PARAMS[name],
                            seed=derive_seed(seed, name))
    view = fit_view(det, train)
    with tr.span(f"{MODULE[name]}.{label or name}.fit"):
        det.fit(view, val=val)
    return det


def score_model(det, test: FeatureMatrix, tr=NULL_TRACER, label=None):
    """Score, decide and evaluate as the harness does; returns (row, scores)."""
    label = label or det.name
    with tr.span(f"{MODULE[det.name]}.{label}.score"):
        scores = np.asarray(det.score(test), dtype=np.float64)
    with tr.span("detectors.decide"):
        preds = det.decide(scores)
    with tr.span("metrics.eval"):
        truth = np.asarray(test.labels)
        counts = mx.confusion(preds, truth)
        scored = mx.ScoredLabels(scores, truth)
        try:
            auc = mx.roc_auc(scored)
        except DegenerateLabels:
            auc = None
        row = harness.EvalRow(
            model=label, params=det.params(), counts=counts,
            accuracy=mx.accuracy(counts), precision=mx.precision(counts),
            recall=mx.recall(counts), f1=mx.f1(counts), roc_auc=auc,
            scored=scored)
    return row, scores


def _failed_row(label: str, exc: Exception):
    return harness.EvalRow(model=label, error=f"{type(exc).__name__}: {exc}")


def _tree_nodes(root) -> int:
    n, stack = 0, [root]
    while stack:
        node = stack.pop()
        n += 1
        if node.feature >= 0:
            stack += [node.left, node.right]
    return n


# (quantity, reader) per model; readers look inside fitted models, so a
# reader that no longer matches the model reports -1 instead of failing.
_COUNTERS = {
    "dt": [("nodes", lambda d, q: _tree_nodes(d.tree))],
    "rf": [("nodes", lambda d, q: sum(map(_tree_nodes, d.model.trees)))],
    "gbt": [("nodes", lambda d, q: sum(map(_tree_nodes, d.model.trees))),
            ("loss_steps", lambda d, q: len(d.model.loss_trace))],
    "knn": [("distance_evals", lambda d, q: q * len(d.index.refs))],
    "lof": [("distance_evals", lambda d, q: q * len(d.lof.index.refs))],
    "rc": [("c_steps", lambda d, q: sum(map(len, d.model.det_traces)))],
    "iforest": [("nodes", lambda d, q: sum(t.feature.size for t in d.model.trees))],
    "dae": [("epochs", lambda d, q: len(d.loss_trace))],
}


def model_counts(label: str, det, n_query: int) -> dict[str, int]:
    out = {}
    for quantity, read in _COUNTERS[det.name]:
        try:
            value = int(read(det, n_query))
        except (AttributeError, TypeError):
            value = -1
        out[f"{MODULE[det.name]}.{label}.{quantity}"] = value
    return out


def _replay_features(cfg, tr):
    with tr.span("synth.benchmark_batch"):
        batch = synth.benchmark_batch(cfg.seed, cfg.data.attacks, cfg.data.horizon,
                                      synth.load_profile(cfg.data.profile_path))
    with tr.span("canlog.clean"):
        cleaned, _ = clean(batch)
    with tr.span("features.extract"):
        m = extract(cleaned)
    with tr.span("harness.split"):
        parts = harness.split_fraction(m, cfg.fractions, cfg.seed)
    counts = {"synth.frames": len(batch), "canlog.frames": len(cleaned),
              "features.rows": m.n_rows}
    return parts, counts


def _replay_model(name, label, seed, parts, tr, counts):
    train, val, test = parts
    with tr.span("harness.run_model"):
        try:
            det = fit_model(name, seed, train, val, tr, label)
            row, _ = score_model(det, test, tr, label)
        except Exception as exc:  # as in the harness: the model's row fails
            return _failed_row(label, exc)
    counts.update(model_counts(label, det, test.n_rows))
    return row


# --- workloads -------------------------------------------------------------------

class _Experiment:
    """A harness experiment on the reduced-rate synthetic benchmark."""

    name: str
    ops: int
    stem: str  # report files are <stem>.csv, .json and .txt
    runner: staticmethod  # harness entry point timed when untraced
    attacks: tuple
    horizon: float

    def setup(self, work: Path, seed: int) -> None:
        cfg = harness.load_experiment_config(
            write_experiment(work, seed, self.attacks, self.horizon))
        sizes = [m.n_rows for m in harness.prepare_features(cfg)]
        (work / "expected.json").write_text(json.dumps({"sizes": sizes}))

    def load(self, work: Path) -> dict:
        return {"config": work / "experiment.json",
                "expected": json.loads((work / "expected.json").read_text())}

    def run(self, inputs, work: Path, tr) -> Outcome:
        cfg = harness.load_experiment_config(inputs["config"])
        if tr is NULL_TRACER:
            report = self.runner(cfg)
            sizes = [report.meta["sizes"][k] for k in ("train", "val", "test")]
            counts = {"features.rows": sum(sizes)}
        else:
            parts, counts = _replay_features(cfg, tr)
            sizes = [m.n_rows for m in parts]
            report = harness.EvalReport(
                rows=self.replay_rows(cfg, parts, tr, counts), seed=cfg.seed)
        # the three report files `canids compare --out` writes
        base = work / self.stem
        with tr.span("harness.report"):
            csv = harness.emit_report(report, "csv", f"{base}.csv")
            harness.emit_report(report, "json", f"{base}.json")
            harness.emit_report(report, "text", f"{base}.txt")
        written = sum(Path(f"{base}.{ext}").stat().st_size
                      for ext in ("csv", "json", "txt"))
        rows = report.rows
        return Outcome(ops=len(rows), rows=rows, csv=csv, output_bytes=written,
                       counts=counts,
                       errors=[f"{r.model}: {r.error}" for r in rows if r.error],
                       keep={"sizes": sizes})

    def check(self, out: Outcome, inputs) -> list[tuple[str, bool]]:
        return [("split sizes equal the set-up's",
                 out.keep["sizes"] == inputs["expected"]["sizes"])]

    def quality(self, out: Outcome, inputs) -> tuple[float, float]:
        return mean_quality(out.rows)

    def digests(self, work: Path) -> dict[str, str]:
        return {f"{self.stem}.csv": _sha256_file(work / f"{self.stem}.csv")}


class Compare(_Experiment):
    name, ops, stem = "compare", len(ALL_MODELS), "comparison"
    runner = staticmethod(harness.run_comparison)
    attacks, horizon = synth.DEFAULT_ATTACKS, synth.DEFAULT_HORIZON

    def replay_rows(self, cfg, parts, tr, counts):
        return [_replay_model(name, name, cfg.seed, parts, tr, counts)
                for name in cfg.models]


class AblateTiming(_Experiment):
    name, ops, stem = "ablate-timing", len(harness.ABLATION_SUBSETS), "ablation"
    runner = staticmethod(harness.run_ablation)
    attacks, horizon = ("timing",), ABLATE_HORIZON

    def replay_rows(self, cfg, parts, tr, counts):
        rows = []
        for subset in harness.ABLATION_SUBSETS:
            with tr.span("features.select_subset"):
                sub = [select_subset(m, subset) for m in parts]
            rows.append(_replay_model("gbt", f"gbt_{subset}", cfg.seed, sub,
                                      tr, counts))
        return rows


def _corrupt(line: str, kind: int) -> str:
    """A copy of a valid log line that parse_line must reject."""
    ts, can_id, dlc, data, label = line.split(",")
    if kind == 0:
        return f"{ts},{can_id},{dlc}"  # too few columns
    if kind == 1:
        return f"{ts},{can_id[:-1]}G,{dlc},{data},{label}"  # bad hex
    if kind == 2:
        return f"{ts},{can_id},{(int(dlc) + 1) % 9},{data},{label}"  # dlc mismatch
    return f"nan,{can_id},{dlc},{data},{label}"  # non-finite timestamp


class Ingest:
    name, ops = "ingest", 5

    def setup(self, work: Path, seed: int) -> None:
        batch = synth.benchmark_batch(seed, horizon=INGEST_HORIZON)
        lines = [render_line(r) for r in batch.records]
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        planted = max(1, round(PLANTED_SHARE * len(lines)))
        after = set(rng.choice(len(lines), planted, replace=False).tolist())
        with open(work / "log.csv", "w", encoding="utf-8", newline="\n") as fh:
            fh.write("Timestamp,Arbitration_ID,DLC,Data,Class\n")
            for i, line in enumerate(lines):
                fh.write(line + "\n")
                if i in after:
                    fh.write(_corrupt(line, i % 4) + "\n")
        truth = extract(batch)
        np.save(work / "truth_labels.npy", truth.labels)
        (work / "expected.json").write_text(json.dumps({
            "frames": len(batch), "planted": planted,
            "ids": len({r.arbitration_id for r in batch.records}),
            "values_sha256": _sha256_array(truth.values),
        }))

    def load(self, work: Path) -> dict:
        return {"log": work / "log.csv",
                "truth": np.load(work / "truth_labels.npy"),
                "expected": json.loads((work / "expected.json").read_text())}

    def run(self, inputs, work: Path, tr) -> Outcome:
        path = work / "features.csv"
        with tr.span("canlog.load_log"):
            batch = load_log(inputs["log"])
        with tr.span("canlog.clean"):
            cleaned, stats = clean(batch)
        with tr.span("features.extract"):
            m = extract(cleaned)
        with tr.span("features.write_features"):
            write_features(path, m)
        with tr.span("features.read_features"):
            back = read_features(path)
        size = path.stat().st_size
        return Outcome(
            ops=self.ops, output_bytes=size,
            counts={"canlog.frames": len(batch),
                    "canlog.parse_failures": len(batch.parse_failures),
                    "features.rows": m.n_rows, "features.csv_bytes": size},
            keep={"parsed": len(batch), "stats": stats, "m": m, "back": back})

    def check(self, out: Outcome, inputs) -> list[tuple[str, bool]]:
        exp, k = inputs["expected"], out.keep
        m, back, stats = k["m"], k["back"], k["stats"]
        failures = out.counts["canlog.parse_failures"]
        return [
            ("read_features returns the extracted values bit-exact",
             back.values.dtype == m.values.dtype
             and back.values.shape == m.values.shape
             and back.values.tobytes() == m.values.tobytes()),
            ("read_features returns the extracted labels",
             back.labels is not None and np.array_equal(back.labels, m.labels)),
            ("extracted values equal the generator's",
             _sha256_array(m.values) == exp["values_sha256"]),
            ("kept + removed == parsed + parse failures",
             stats.kept + stats.total_removed == k["parsed"] + failures),
            ("rows == kept - first-per-ID drops",
             m.n_rows == stats.kept - exp["ids"]),
            ("every planted line is a parse failure",
             failures == exp["planted"] and k["parsed"] == exp["frames"]),
        ]

    def quality(self, out: Outcome, inputs) -> tuple[float, float]:
        """F1 and ROC AUC of the ingested labels against the labels the
        generator planted: 1.0 unless ingest loses or flips labels."""
        got, truth = out.keep["back"].labels, inputs["truth"]
        if got is None or len(got) != len(truth):
            return 0.0, 0.0
        f1 = mx.f1(mx.confusion(got, truth)) or 0.0
        auc = mx.roc_auc(mx.ScoredLabels(got.astype(np.float64), truth))
        return f1, auc

    def digests(self, work: Path) -> dict[str, str]:
        return {"features.csv": _sha256_file(work / "features.csv")}


class PersistEval:
    name, ops = "persist-eval", len(ALL_MODELS)

    def setup(self, work: Path, seed: int) -> None:
        cfg = harness.load_experiment_config(write_experiment(
            work, seed, synth.DEFAULT_ATTACKS, synth.DEFAULT_HORIZON))
        train, val, test = harness.prepare_features(cfg)
        dets = [fit_model(name, seed, train, val) for name in ALL_MODELS]
        rows, scores = zip(*(score_model(d, test) for d in dets))
        with open(work / "models.pkl", "wb") as fh:
            pickle.dump(dets, fh)
        write_features(work / "test.csv", test)
        np.savez(work / "scores.npz", **{d.name: s for d, s in zip(dets, scores)})
        (work / "reference.csv").write_text(
            harness.emit_csv(harness.EvalReport(rows=list(rows), seed=seed)),
            encoding="utf-8")

    def load(self, work: Path) -> dict:
        # the pickle was written by this benchmark's own set-up
        with open(work / "models.pkl", "rb") as fh:
            dets = pickle.load(fh)
        with np.load(work / "scores.npz") as z:
            scores = {k: z[k] for k in z.files}
        return {"dets": dets, "test": work / "test.csv", "scores": scores,
                "reference": (work / "reference.csv").read_text(encoding="utf-8")}

    def run(self, inputs, work: Path, tr) -> Outcome:
        with tr.span("features.read_features"):
            test = read_features(inputs["test"])
        rows, scores, counts, total = [], {}, {}, 0
        for det in inputs["dets"]:
            path = work / f"{det.name}.model"
            try:
                with tr.span(f"model_io.{det.name}.save"):
                    save_detector(path, det)
                with tr.span(f"model_io.{det.name}.load"):
                    loaded = load_detector(path)
                row, scores[det.name] = score_model(loaded, test, tr)
            except Exception as exc:  # the model's row fails, the run goes on
                rows.append(_failed_row(det.name, exc))
                continue
            rows.append(row)
            size = path.stat().st_size
            total += size
            counts[f"model_io.{det.name}.file_bytes"] = size
            if tr is not NULL_TRACER:
                counts.update(model_counts(det.name, loaded, test.n_rows))
        with tr.span("harness.report"):
            csv = harness.emit_csv(harness.EvalReport(rows=rows))
        (work / "persist_eval.csv").write_text(csv, encoding="utf-8")
        return Outcome(ops=self.ops, rows=rows, csv=csv, output_bytes=total,
                       counts=counts, keep={"scores": scores},
                       errors=[f"{r.model}: {r.error}" for r in rows if r.error])

    def check(self, out: Outcome, inputs) -> list[tuple[str, bool]]:
        ref = inputs["scores"]
        got = out.keep["scores"]
        return [(f"{name} scores after save/load are bit-identical",
                 name in got and got[name].tobytes() == ref[name].tobytes())
                for name in ref] + [
            ("report rows equal the in-memory models' rows",
             out.csv == inputs["reference"])]

    def quality(self, out: Outcome, inputs) -> tuple[float, float]:
        return mean_quality(out.rows)

    def digests(self, work: Path) -> dict[str, str]:
        return {"persist_eval.csv": _sha256_file(work / "persist_eval.csv")}


WORKLOADS = {w.name: w for w in (Compare(), AblateTiming(), Ingest(), PersistEval())}
