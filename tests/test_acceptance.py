"""Acceptance suite: one test per criterion, each printing a PASS line and
enforcing its runtime budget. Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import canids
from canids import metrics as mx
from canids.autoencoder import _grads, make_autoencoder
from canids.detectors import (
    SEMI_SUPERVISED_MODELS,
    SUPERVISED_MODELS,
    GbtDetector,
    derive_seed,
    make_detector,
)
from canids.harness import (
    DataSpec,
    ExperimentConfig,
    _fit_matrix,
    prepare_features,
    run_ablation,
    run_comparison,
)
from canids.metrics import ConfusionCounts, ScoredLabels, roc_auc
from canids.trees import fit_cart, fit_gbt

from test_metrics import brute_force_auc
from test_trees import exhaustive_best_split


def _report(criterion: int, name: str, elapsed: float, budget: float,
            detail: str = ""):
    line = (f"[acceptance] criterion {criterion} ({name}): PASS "
            f"in {elapsed:.1f}s (budget {budget:.0f}s)")
    if detail:
        line += f" - {detail}"
    print(line)
    assert elapsed < budget, f"criterion {criterion} exceeded {budget}s budget"


def test_criterion_1_metric_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    for _ in range(1000):
        tp, tn, fp, fn = (int(v) for v in rng.integers(0, 500, size=4))
        if tp + tn + fp + fn == 0:
            tp = 1
        c = ConfusionCounts(tp, tn, fp, fn)
        total = tp + tn + fp + fn
        assert mx.accuracy(c) == (tp + tn) / total
        assert mx.precision(c) == (tp / (tp + fp) if tp + fp else None)
        assert mx.recall(c) == (tp / (tp + fn) if tp + fn else None)
        assert mx.tpr(c) == mx.recall(c)
        assert mx.tnr(c) == (tn / (tn + fp) if tn + fp else None)
        p, r = mx.precision(c), mx.recall(c)
        expected_f1 = (2 * p * r / (p + r)
                       if p is not None and r is not None and p + r > 0
                       else None)
        assert mx.f1(c) == expected_f1
    # published (precision, recall) pairs reproduce their printed F1
    assert abs(mx.f1_from_pr(0.6591, 0.8805) - 0.7539) < 1e-4
    assert abs(mx.f1_from_pr(0.9853, 0.9193) - 0.9512) < 1e-4
    _report(1, "metric oracle equivalence", time.perf_counter() - started, 1.0)


def test_criterion_2_auc_rank_vs_pair_counting():
    started = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 201))
        truth = rng.integers(0, 2, size=n)
        if truth.min() == truth.max():
            truth[0] = 1 - truth[0]
        # coarse quantization guarantees ties
        scores = np.round(rng.random(n), int(rng.integers(0, 3)))
        got = roc_auc(ScoredLabels(scores, truth))
        want = brute_force_auc(scores, truth)
        worst = max(worst, abs(got - want))
    assert worst < 1e-12
    _report(2, "AUC pair-counting oracle", time.perf_counter() - started, 5.0,
            f"max diff {worst:.2e}")


def _numeric_gradients(net, X, step=1e-5):
    def loss_at():
        _, recon = net.forward(X)
        return float(np.mean((recon - X) ** 2))

    out = []
    for layer in net.layers:
        gW = np.zeros_like(layer.weights)
        for idx in np.ndindex(layer.weights.shape):
            orig = layer.weights[idx]
            layer.weights[idx] = orig + step
            up = loss_at()
            layer.weights[idx] = orig - step
            down = loss_at()
            layer.weights[idx] = orig
            gW[idx] = (up - down) / (2 * step)
        gb = np.zeros_like(layer.bias)
        for idx in np.ndindex(layer.bias.shape):
            orig = layer.bias[idx]
            layer.bias[idx] = orig + step
            up = loss_at()
            layer.bias[idx] = orig - step
            down = loss_at()
            layer.bias[idx] = orig
            gb[idx] = (up - down) / (2 * step)
        out.append((gW, gb))
    return out


def _min_preactivation(net, X) -> float:
    smallest = np.inf
    cache, _ = net._forward_cached(X)
    for layer, (_, z, _) in zip(net.layers, cache):
        if layer.activation == "relu":
            smallest = min(smallest, float(np.abs(z).min()))
    return smallest


def test_criterion_3_gradient_check():
    started = time.perf_counter()
    activations = ("identity", "relu", "sigmoid", "tanh")
    worst = 0.0
    checked = 0
    for net_idx in range(20):
        activation = activations[net_idx % 4]
        # relu is non-differentiable at 0: draw inputs until every
        # pre-activation sits clear of the kink
        for attempt in range(50):
            net = make_autoencoder(6, hidden=(), bottleneck=3,
                                   hidden_activation=activation,
                                   seed=1000 + net_idx)
            rng = np.random.default_rng(2000 + 100 * net_idx + attempt)
            X = rng.normal(size=(8, 6))
            if activation != "relu" or _min_preactivation(net, X) > 1e-3:
                break
        _, analytic = _grads(net, X)
        numeric = _numeric_gradients(net, X)
        for (gW, gb), (nW, nb) in zip(analytic, numeric):
            for g, n in ((gW, nW), (gb, nb)):
                rel = np.abs(g - n) / np.maximum(np.abs(g) + np.abs(n), 1e-8)
                worst = max(worst, float(rel.max()))
                checked += g.size
        assert worst < 1e-4, f"net {net_idx} ({activation}): rel err {worst}"
    _report(3, "autoencoder gradient check", time.perf_counter() - started,
            30.0, f"{checked} parameters, worst rel err {worst:.2e}")


def test_criterion_4_cart_split_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(2)
    for trial in range(200):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 4))
        if trial % 2:
            X = rng.integers(0, 5, size=(n, d)).astype(np.float64)
        else:
            X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        tree = fit_cart(X, y, max_depth=1)
        best_gain, argmax = exhaustive_best_split(X, y)
        if best_gain <= 0:
            assert tree.is_leaf
            continue
        assert not tree.is_leaf, f"trial {trial}: missed the best split"
        assert (tree.feature, tree.threshold) in argmax
        assert abs(tree.gain - float(best_gain)) < 1e-12
        if len(argmax) == 1:
            assert (tree.feature, tree.threshold) == next(iter(argmax))
    _report(4, "CART exhaustive split oracle", time.perf_counter() - started,
            10.0)


def test_criterion_5_gbt_closed_forms_and_training():
    started = time.perf_counter()
    # balanced labels, single leaf: sum of gradients is zero -> weight 0
    cfg = GbtDetector(rounds=1, max_depth=0, lam=0.0, learning_rate=1.0,
                      base_score=0.5)
    model = fit_gbt(np.zeros((12, 1)), np.array([0, 1] * 6), cfg)
    assert model.trees[0].value == 0.0
    # all-positive labels: w = -(-0.5n)/(0.25n) = 2.0 exactly
    model = fit_gbt(np.zeros((9, 1)), np.ones(9, dtype=int), cfg)
    assert model.trees[0].value == 2.0

    rng = np.random.default_rng(3)
    X = np.concatenate([rng.normal((-2, -2), 0.6, size=(100, 2)),
                        rng.normal((2, 2), 0.6, size=(100, 2))])
    y = np.array([0] * 100 + [1] * 100)
    model = fit_gbt(X, y, GbtDetector(rounds=200, max_depth=3,
                                      learning_rate=0.3, lam=1.0, seed=0))
    trace = np.array(model.loss_trace)
    assert np.all(np.diff(trace) <= 1e-12), "training loss increased"
    accuracy = ((model.predict_proba(X) >= 0.5) == y).mean()
    assert accuracy >= 0.99
    _report(5, "GBT closed forms and training", time.perf_counter() - started,
            30.0, f"final training accuracy {accuracy:.4f}")


def test_criterion_6_benchmark_supervised_vs_semi():
    started = time.perf_counter()
    details = []
    for seed in (11, 23, 47):
        cfg = ExperimentConfig(seed=seed, data=DataSpec(kind="synth"),
                               policy="normal-only", threads=2)
        report = run_comparison(cfg)
        for row in report.rows:
            assert row.error is None, f"{row.model} failed: {row.error}"
        best_sup = max(r.accuracy for r in report.rows
                       if r.model in SUPERVISED_MODELS)
        best_semi = max(r.accuracy for r in report.rows
                        if r.model in SEMI_SUPERVISED_MODELS)
        gbt_acc = report.row("gbt").accuracy
        assert best_sup >= best_semi, (
            f"seed {seed}: best supervised {best_sup:.4f} < "
            f"best semi-supervised {best_semi:.4f}"
        )
        assert gbt_acc >= 0.97, f"seed {seed}: gbt accuracy {gbt_acc:.4f}"
        details.append(f"seed {seed}: sup {best_sup:.4f} >= semi "
                       f"{best_semi:.4f}, gbt {gbt_acc:.4f}")
    _report(6, "benchmark supervised vs semi-supervised",
            time.perf_counter() - started, 300.0, "; ".join(details))


def test_criterion_7_ablation_direction_and_importance():
    started = time.perf_counter()
    cfg = ExperimentConfig(seed=31, data=DataSpec(kind="synth",
                                                  attacks=("timing",)))
    report = run_ablation(cfg)
    for row in report.rows:
        assert row.error is None, f"{row.model} failed: {row.error}"
    auc_all = report.row("gbt_all67").roc_auc
    auc_66 = report.row("gbt_first66").roc_auc
    assert auc_all >= auc_66 + 0.05, (
        f"all67 auc {auc_all:.4f} vs first66 {auc_66:.4f}"
    )
    importance = np.array(report.importance)
    assert int(np.argmax(importance)) == 66, (
        f"top importance at {int(np.argmax(importance))}, expected the "
        f"interval column"
    )
    _report(7, "feature ablation direction", time.perf_counter() - started,
            300.0,
            f"all67 auc {auc_all:.4f}, first66 auc {auc_66:.4f}, "
            f"interval importance {importance[66]:.3f}")


def test_criterion_8_dae_separation():
    started = time.perf_counter()
    cfg = ExperimentConfig(seed=59, data=DataSpec(kind="synth",
                                                  attacks=("flooding",)))
    train, val, test = prepare_features(cfg)
    det = make_detector("dae", {}, seed=derive_seed(cfg.seed, "dae"))
    det.fit(_fit_matrix(det, train, "normal-only"), val=val)
    losses = det.score(test)
    truth = np.asarray(test.labels)
    median_anomaly = float(np.median(losses[truth == 1]))
    p95_normal = float(np.percentile(losses[truth == 0], 95))
    assert median_anomaly > p95_normal, (
        f"median anomaly loss {median_anomaly:.5f} <= "
        f"p95 normal {p95_normal:.5f}"
    )
    auc = roc_auc(ScoredLabels(losses, truth))
    assert auc >= 0.8, f"dae auc {auc:.4f}"
    _report(8, "DAE reconstruction-loss separation",
            time.perf_counter() - started, 300.0,
            f"median anomaly {median_anomaly:.4f} > p95 normal "
            f"{p95_normal:.5f}, auc {auc:.4f}")


def test_criterion_9_cli_determinism(tmp_path):
    started = time.perf_counter()
    config = {
        "models": ["dt", "knn", "rf", "gbt", "rc", "lof", "iforest", "dae"],
        "data": {"kind": "synth",
                 "attacks": ["flooding", "fuzzing", "spoofing"]},
        "seed": 77,
        "params": {
            "gbt": {"rounds": 30, "max_depth": 4},
            "rf": {"n_trees": 20, "max_depth": 8},
            "lof": {"max_fit_samples": 8192},
            "dae": {"epochs": 8},
        },
    }
    cfg_path = tmp_path / "determinism.json"
    cfg_path.write_text(json.dumps(config))
    # the child imports the same canids, installed or not
    src = os.path.dirname(os.path.dirname(canids.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    outputs = []
    for run, threads in (("run1", 1), ("run2", 4)):
        out_dir = tmp_path / run
        proc = subprocess.run(
            [sys.executable, "-m", "canids.cli", "compare",
             "--config", str(cfg_path), "--out", str(out_dir),
             "--threads", str(threads)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((out_dir / "comparison.csv").read_bytes())
    assert outputs[0] == outputs[1], "threaded run changed the CSV report"
    _report(9, "CLI determinism across threads",
            time.perf_counter() - started, 600.0,
            f"{len(outputs[0])} byte report identical")


CH2020_TRAIN = os.environ.get("CANIDS_CH2020_TRAIN")
CH2020_TEST = os.environ.get("CANIDS_CH2020_TEST")


@pytest.mark.skipif(
    not (CH2020_TRAIN and CH2020_TEST and os.path.exists(CH2020_TRAIN)
         and os.path.exists(CH2020_TEST)),
    reason="real challenge dataset not on disk "
           "(set CANIDS_CH2020_TRAIN / CANIDS_CH2020_TEST)",
)
def test_criterion_10_real_dataset_optional():
    started = time.perf_counter()
    cfg = ExperimentConfig(
        models=("gbt",),
        data=DataSpec(kind="files", train_path=CH2020_TRAIN,
                      test_path=CH2020_TEST),
        seed=0,
        params={"gbt": {"rounds": 200, "max_depth": 6}},
    )
    report = run_comparison(cfg)
    row = report.row("gbt")
    assert row.error is None, row.error
    assert row.accuracy >= 0.96, f"accuracy {row.accuracy:.4f}"
    assert row.roc_auc >= 0.93, f"auc {row.roc_auc:.4f}"
    _report(10, "real-dataset GBT (optional)", time.perf_counter() - started,
            3600.0, f"accuracy {row.accuracy:.4f}, auc {row.roc_auc:.4f}")
