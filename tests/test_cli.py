import json

import numpy as np
import pytest

from canids.cli import main
from canids.features import read_features


def run_cli(*argv) -> int:
    return main(list(argv))


@pytest.fixture(scope="module")
def synth_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "traffic.csv"
    code = run_cli(
        "synth", "--profile", "default", "--horizon", "20",
        "--attack", "flooding:target=0x4F1,mult=10,window=5-10",
        "--attack", "fuzzing:rate=60,window=12-17",
        "--seed", "3", "--out", str(path),
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def feature_csvs(synth_csv, tmp_path_factory):
    root = tmp_path_factory.mktemp("features")
    full = root / "full.csv"
    assert run_cli("extract", "--in", str(synth_csv), "--out", str(full)) == 0
    m = read_features(full)
    rng = np.random.default_rng(0)
    perm = rng.permutation(m.n_rows)
    cut = int(0.7 * m.n_rows)
    cut_val = int(0.85 * m.n_rows)

    from canids.features import FeatureMatrix, write_features
    def save(name, rows):
        part = FeatureMatrix(m.values[rows], m.labels[rows], m.column_ids)
        path = root / name
        write_features(path, part)
        return path

    return {
        "train": save("train.csv", perm[:cut]),
        "val": save("val.csv", perm[cut:cut_val]),
        "test": save("test.csv", perm[cut_val:]),
    }


def test_parse_reports_counts(synth_csv, capsys):
    assert run_cli("parse", "--in", str(synth_csv), "--stats") == 0
    out = capsys.readouterr().out
    assert "parsed records" in out
    assert "removed 0" in out


def test_parse_missing_file_exit_2():
    assert run_cli("parse", "--in", "/nonexistent.csv") == 2


def test_usage_error_exit_1():
    assert run_cli("parse") == 1
    assert run_cli("definitely-not-a-command") == 1


def test_extract_subset_flag(synth_csv, tmp_path):
    out = tmp_path / "last3.csv"
    assert run_cli("extract", "--in", str(synth_csv), "--out", str(out),
                   "--subset", "last3") == 0
    m = read_features(out)
    assert m.column_ids == (64, 65, 66)


def test_train_eval_cycle(feature_csvs, tmp_path, capsys):
    model_path = tmp_path / "dt.json"
    code = run_cli("train", "--model", "dt", "--in", str(feature_csvs["train"]),
                   "--out", str(model_path), "--seed", "1",
                   "--params", "max_depth=8")
    assert code == 0
    assert model_path.exists()

    out_csv = tmp_path / "row.csv"
    code = run_cli("eval", "--model-file", str(model_path),
                   "--test", str(feature_csvs["test"]),
                   "--out", str(out_csv))
    assert code == 0
    text = capsys.readouterr().out
    assert "model" in text and "dt" in text
    header, row = out_csv.read_text().splitlines()[:2]
    assert header == "model,accuracy,precision,recall,f1,roc_auc"
    assert row.startswith("dt,")
    accuracy = float(row.split(",")[1])
    assert accuracy > 0.9


def test_train_dae_normal_only_with_val(feature_csvs, tmp_path):
    model_path = tmp_path / "dae.json"
    code = run_cli(
        "train", "--model", "dae", "--normal-only",
        "--in", str(feature_csvs["train"]), "--val", str(feature_csvs["val"]),
        "--out", str(model_path), "--seed", "2",
        "--params", "epochs=4,bottleneck=8",
    )
    assert code == 0
    doc = json.loads(model_path.read_text())
    assert doc["kind"] == "dae"
    assert "threshold" in doc["payload"]["state"]


def test_train_dae_without_normal_only(feature_csvs, tmp_path):
    # dae always fits on the normal rows of a labeled training CSV
    code = run_cli(
        "train", "--model", "dae", "--in", str(feature_csvs["train"]),
        "--out", str(tmp_path / "dae.json"), "--params", "epochs=2",
    )
    assert code == 0


def test_train_grid_search(feature_csvs, tmp_path, capsys):
    model_path = tmp_path / "dt_grid.json"
    code = run_cli("train", "--model", "dt", "--in", str(feature_csvs["train"]),
                   "--val", str(feature_csvs["val"]), "--out", str(model_path),
                   "--grid", "default")
    assert code == 0
    assert "grid best for dt" in capsys.readouterr().out


def test_compare_writes_reports_and_is_deterministic(tmp_path):
    config = {
        "models": ["dt", "iforest"],
        "data": {"kind": "synth", "attacks": ["flooding"]},
        "seed": 5,
        "params": {"dt": {"max_depth": 6}, "iforest": {"n_trees": 30}},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))

    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert run_cli("compare", "--config", str(cfg_path), "--out", str(out1)) == 0
    assert run_cli("compare", "--config", str(cfg_path), "--out", str(out2),
                   "--threads", "2") == 0
    csv1 = (out1 / "comparison.csv").read_bytes()
    csv2 = (out2 / "comparison.csv").read_bytes()
    assert csv1 == csv2
    assert (out1 / "comparison.json").exists()
    assert (out1 / "comparison.txt").exists()


def test_report_rerender(tmp_path, capsys):
    config = {
        "models": ["dt"],
        "data": {"kind": "synth", "attacks": ["flooding"]},
        "seed": 5,
        "params": {"dt": {"max_depth": 6}},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "run"
    assert run_cli("compare", "--config", str(cfg_path), "--out", str(out)) == 0
    capsys.readouterr()
    assert run_cli("report", "--in", str(out / "comparison.json"),
                   "--format", "csv") == 0
    text = capsys.readouterr().out
    assert text.splitlines()[0] == "model,accuracy,precision,recall,f1,roc_auc"


def test_eval_unlabeled_features_exit_2(feature_csvs, tmp_path):
    from canids.features import FeatureMatrix, write_features
    m = read_features(feature_csvs["test"])
    unlabeled = tmp_path / "unlabeled.csv"
    write_features(unlabeled, FeatureMatrix(m.values, None, m.column_ids))
    model_path = tmp_path / "dt.json"
    assert run_cli("train", "--model", "dt", "--in", str(feature_csvs["train"]),
                   "--out", str(model_path)) == 0
    assert run_cli("eval", "--model-file", str(model_path),
                   "--test", str(unlabeled)) == 2


def test_bad_config_exit_2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{broken")
    assert run_cli("compare", "--config", str(cfg)) == 2
