import base64
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import canids
from canids.cli import main
from canids.features import read_features
from canids.model_io import decode_array, encode_array, encode_float

SRC = str(Path(canids.__file__).resolve().parents[1])


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


_ROW = {"model": "dt", "counts": {"tp": 1, "tn": 1, "fp": 0, "fn": 0},
        "accuracy": 1.0, "precision": 1.0, "recall": 1.0, "f1": 1.0}


@pytest.mark.parametrize("doc,message", [
    ([1, 2], "is a JSON object"),
    ({"rows": {"model": "dt"}}, "rows are a list"),
    ({"rows": [["dt"]]}, "not an object with a model"),
    ({"rows": [{"params": {}}]}, "not an object with a model"),
    ({"rows": [{**_ROW, "counts": {**_ROW["counts"], "xx": 1}}]},
     "integers tp, tn, fp, fn"),
    ({"rows": [{**_ROW, "counts": {"tp": 1, "tn": 1, "fp": 0}}]},
     "integers tp, tn, fp, fn"),
    ({"rows": [{**_ROW, "counts": [1, 1, 0, 0]}]}, "integers tp, tn, fp, fn"),
    ({"rows": [{**_ROW, "counts": {**_ROW["counts"], "tp": "1"}}]},
     "integers tp, tn, fp, fn"),
], ids=["not-an-object", "rows-not-a-list", "row-not-an-object",
        "row-without-model", "counts-extra-key", "counts-missing-key",
        "counts-not-an-object", "count-not-an-integer"])
def test_report_malformed_json_exit_2(tmp_path, capsys, doc, message):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    assert run_cli("report", "--in", str(path), "--format", "csv") == 2
    err = capsys.readouterr().err
    assert "canids: data error: " in err and message in err


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


def test_config_fractions_not_summing_to_one_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "models": ["dt"], "fractions": [0.5, 0.1, 0.1],
        "data": {"kind": "synth", "attacks": ["flooding"], "horizon": 25.0}}))
    assert run_cli("compare", "--config", str(cfg)) == 2
    assert "split fractions must sum to 1" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    {"modles": ["dt"]},
    {"models": ["dt"], "data": {"horizn": 1.0}},
    [{"models": ["dt"]}],
    {"models": ["dt"], "data": ["synth"]},
    {"models": ["dt"], "params": {"gtb": {"rounds": 5}}},
    {"models": ["dtt"]},
    {"models": ["dt"], "params": {"dt": {"max_dept": 3}}},
    {"models": ["gbt"], "params": {"gbt": {"rounds": 0}}},
    {"models": ["dt"], "subset": "all66"},
    {"models": ["dt"], "data": {"attacks": ["flodding"]}},
    {"models": ["dt"], "grids": {"dt": {"max_depth": 4}}},
    {"models": ["dt"], "grids": {"dt": {"max_depth": "ab"}}},
    {"models": ["dt"], "grids": {"dt": {"max_depth": []}}},
], ids=["modles", "horizn", "list-document", "list-data", "gtb-params",
        "dtt-models", "max_dept", "rounds-0", "subset-all66",
        "attack-flodding", "grid-number", "grid-string", "grid-empty"])
def test_compare_refuses_config_before_building_data(tmp_path, capsys,
                                                     monkeypatch, doc):
    import canids.harness as harness

    def no_data(cfg):
        raise AssertionError("data built for a refused config")

    monkeypatch.setattr(harness, "prepare_features", no_data)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli("compare", "--config", str(cfg)) == 2
    assert f"data error: bad config {cfg}: " in capsys.readouterr().err


def test_compare_horizon_shorter_than_an_attack_window_exit_2(tmp_path,
                                                             capsys):
    # the default flooding window is [8, 23)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"models": ["dt"], "data": {"horizon": 20}}))
    assert run_cli("compare", "--config", str(cfg)) == 2
    assert ("data error: window [8.0, 23.0) outside horizon 20.0"
            in capsys.readouterr().err)


@pytest.mark.parametrize("flag, value, message", [
    ("--threads", "0", "threads must be at least 1, not 0"),
    ("--threads", "-3", "threads must be at least 1, not -3"),
])
def test_compare_checks_its_overrides(tmp_path, capsys, monkeypatch, flag,
                                      value, message):
    import canids.harness as harness

    def no_data(cfg):
        raise AssertionError("data built for a refused override")

    monkeypatch.setattr(harness, "prepare_features", no_data)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"models": ["dt"]}))
    assert run_cli("compare", "--config", str(cfg), flag, value) == 2
    assert f"data error: {message}" in capsys.readouterr().err


def test_compare_applies_seed_and_threads_overrides(tmp_path, monkeypatch):
    import canids.harness as harness

    seen = []

    def runner(cfg):
        seen.append(cfg)
        return harness.EvalReport(seed=cfg.seed)

    monkeypatch.setattr(harness, "run_comparison", runner)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"models": ["dt"], "seed": 4, "threads": 1,
                               "subset": "last3"}))
    assert run_cli("compare", "--config", str(cfg), "--seed", "9",
                   "--threads", "2") == 0
    assert (seen[0].seed, seen[0].threads, seen[0].subset) == (9, 2, "last3")
    assert seen[0].models == ("dt",)


def test_train_grid_points_lay_over_params(feature_csvs, tmp_path,
                                           monkeypatch):
    import canids.harness as harness
    from canids.detectors import make_detector

    made = []

    def spy(name, params=None, seed=0):
        made.append(make_detector(name, params, seed))
        return made[-1]

    monkeypatch.setattr(harness, "make_detector", spy)
    assert run_cli("train", "--model", "dt", "--in", str(feature_csvs["train"]),
                   "--val", str(feature_csvs["val"]),
                   "--out", str(tmp_path / "dt.json"), "--grid", "default",
                   "--params", "min_samples_leaf=5") == 0
    assert len(made) == 5  # four grid points and the refit winner
    assert all(det.min_samples_leaf == 5 for det in made)


def test_eval_model_file_missing_key_exit_2(feature_csvs, tmp_path, capsys):
    model_path = tmp_path / "dt.json"
    assert run_cli("train", "--model", "dt", "--in", str(feature_csvs["train"]),
                   "--out", str(model_path)) == 0
    doc = json.loads(model_path.read_text())
    doc["payload"] = {"params": {}}
    model_path.write_text(json.dumps(doc))
    assert run_cli("eval", "--model-file", str(model_path),
                   "--test", str(feature_csvs["test"])) == 2
    assert "'seed'" in capsys.readouterr().err


def test_train_unknown_param_exit_2(feature_csvs, tmp_path, capsys):
    code = run_cli("train", "--model", "dt", "--in", str(feature_csvs["train"]),
                   "--out", str(tmp_path / "dt.json"), "--params", "bogus=1")
    assert code == 2
    assert "unknown dt param 'bogus'" in capsys.readouterr().err


def test_eval_model_file_unknown_param_exit_2(feature_csvs, tmp_path, capsys):
    model_path = tmp_path / "dt.json"
    assert run_cli("train", "--model", "dt", "--in", str(feature_csvs["train"]),
                   "--out", str(model_path)) == 0
    doc = json.loads(model_path.read_text())
    doc["payload"]["params"]["bogus"] = 1
    model_path.write_text(json.dumps(doc))
    assert run_cli("eval", "--model-file", str(model_path),
                   "--test", str(feature_csvs["test"])) == 2
    assert "unknown dt param 'bogus'" in capsys.readouterr().err


def test_eval_malformed_feature_csv_exit_2(feature_csvs, tmp_path, capsys):
    model_path = tmp_path / "dt.json"
    assert run_cli("train", "--model", "dt", "--in", str(feature_csvs["train"]),
                   "--out", str(model_path)) == 0
    lines = feature_csvs["test"].read_text().splitlines(keepends=True)
    lines[3] = lines[3].rsplit(",", 1)[0] + ",1.0\n"
    bad = tmp_path / "bad.csv"
    bad.write_text("".join(lines))
    assert run_cli("eval", "--model-file", str(model_path),
                   "--test", str(bad)) == 2
    assert f"{bad}: line 4" in capsys.readouterr().err


@pytest.fixture(scope="module")
def model_files(feature_csvs, tmp_path_factory):
    root = tmp_path_factory.mktemp("models")
    files = {}
    for kind, params in [("dt", "max_depth=4"),
                         ("rf", "n_trees=3,max_depth=4"),
                         ("gbt", "rounds=3,max_depth=3"),
                         ("iforest", "n_trees=5,subsample=32"),
                         ("knn", "k=3"), ("lof", "k=5"), ("dae", "epochs=1"),
                         ("rc", "support_fraction=1.0")]:
        files[kind] = root / f"{kind}.json"
        assert run_cli("train", "--model", kind,
                       "--in", str(feature_csvs["train"]),
                       "--out", str(files[kind]), "--params", params) == 0
    return files


def _trees(doc):
    """The object of a tree model file that holds sizes and trees."""
    state = doc["payload"]["state"]
    return state.get("model", state)


def _edit_nodes(doc, edit):
    """Applies edit(lists, sizes) to the file's tree node arrays, as one list
    per key, and to its sizes."""
    held = _trees(doc)
    arrays = held["trees"]
    lists = {"feature": arrays["feature"]}
    lists.update({k: decode_array(arrays[k]).tolist()
                  for k in ("threshold", "value", "gain")})
    edit(lists, held["sizes"])
    arrays["feature"] = lists["feature"]
    arrays.update({k: encode_array(np.array(lists[k]))
                   for k in ("threshold", "value", "gain")})


def iforest_cyclic(doc):
    # the first tree's last leaf becomes a split with no children in its
    # span; child indices could only have sent them back up the tree
    def edit(lists, sizes):
        lists["feature"][sizes[0] - 1] = 0
    _edit_nodes(doc, edit)


def iforest_ragged(doc):
    _trees(doc)["trees"]["feature"].pop()


def iforest_child_out_of_range(doc):
    # the first tree's last leaf moves into the second tree's span
    sizes = _trees(doc)["sizes"]
    sizes[0] -= 1
    sizes[1] += 1


def iforest_missing_leaf(doc):
    def edit(lists, sizes):
        i = lists["feature"].index(-1)
        for values in lists.values():
            del values[i]
        sizes[0] -= 1
    _edit_nodes(doc, edit)


def iforest_trailing_node(doc):
    def edit(lists, sizes):
        for key, v in (("feature", -1), ("threshold", 0.0), ("value", 1.0),
                       ("gain", 0.0)):
            lists[key].insert(sizes[0], v)
        sizes[0] += 1
    _edit_nodes(doc, edit)


def iforest_zero_size(doc):
    _trees(doc)["sizes"].insert(1, 0)


def iforest_subsample_string(doc):
    doc["payload"]["state"]["model"]["subsample"] = "x"


def dt_feature_99(doc):
    feature = _trees(doc)["trees"]["feature"]
    assert feature[0] >= 0
    feature[0] = 99


def dt_two_trees(doc):
    def edit(lists, sizes):
        for values in lists.values():
            values.extend(values)
        sizes.append(sizes[0])
    _edit_nodes(doc, edit)


def rf_child_out_of_range(doc):
    # the last tree loses its last leaf, the right child of a split
    def edit(lists, sizes):
        for values in lists.values():
            values.pop()
        sizes[-1] -= 1
    _edit_nodes(doc, edit)


def rf_sizes_short(doc):
    _trees(doc)["sizes"][-1] -= 1


def gbt_gain_short(doc):
    arrays = _trees(doc)["trees"]
    arrays["gain"] = encode_array(decode_array(arrays["gain"])[:-1])


def _set_knn_labels(doc, labels):
    doc["payload"]["state"]["labels"] = labels


def knn_labels_short(doc):
    _set_knn_labels(doc, doc["payload"]["state"]["labels"][:-1])


def knn_labels_long(doc):
    _set_knn_labels(doc, doc["payload"]["state"]["labels"] + [0])


def knn_labels_seven(doc):
    _set_knn_labels(doc, [7] * len(doc["payload"]["state"]["labels"]))


def knn_labels_string(doc):
    _set_knn_labels(doc, "a")


def knn_labels_300(doc):
    _set_knn_labels(doc, 300)


def knn_labels_one_true(doc):
    doc["payload"]["state"]["labels"][0] = True


def knn_labels_one_float(doc):
    doc["payload"]["state"]["labels"][-1] = 1.0


def _narrow_refs(doc):
    state = doc["payload"]["state"]
    state["refs"] = encode_array(decode_array(state["refs"])[:, :-1])


def knn_refs_narrow(doc):
    _narrow_refs(doc)


def lof_refs_narrow(doc):
    _narrow_refs(doc)


def lof_short_lrd(doc):
    state = doc["payload"]["state"]
    state["ref_lrd"] = encode_array(decode_array(state["ref_lrd"])[:3])


def _resize_standardizer(doc, part, by):
    s = doc["payload"]["state"]["standardizer"]
    a = decode_array(s[part])
    s[part] = encode_array(np.resize(a, a.size + by))


def knn_mean_short(doc):
    _resize_standardizer(doc, "mean", -1)


def dae_std_long(doc):
    _resize_standardizer(doc, "std", 1)


def knn_refs_planes_short(doc):
    refs = doc["payload"]["state"]["refs"]
    refs["planes"] = base64.b64encode(
        base64.b64decode(refs["planes"])[:-1]).decode("ascii")


def knn_state_list(doc):
    doc["payload"]["state"] = []


def dae_short_bias(doc):
    layer = doc["payload"]["state"]["net"]["encoder"][0]
    layer["bias"] = encode_array(decode_array(layer["bias"])[:-1])


def dae_bogus_activation(doc):
    doc["payload"]["state"]["net"]["decoder"][0]["activation"] = "bogus"


def _net(doc):
    return doc["payload"]["state"]["net"]


def _resize_layer(layer, n_out=None, n_in=None):
    weights = decode_array(layer["weights"])
    n_out, n_in = n_out or weights.shape[0], n_in or weights.shape[1]
    grown = np.zeros((n_out, n_in))
    grown[:min(n_out, weights.shape[0]), :min(n_in, weights.shape[1])] = \
        weights[:n_out, :n_in]
    layer["weights"] = encode_array(grown)
    layer["bias"] = encode_array(np.zeros(n_out))


def dae_first_layer_narrow(doc):
    layer = _net(doc)["encoder"][0]
    _resize_layer(layer, n_in=decode_array(layer["weights"]).shape[1] - 1)


def dae_encoder_empty(doc):
    _net(doc)["encoder"] = []


def dae_encoder_number(doc):
    _net(doc)["encoder"] = 5


def dae_decoder_layer_list(doc):
    _net(doc)["decoder"][0] = [1, 2]


def dae_net_wide(doc):
    net = _net(doc)
    width = doc["payload"]["n_features"] + 1
    _resize_layer(net["encoder"][0], n_in=width)
    _resize_layer(net["decoder"][-1], n_out=width)


def rc_cutoff_number(doc):
    doc["payload"]["state"]["cutoff"] = 5


def dae_threshold_p_number(doc):
    doc["payload"]["state"]["threshold"]["p"] = 95


def dae_threshold_p_zero(doc):
    doc["payload"]["state"]["threshold"]["p"] = encode_float(0.0)


def dae_threshold_p_150(doc):
    doc["payload"]["state"]["threshold"]["p"] = encode_float(150.0)


def dae_threshold_gamma_negative(doc):
    doc["payload"]["state"]["threshold"]["gamma"] = encode_float(-1.0)


def dae_threshold_list(doc):
    doc["payload"]["state"]["threshold"] = [1]


def rc_mean_three_wide(doc):
    doc["payload"]["state"]["mean"] = encode_array(np.zeros(3))


@pytest.mark.parametrize("corrupt", [
    iforest_cyclic, iforest_ragged, iforest_child_out_of_range, dt_feature_99,
    dt_two_trees, rf_child_out_of_range, gbt_gain_short,
    iforest_subsample_string, iforest_missing_leaf, iforest_trailing_node,
    iforest_zero_size, rf_sizes_short,
    knn_labels_short, knn_labels_long, knn_labels_seven, knn_labels_string,
    knn_labels_300, knn_labels_one_true, knn_labels_one_float,
    knn_refs_narrow, lof_refs_narrow, lof_short_lrd,
    dae_short_bias, dae_bogus_activation, knn_mean_short, dae_std_long,
    knn_refs_planes_short, knn_state_list,
    rc_cutoff_number, dae_threshold_p_number, dae_threshold_p_zero,
    dae_threshold_p_150, dae_threshold_gamma_negative, dae_threshold_list,
    rc_mean_three_wide,
    dae_first_layer_narrow, dae_encoder_empty, dae_encoder_number,
    dae_decoder_layer_list, dae_net_wide,
], ids=lambda f: f.__name__)
def test_eval_malformed_model_file_exit_2(model_files, feature_csvs, tmp_path,
                                          corrupt):
    # a subprocess, so that a model file that makes routing loop fails the
    # test by its timeout instead of hanging the suite
    kind = corrupt.__name__.split("_")[0]
    doc = json.loads(model_files[kind].read_text())
    corrupt(doc)
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    pythonpath = [SRC, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}
    proc = subprocess.run(
        [sys.executable, "-m", "canids.cli", "eval", "--model-file", str(path),
         "--test", str(feature_csvs["test"])],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert f"data error: model file {path}: " in proc.stderr


def test_eval_deeply_nested_model_file_exit_2(feature_csvs, tmp_path, capsys):
    # deeper than the JSON parser recurses
    path = tmp_path / "deep.json"
    depth = 100_000
    path.write_text('{"format": "canids-model", "version": 6, "kind": "dt", '
                    '"payload": ' + "[" * depth + "]" * depth + "}")
    assert run_cli("eval", "--model-file", str(path),
                   "--test", str(feature_csvs["test"])) == 2
    err = capsys.readouterr().err
    assert f"data error: model file {path}" in err and "Traceback" not in err


@pytest.mark.parametrize("model,params", [
    ("rf", "n_trees=0"),
    ("gbt", "learning_rate=2"),
    ("rc", "support_fraction=0.2"),
])
def test_train_invalid_param_value_exit_2(feature_csvs, tmp_path, capsys,
                                          model, params):
    code = run_cli("train", "--model", model, "--in", str(feature_csvs["train"]),
                   "--out", str(tmp_path / "m.json"), "--params", params)
    assert code == 2
    assert "canids: data error: " in capsys.readouterr().err


@pytest.mark.parametrize("model,params", [("knn", "k=abc"),
                                          ("dt", "max_depth=x")])
def test_train_param_of_the_wrong_type_exit_2(feature_csvs, tmp_path, capsys,
                                              model, params):
    code = run_cli("train", "--model", model, "--in", str(feature_csvs["train"]),
                   "--out", str(tmp_path / "m.json"), "--params", params)
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    key, _, value = params.partition("=")
    assert (f"canids: data error: {model} param {key} must be a number, "
            f"not {value!r}") in err


def test_eval_model_file_param_of_the_wrong_type_exit_2(feature_csvs, tmp_path,
                                                        capsys):
    model_path = tmp_path / "knn.json"
    assert run_cli("train", "--model", "knn", "--in", str(feature_csvs["train"]),
                   "--out", str(model_path)) == 0
    doc = json.loads(model_path.read_text())
    doc["payload"]["params"]["k"] = "abc"
    model_path.write_text(json.dumps(doc))
    assert run_cli("eval", "--model-file", str(model_path),
                   "--test", str(feature_csvs["test"])) == 2
    assert (f"data error: model file {model_path}: knn param k must be a "
            f"number, not 'abc'" in capsys.readouterr().err)


@pytest.mark.parametrize("attack", [
    "bogus:window=1-2",
    "flooding:target=0xZZ,window=1-2",
])
def test_synth_invalid_attack_exit_2(tmp_path, capsys, attack):
    code = run_cli("synth", "--horizon", "5", "--attack", attack,
                   "--out", str(tmp_path / "traffic.csv"))
    assert code == 2
    assert "canids: data error: " in capsys.readouterr().err


def test_eval_model_file_invalid_param_value_exit_2(feature_csvs, tmp_path,
                                                    capsys):
    model_path = tmp_path / "rf.json"
    assert run_cli("train", "--model", "rf", "--in", str(feature_csvs["train"]),
                   "--out", str(model_path), "--params",
                   "n_trees=3,max_depth=4") == 0
    doc = json.loads(model_path.read_text())
    doc["payload"]["params"]["n_trees"] = 0
    model_path.write_text(json.dumps(doc))
    assert run_cli("eval", "--model-file", str(model_path),
                   "--test", str(feature_csvs["test"])) == 2
    assert (f"data error: model file {model_path}: n_trees must be >= 1"
            in capsys.readouterr().err)


@pytest.mark.parametrize("payload", ["random:0000@1:7F-10",
                                     "counter:0000@1%300"])
def test_synth_unrepresentable_profile_exit_2(tmp_path, capsys, payload):
    profile = tmp_path / "profile.txt"
    profile.write_text(f"id=0x100 period=0.01 dlc=2 payload={payload}\n")
    code = run_cli("synth", "--profile", str(profile), "--horizon", "1",
                   "--out", str(tmp_path / "traffic.csv"))
    err = capsys.readouterr().err
    assert code == 2
    assert "canids: data error: " in err and "Traceback" not in err
    assert not (tmp_path / "traffic.csv").exists()
