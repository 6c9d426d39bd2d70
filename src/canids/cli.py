"""Command-line entry point.

Subcommands: parse, synth, extract, train, eval, compare, ablate, report.
Exit codes: 0 success, 1 usage error, 2 data error, 3 model failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import harness, synth
from .canlog import clean, load_log, write_log
from .detectors import (
    ALL_MODELS,
    derive_seed,
    load_detector,
    save_detector,
)
from .errors import (
    CanidsError,
    ConfigError,
    EmptySplit,
    IoError,
    NegativeInterval,
    ParseError,
    WindowOutOfRange,
    WrongWidth,
)
from .features import (
    extract,
    read_features,
    select_subset,
    write_features,
)
from .harness import (
    DEFAULT_GRIDS,
    EvalReport,
    emit_report,
    grid_search,
    load_experiment_config,
    read_report_json,
)

_DATA_ERRORS = (ParseError, IoError, ConfigError, NegativeInterval,
                WrongWidth, EmptySplit, WindowOutOfRange, FileNotFoundError,
                OSError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="canids",
                     description="CAN-bus intrusion detection toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="validate a CAN log and report stats")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--stats", action="store_true")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("synth", help="generate synthetic traffic")
    p.add_argument("--profile", default="default",
                   help="profile file path, or 'default'")
    p.add_argument("--horizon", type=float, default=synth.DEFAULT_HORIZON)
    p.add_argument("--attack", action="append", default=[],
                   help="e.g. flooding:target=0x4F1,mult=10,window=20-30")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("extract", help="CAN log -> feature CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--subset", default="all67",
                   choices=["all67", "last3", "first66"])
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("train", help="fit one model on a feature CSV")
    p.add_argument("--model", required=True, choices=ALL_MODELS)
    p.add_argument("--in", dest="infile", required=True,
                   help="training feature CSV")
    p.add_argument("--val", help="validation feature CSV (dae threshold, grid)")
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--normal-only", action="store_true",
                   help="fit semi-supervised models on rows labeled Normal "
                        "only (dae always is); without it they fit on every "
                        "row, labels hidden, because a training CSV may be "
                        "unlabeled")
    p.add_argument("--params", default="",
                   help="comma list of overrides of the detector defaults, "
                        "e.g. k=5,threshold=1.2")
    p.add_argument("--grid", choices=["default"],
                   help="grid-search hyperparameters on the validation set; "
                        "each grid point overrides --params")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved model on a feature CSV")
    p.add_argument("--model-file", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--out", help="optional CSV output path")
    p.set_defaults(func=_cmd_eval)

    for name, help_text in (("compare", "run the model comparison"),
                            ("ablate", "run the feature-subset ablation")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, help="override config seed")
        p.add_argument("--out", help="output directory")
        p.add_argument("--threads", type=int, help="override config threads")
        p.set_defaults(func=_cmd_compare if name == "compare" else _cmd_ablate)

    p = sub.add_parser("report", help="re-render a JSON report")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", default="text", choices=["text", "csv", "json"])
    p.add_argument("--out")
    p.set_defaults(func=_cmd_report)

    return parser


def _cmd_parse(args) -> int:
    batch = load_log(args.infile)
    cleaned, stats = clean(batch)
    print(f"{args.infile}: {len(batch)} parsed records, "
          f"{len(batch.parse_failures)} unparseable lines")
    print(f"clean: kept {stats.kept}, removed {stats.total_removed}")
    if args.stats and (stats.removed or batch.parse_failures):
        for reason in sorted(stats.removed):
            print(f"  {reason}: {stats.removed[reason]}")
    return 0


def _cmd_synth(args) -> int:
    if args.profile == "default":
        profile = synth.default_profile()
    else:
        profile = synth.load_profile(args.profile)
    batch = synth.generate_normal(profile, args.horizon, args.seed)
    for i, text in enumerate(args.attack):
        spec = synth.parse_attack_arg(text)
        if spec.seed == 0:
            # keep attacks distinguishable under one run seed
            spec = replace(spec, seed=derive_seed(args.seed, f"attack{i}"))
        batch = synth.inject_attack(batch, spec, profile=profile,
                                    horizon=args.horizon)
    write_log(args.out, batch)
    print(f"wrote {len(batch)} frames to {args.out}")
    return 0


def _cmd_extract(args) -> int:
    batch = load_log(args.infile)
    cleaned, stats = clean(batch)
    matrix = extract(cleaned)
    if args.subset != "all67":
        matrix = select_subset(matrix, args.subset)
    write_features(args.out, matrix)
    dropped = len(cleaned) - matrix.n_rows
    print(f"wrote {matrix.n_rows} x {matrix.n_cols} features to {args.out} "
          f"({stats.total_removed} cleaned, {dropped} first-per-id drops)")
    return 0


def _parse_params(text: str) -> dict:
    params: dict = {}
    if not text:
        return params
    for token in text.split(","):
        key, _, value = token.partition("=")
        try:
            params[key] = int(value)
        except ValueError:
            try:
                params[key] = float(value)
            except ValueError:
                params[key] = value
    return params


def _cmd_train(args) -> int:
    train = read_features(args.infile)
    val = read_features(args.val) if args.val else None
    policy = "normal-only" if args.normal_only else "contaminated"
    params = _parse_params(args.params)
    if args.grid:
        if val is None or val.labels is None:
            raise ConfigError("--grid needs a labeled --val feature CSV")
        best, best_f1, _ = grid_search(
            args.model, DEFAULT_GRIDS.get(args.model, {}), train, val,
            policy=policy, seed=args.seed, params=params,
        )
        params = {**params, **best}
        print(f"grid best for {args.model}: {best} (f1={best_f1:.4f})")
    det = harness.fit_model(args.model, params, train, val, policy, args.seed)
    save_detector(args.out, det)
    print(f"saved {args.model} model to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    det = load_detector(args.model_file)
    test = read_features(args.test)
    if test.labels is None:
        raise ConfigError("eval needs a labeled feature CSV")
    report = EvalReport(rows=[harness.evaluate(det, test)])
    print(emit_report(report, "text"), end="")
    if args.out:
        emit_report(report, "csv", args.out)
    return 0


def _run_experiment(args, runner, stem: str) -> int:
    cfg = load_experiment_config(args.config)
    overrides = {"seed": args.seed, "threads": args.threads}
    # replace re-runs the config's checks on the overrides
    cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    report = runner(cfg)
    print(emit_report(report, "text"), end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        emit_report(report, "csv", out / f"{stem}.csv")
        emit_report(report, "json", out / f"{stem}.json")
        emit_report(report, "text", out / f"{stem}.txt")
    if any(row.error is not None for row in report.rows):
        return 3
    return 0


def _cmd_compare(args) -> int:
    return _run_experiment(args, harness.run_comparison, "comparison")


def _cmd_ablate(args) -> int:
    return _run_experiment(args, harness.run_ablation, "ablation")


def _cmd_report(args) -> int:
    report = read_report_json(Path(args.infile).read_text(encoding="utf-8"))
    text = emit_report(report, args.format, args.out)
    if not args.out:
        print(text, end="")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"canids: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _DATA_ERRORS as exc:
        print(f"canids: data error: {exc}", file=sys.stderr)
        return 2
    except CanidsError as exc:
        print(f"canids: model error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
