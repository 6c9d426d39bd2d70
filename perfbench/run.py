"""canids benchmark: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload compare --seed 1 --seconds 15 --trace 0

The process builds the workload's inputs (set-up, timed and repeated), then
starts a second process that loads those inputs and repeats the timed run
for --seconds, so that peak RSS belongs to the run and not to the set-up.
With --trace 0 the last stdout line carries the end-to-end metrics named
in BENCHMARK.json; with --trace 1 it carries the per-layer metrics of one
untraced and one traced run (spans go to .perfbench_work/spans/). A failed
output check makes the result incorrect and the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# The benchmark is defined single-threaded: BLAS threads are pinned to 1
# before numpy loads, here and in the measuring process.
THREAD_ENV = {k: "1" for k in
              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(THREAD_ENV)

WORK_ROOT = Path(".perfbench_work")
SETUP_REPS = 10
SETUP_BUDGET_S = 6.0  # stop repeating a set-up once it has used this much
RUN_TIMEOUT_S = 170.0


def _percentile_note(samples: list[float]) -> str:
    """The highest of a few percentiles with at least ten samples beyond it."""
    n = len(samples)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            q = statistics.quantiles(samples, n=1000, method="inclusive")
            return f"p{p:g} {q[round(p * 10) - 1]:.4f} (n={n})"
    return f"n={n}; no percentile has 10 samples beyond it"


# --- measuring process --------------------------------------------------------

def _one_run(wl, inputs, work: Path, tracer) -> dict:
    started = time.perf_counter()
    try:
        with tracer.span(f"perfbench.{wl.name}"):
            out = wl.run(inputs, work, tracer)
    except Exception as exc:  # a crashed run fails all of its operations
        traceback.print_exc()
        return {"run_s": time.perf_counter() - started, "attempted": wl.ops,
                "failed": wl.ops, "failures": [f"{type(exc).__name__}: {exc}"],
                "csv": None, "counts": {}, "digests": {}, "quality": [0.0, 0.0],
                "output_bytes": 0}
    run_s = time.perf_counter() - started
    checks = wl.check(out, inputs)
    return {"run_s": run_s, "attempted": out.ops + len(checks),
            "failed": len(out.errors) + sum(not ok for _, ok in checks),
            "failures": out.errors + [name for name, ok in checks if not ok],
            "csv": out.csv, "counts": out.counts, "digests": wl.digests(work),
            "quality": list(wl.quality(out, inputs)),
            "output_bytes": out.output_bytes}


def _per_layer(names: list[str], tracer, counts: dict, overhead: float) -> dict:
    own = tracer.self_times()
    by_module: dict[str, float] = {}
    for span, seconds in own.items():
        module = span.split(".", 1)[0]
        by_module[module] = by_module.get(module, 0.0) + seconds
    out = {}
    for name in names:
        if name == "trace.overhead_s":
            out[name] = overhead
        elif name == "trace.spans":
            out[name] = len(tracer.spans)
        elif name.endswith(".self_s"):
            out[name] = by_module.get(name[:-len(".self_s")], 0.0)
        elif name.endswith("_s"):
            out[name] = own.get(name[:-2], 0.0)
        elif name.endswith("_mb"):
            out[name] = counts.get(name[:-3] + "_bytes", 0) / 1e6
        else:
            out[name] = counts.get(name, 0)
    return out


def measure(args) -> int:
    from spans import NULL_TRACER, Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    work = Path(args.dir)
    inputs = wl.load(work)
    runs = []
    tracer = None
    if args.trace:
        runs.append(_one_run(wl, inputs, work, NULL_TRACER))
        tracer = Tracer(run_id=f"{wl.name}-s{args.seed}")
        runs.append(_one_run(wl, inputs, work, tracer))
    else:
        started = time.perf_counter()
        while not runs or time.perf_counter() - started < args.seconds:
            runs.append(_one_run(wl, inputs, work, NULL_TRACER))
    first = runs[0]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    # every run of one seed must produce the same report and the same counts
    for r in runs[1:]:
        same = {"report CSV": r["csv"] == first["csv"],
                "output digests": r["digests"] == first["digests"],
                "work counts": all(r["counts"][k] == first["counts"][k]
                                   for k in r["counts"].keys() & first["counts"].keys())}
        attempted += len(same)
        failed += sum(not ok for ok in same.values())
        failures += [f"{name} differ between runs" for name, ok in same.items() if not ok]
    counts = {k: v for r in runs for k, v in r["counts"].items()}
    result = {
        "run_s": [r["run_s"] for r in runs],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "attempted": attempted, "failed": failed, "failures": failures,
        "quality": first["quality"], "output_mb": first["output_bytes"] / 1e6,
        "counts": counts, "digests": first["digests"],
    }
    if tracer is not None:
        spans_dir = WORK_ROOT / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        spans_file = spans_dir / f"{wl.name}-s{args.seed}.jsonl"
        tracer.write(spans_file)
        result["spans_file"] = str(spans_file)
        spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
        result["per_layer"] = _per_layer(
            [m["name"] for m in spec["per_layer"]], tracer, counts,
            runs[1]["run_s"] - runs[0]["run_s"])
    print(json.dumps(result))
    return 0


# --- driving process ----------------------------------------------------------

def _openblas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return None
    return lines[1] if Path(lines[0]).resolve() == Path.cwd().resolve() else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _sha256_sources(directory) -> str:
    h = hashlib.sha256()
    for path in sorted(Path(directory).glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(seed: int) -> dict:
    import numpy
    import scipy
    return {
        "git_commit": _git_commit(),
        "source_sha256": _sha256_sources("src/canids"),
        "bench_sha256": _sha256_sources(Path(__file__).parent),
        "seed": seed, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "openblas_threads": _openblas_threads(), "cpu": _cpu_model(),
    }


def _check_counts(path: Path, counts: dict) -> list[str]:
    """Work counts must repeat exactly across runs of one seed and one
    version of the program and the benchmark."""
    seen = json.loads(path.read_text()) if path.exists() else {}
    differ = [f"count {k}: {seen[k]} before, {v} now"
              for k, v in counts.items() if k in seen and seen[k] != v]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**seen, **counts}, indent=1, sort_keys=True))
    return differ


def drive(args) -> int:
    if not Path("src/canids/__init__.py").is_file():
        print("perfbench: src/canids not found; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, "src")
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    tag = f"{wl.name}-s{args.seed}"
    work = WORK_ROOT / f"{tag}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup_s: list[float] = []
    while len(setup_s) < SETUP_REPS and (
            not setup_s or sum(setup_s) + statistics.median(setup_s) <= SETUP_BUDGET_S):
        started = time.perf_counter()
        wl.setup(work, args.seed)
        setup_s.append(time.perf_counter() - started)

    env = {**os.environ, **THREAD_ENV,
           "PYTHONPATH": os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))}
    cmd = [sys.executable, __file__, "--measure", "--dir", str(work),
           "--workload", wl.name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        child = subprocess.run(cmd, capture_output=True, text=True, env=env,
                               timeout=RUN_TIMEOUT_S - sum(setup_s))
        sys.stderr.write(child.stderr)
        res = json.loads(child.stdout.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"perfbench: measuring process failed: {exc!r}", file=sys.stderr)
        res = None
    if res is None:
        res = {"run_s": [0.0], "peak_rss_mb": 0.0, "attempted": wl.ops,
               "failed": wl.ops, "failures": ["measuring process failed"],
               "quality": [0.0, 0.0], "output_mb": 0.0, "counts": {}, "digests": {}}

    prov = {**provenance(args.seed), "workload": wl.name, "digests": res["digests"]}
    version = f"{prov['source_sha256'][:12]}-{prov['bench_sha256'][:12]}"
    count_diffs = _check_counts(WORK_ROOT / "counts" / f"{tag}-{version}.json",
                                res["counts"])
    res["failures"] += count_diffs
    attempted = res["attempted"] + 1
    failed = res["failed"] + bool(count_diffs)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        values = res.get("per_layer", {})
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        values = {
            "run_s": statistics.median(res["run_s"]),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": res["peak_rss_mb"],
            "success_rate": 1 - failed / attempted,
            "mean_f1": res["quality"][0], "mean_auc": res["quality"][1],
            "output_mb": res["output_mb"],
        }
    metrics = {n: {"value": values.get(n, 0.0), "unit": units[n]} for n in names}

    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}")
    if args.trace:
        print("  run_s      untraced, traced: "
              + ", ".join(f"{t:.4f} s" for t in res["run_s"]))
    else:
        print(f"  run_s      median {statistics.median(res['run_s']):.4f} s, "
              f"{_percentile_note(res['run_s'])}")
    print(f"  setup_s    median {statistics.median(setup_s):.4f} s, "
          f"{_percentile_note(setup_s)}")
    print(f"  error_rate {failed}/{attempted} operations failed")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    for failure in res["failures"]:
        print(f"  FAILED: {failure}")
    if args.trace and "spans_file" in res:
        print(f"  spans: {res['spans_file']}")
    print("provenance: " + json.dumps(prov, sort_keys=True))

    results_dir = WORK_ROOT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{tag}-t{args.trace}.json").write_text(json.dumps(
        {"provenance": prov, "setup_s": setup_s, "measured": res}, indent=1))
    shutil.rmtree(work, ignore_errors=True)

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="a workload named in BENCHMARK.json, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--dir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.measure:
        return measure(args)
    if args.workload == "all":  # every workload in turn, for a person at a shell
        spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
        return max(drive(argparse.Namespace(**{**vars(args), "workload": w["name"]}))
                   for w in spec["workloads"])
    return drive(args)


if __name__ == "__main__":
    sys.exit(main())
