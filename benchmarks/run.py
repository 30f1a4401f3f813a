"""fuzzyrunoff benchmark.

One workload, one fresh process, one result::

    python3 benchmarks/run.py --workload rule-sweep --seed 0 --seconds 20 --trace 0

prints every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``) by name and unit, then, as the last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every workload, each in its own process, untraced and then traced::

    python3 benchmarks/run.py --workload all [--seed N] [--seconds S] [--smoke]

``--smoke`` shrinks every event to a few hundred rows so the whole harness,
gate and traced run included, finishes in seconds.  ``--record-reference``
rewrites the gate's reference entry of one workload at the default seed.
See ``benchmarks/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import tracing
from calibration import slowdown

# One caller, one BLAS thread: set before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0  # the seed the gate's reference was recorded at
SETUPS = 3
# Untimed forecast probing after each repetition of a workload whose timed
# run does not forecast, as a share of that repetition's time.
PROBE_SHARE = 1.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "valid_rmse": "mm",
    "forecast_rows_per_s": "rows/s",
    "stream_p50_us": "us",
    "stream_p99_us": "us",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["all", "cli-experiment", "rule-sweep", "forecast"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for checking the harness")
    p.add_argument("--record-reference", action="store_true",
                   help="write this workload's gate reference (default seed only)")
    return p.parse_args(argv)


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def blas_name() -> str:
    try:  # numpy >= 1.26
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def environment(args) -> dict:
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name(),
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": "smoke" if args.smoke else "full",
    }


def calibrated_median(samples, power: int = 1, raw: bool = False) -> float:
    """Median over ``(value, slowdown)`` samples of the value at the
    reference host's speed: a time divided by the slowdown (``power`` 1), a
    rate multiplied by it (``power`` -1).  ``raw`` ignores the slowdown."""
    return statistics.median(v / (1.0 if raw else f) ** power for v, f in samples)


def end_to_end(setups, stages, rows_per_s, latency, raw: bool = False) -> dict:
    """The timed end-to-end metrics from a run's calibrated samples."""
    return {
        "setup_s": calibrated_median(setups, raw=raw),
        "wall_s": sum(calibrated_median(s, raw=raw) for s in stages.values()),
        "forecast_rows_per_s": calibrated_median(rows_per_s, -1, raw=raw),
        "stream_p50_us": calibrated_median([(p50, f) for p50, _, f in latency], raw=raw),
        "stream_p99_us": calibrated_median([(p99, f) for _, p99, f in latency], raw=raw),
    }


def reference_for(size: str, seed: int, name: str):
    if seed != DEFAULT_SEED:
        return None
    table = json.loads(REFERENCE.read_text())
    return table[size][name]


def write_reference(size: str, name: str, entry: dict) -> None:
    table = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    table.setdefault(size, {})[name] = entry
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def run_workload(args) -> dict:
    from workloads import WORKLOADS, Outcome

    size = "smoke" if args.smoke else "full"
    cls = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        workload = cls(args.seed, size, workdir)
        setups = 1 if args.smoke else SETUPS
        setup_times = []

        def set_up() -> float:
            """Set up once; returns the time taken, calibration included."""
            t0 = time.perf_counter()
            before = slowdown()
            t1 = time.perf_counter()
            workload.setup()
            if not args.smoke:
                # warm-up: a smoke-size iteration, so lazy imports and
                # caches are paid before timing
                warm = cls(args.seed, "smoke",
                           os.path.join(workdir, f"warm{len(setup_times)}"))
                warm.calibrated = False
                warm.setup()
                outcome = warm.iteration(0)
                warm.check(0, outcome, None)
                warm.cleanup(0)
            t2 = time.perf_counter()
            setup_times.append((t2 - t1, math.sqrt(before * slowdown())))
            return time.perf_counter() - t0

        set_up()
        recording = args.record_reference
        reference = None if recording else reference_for(size, args.seed, args.workload)
        tracer = tracing.Tracer(tracing.load_modules()) if args.trace else None

        total = Outcome()
        walls = {False: [], True: []}
        stages = {}
        rows_per_s, latency = [], []
        stream_calls = 0
        layers = []
        k = 0
        # a traced run compares traced with untraced repetitions without
        # bursts inside them; each repetition is calibrated as a whole
        workload.calibrated = not tracer
        start = time.perf_counter()
        while k < 1 + bool(tracer) or time.perf_counter() - start < args.seconds:
            traced = bool(tracer) and k % 2 == 1
            before = slowdown() if tracer else 1.0
            if traced:
                tracer.install(k)
            t0 = time.perf_counter()
            try:
                outcome = workload.iteration(k)
            finally:
                wall = time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
            walls[traced].append(wall / (math.sqrt(before * slowdown()) if tracer else 1.0))
            workload.check(k, outcome, reference)
            if traced:
                layers.append(tracing.layer_values(tracer, k, outcome.layer, memory=False))
            elif not tracer:
                for stage, sample in outcome.stages.items():
                    stages.setdefault(stage, []).append(sample)
                forecasts = outcome
                if not outcome.latency:
                    forecasts = workload.probe(k, PROBE_SHARE * wall)
                    total.absorb(forecasts)
                rows_per_s += forecasts.rows_per_s
                latency += forecasts.latency
                stream_calls += forecasts.streamed
            if k:
                workload.cleanup(k - 1)
            total.absorb(outcome)
            k += 1
            # the other set-ups are spread over the run, so their median
            # samples the run's phases of load; their time is not measuring
            # time
            if len(setup_times) < setups and \
                    time.perf_counter() - start > len(setup_times) * args.seconds / setups:
                start += set_up()
        while len(setup_times) < setups:
            set_up()
        last = outcome
        if recording:
            write_reference(size, args.workload, workload.record(last))
        workload.cleanup(k - 1)

        if tracer:
            tracemalloc.start()
            tracer.install(k, memory=True)
            try:
                memory_outcome = workload.iteration(k)
            finally:
                tracer.uninstall()
                tracemalloc.stop()
            workload.check(k, memory_outcome, reference)
            workload.cleanup(k)
            total.absorb(memory_outcome)
            memory = tracing.layer_values(tracer, k, {}, memory=True)
            tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.csv")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = {"setup_s": setup_times, "wall_s": walls[False], "traced_wall_s": walls[True]}
    for message in total.errors:
        print(f"gate: {message}", file=sys.stderr)
    if tracer:
        units = tracing.units()
        values = {name: statistics.median([layer[name] for layer in layers])
                  for name in layers[0]}
        values.update(memory)
        values["trace.overhead_s"] = min(walls[True]) - min(walls[False])
        values["trace.spans"] = len(tracer.spans) / (len(walls[True]) + 1)
        units.update({"trace.overhead_s": "s", "trace.spans": "count"})
        metrics = {name: {"value": float(v), "unit": units[name]} for name, v in values.items()}
        absent = sorted(tracer.absent)
    else:
        # timings at the reference host's speed (see calibration.py)
        values = end_to_end(setup_times, stages, rows_per_s, latency)
        values.update({
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "valid_rmse": sum(last.rmse.values()) / len(last.rmse),
        })
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
        absent = []
        factors = [f for stage in stages.values() for _, f in stage]
        samples.update({
            "stages": len(stages), "forecast_passes": len(rows_per_s),
            "stream_blocks": len(latency), "stream_calls": stream_calls,
            "slowdown": [min(factors), statistics.median(factors), max(factors)],
            "uncalibrated": end_to_end(setup_times, stages, rows_per_s, latency, raw=True),
        })
    return {
        "result": {"correct": total.failed == 0, "attempted": total.attempted,
                   "failed": total.failed, "metrics": metrics},
        "samples": samples,
        "absent": absent,
    }


def print_metrics(metrics: dict, prefix: str = "") -> None:
    for name, m in metrics.items():
        print(f"{prefix}{name:32s} {m['value']:>16.6g} {m['unit']}")


def run_all(args) -> dict:
    """Each workload in a fresh process, untraced then traced."""
    from workloads import WORKLOADS

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise RuntimeError(f"{name} --trace {trace} exited {proc.returncode}")
            result = json.loads(lines[-1])
            print(f"== {name} ({'traced' if trace else 'untraced'}): "
                  f"attempted {result['attempted']} failed {result['failed']} "
                  f"correct {result['correct']}")
            print_metrics(result["metrics"], "  ")
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for metric, m in result["metrics"].items():
                summary["metrics"][f"{name}.{metric}"] = m
    return summary


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fuzzyrunoff" / "__init__.py").is_file():
        print(f"fuzzyrunoff sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.record_reference and (args.workload == "all" or args.seed != DEFAULT_SEED):
        print("--record-reference takes one workload at the default seed", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    sys.path.insert(0, str(SRC))
    print("env " + json.dumps(environment(args), sort_keys=True))
    if args.workload == "all":
        result = run_all(args)
    else:
        run = run_workload(args)
        result = run["result"]
        print(f"samples {json.dumps(run['samples'])}")
        if run["absent"]:
            print(f"absent (not in this version of the library): {', '.join(run['absent'])}")
        print_metrics(result["metrics"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
