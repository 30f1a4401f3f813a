"""Smoke test of the benchmark harness: every workload, the correctness gate
and the traced run, on tiny inputs, in seconds."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402


def _run(cwd, *args):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_smoke_run_reports_every_metric_and_passes_the_gate():
    proc = _run(ROOT, "--workload", "all", "--smoke", "--seconds", "0.5")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"] + spec["per_layer"]:
            reported = result["metrics"][f"{workload['name']}.{metric['name']}"]
            assert reported["unit"] == metric["unit"]
            assert isinstance(reported["value"], float)
    assert result["metrics"]["rule-sweep.validity.points"]["value"] == 14
    assert result["metrics"]["forecast.clustering.iterations"]["value"] == 0
    assert result["metrics"]["cli-experiment.clustering.sc_peak_alloc_mb"]["value"] > 0


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "forecast", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_renamed_function_is_reported_absent_and_its_metric_left_out(monkeypatch):
    modules = tracing.load_modules()
    monkeypatch.delattr(modules["clustering"], "_squared_distances")
    tracer = tracing.Tracer(modules)
    tracer.install(0)
    tracer.uninstall()
    values = tracing.layer_values(tracer, 0, {}, memory=False)
    assert tracer.absent == {"clustering._squared_distances"}
    assert "clustering.distances_s" not in values
    assert values["clustering.scatter_s"] == 0.0
