"""Smoke test of the end-to-end benchmark on tiny inputs.

Run with ``python -m pytest -q benchmarks/e2e``.  It runs every workload at
``--scale smoke`` once untraced and once traced (well under 30 s together)
and checks the result format, the correctness checks and the layer
coverage, plus the handling of a layer target the program no longer has.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FITS = ("fit-text-mr", "fit-dense-spark")


def run_smoke(out: Path, trace: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--scale", "smoke", "--seconds", "1",
            "--trace", str(trace), "--out", str(out),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    summary = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["failed"] == 0
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    return {trace: run_smoke(out / f"trace{trace}.json", trace) for trace in (0, 1)}


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_reported_with_its_unit(results, trace, kind):
    runs = results[trace]["runs"]
    assert [run["workload"] for run in runs] == [w["name"] for w in SPEC["workloads"]]
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    for run in runs:
        units = {name: metric["unit"] for name, metric in run["metrics"].items()}
        assert units == expected, run["workload"]
        assert run["correct"] and run["attempted"] > 0 and run["failed"] == 0


def test_end_to_end_metrics_are_positive(results):
    for run in results[0]["runs"]:
        for name, metric in run["metrics"].items():
            assert metric["value"] > 0, (run["workload"], name)


def test_traced_fits_are_covered_by_layers(results):
    runs = {run["workload"]: run for run in results[1]["runs"]}
    for workload in FITS:
        metrics = runs[workload]["metrics"]
        assert metrics["trace.coverage"]["value"] >= 0.95, workload
        assert metrics["trace.overhead"]["value"] > 0
        assert metrics["obs.tracer_ratio"]["value"] > 0
        assert metrics["obs.registry_ratio"]["value"] > 0
        assert metrics["core.iters_to_target"]["value"] >= 1


def test_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import repro.engine.mapreduce.runtime as runtime
    import spans

    original_run = runtime.MapReduceRuntime.run
    monkeypatch.delattr(runtime, "_partition_pairs")
    recorder = spans.Recorder()
    try:
        absent = recorder.install()
        assert runtime.MapReduceRuntime.run is not original_run
    finally:
        recorder.uninstall()
    assert absent == ["engine.shuffle: repro.engine.mapreduce.runtime:_partition_pairs"]
    assert runtime.MapReduceRuntime.run is original_run
