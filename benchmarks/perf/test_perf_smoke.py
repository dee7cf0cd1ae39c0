"""Smoke test for the perf harness: quick shapes, schema only.

Asserts structure on tiny inputs; never absolute times, so it cannot flake
on slow CI machines.  The one exception is the multi-core speedup floor,
which is explicitly gated on ``os.cpu_count() >= 4`` -- a single-core runner
cannot show parallelism and the test must not pretend it can.
"""

import json
import os

import pytest

from perf.harness import (
    BENCH_NAME,
    EXEC_BENCH_NAME,
    run_executor_suite,
    run_suite,
    summarize,
    summarize_executor,
    traced_quick_fit,
    validate,
    validate_executor,
)


@pytest.fixture(scope="module")
def result():
    return run_suite(quick=True, repeats=1)


@pytest.fixture(scope="module")
def exec_result():
    return run_executor_suite(quick=True, repeats=1)


def test_quick_suite_passes_validation(result):
    validate(result)
    assert result["bench"] == BENCH_NAME
    assert result["quick"] is True


def test_result_is_json_serializable(result):
    parsed = json.loads(json.dumps(result))
    validate(parsed)


def test_ops_cover_the_pipeline_hot_spots(result):
    names = {op["name"] for op in result["ops"]}
    assert names == {"shuffle_partitioning"}


def test_summary_renders(result):
    text = summarize(result)
    assert BENCH_NAME in text
    assert "shuffle_partitioning" in text


def test_validate_rejects_malformed_documents(result):
    broken = dict(result)
    broken.pop("ops")
    with pytest.raises(ValueError):
        validate(broken)
    wrong_bench = dict(result, bench="BENCH_999")
    with pytest.raises(ValueError):
        validate(wrong_bench)


def test_provenance_is_recorded(result):
    prov = result["provenance"]
    for field in ("git_sha", "cpu_count", "python", "platform"):
        assert field in prov, field
    assert prov["cpu_count"] >= 1
    assert prov["executor"] == "serial"
    no_prov = dict(result)
    no_prov.pop("provenance")
    with pytest.raises(ValueError, match="provenance"):
        validate(no_prov)


def test_metrics_block_is_stamped_and_validated(result, exec_result):
    from repro.obs.metrics import METRICS_SCHEMA

    for document in (result, exec_result):
        block = document["metrics"]
        assert block["schema"] == METRICS_SCHEMA
        jobs_total = sum(c["value"] for c in block["counters"]
                         if c["name"] == "spca_jobs_total")
        assert jobs_total > 0


def test_validate_rejects_bad_metrics_block(result):
    wrong_schema = dict(result, metrics=dict(result["metrics"],
                                             schema="other/9"))
    with pytest.raises(ValueError, match="metrics"):
        validate(wrong_schema)
    no_jobs = dict(result, metrics=dict(result["metrics"], counters=[]))
    with pytest.raises(ValueError, match="no engine jobs"):
        validate(no_jobs)
    # The block is optional for pre-metrics result documents.
    legacy = dict(result)
    legacy.pop("metrics")
    validate(legacy)


def test_traced_quick_fit_produces_reconciling_artifacts():
    from repro.obs.metrics import METRICS_SCHEMA

    trace, snapshot = traced_quick_fit()
    assert any(s.kind == "run" for s in trace.spans)
    assert snapshot["schema"] == METRICS_SCHEMA
    # Trace job count and registry job counter must agree.
    n_job_spans = sum(1 for s in trace.spans if s.kind == "job")
    jobs_total = sum(c["value"] for c in snapshot["counters"]
                     if c["name"] == "spca_jobs_total")
    assert n_job_spans == jobs_total > 0


# -- executor suite (BENCH_5) ---------------------------------------------


def test_executor_suite_passes_validation(exec_result):
    validate_executor(exec_result)
    assert exec_result["bench"] == EXEC_BENCH_NAME
    parsed = json.loads(json.dumps(exec_result))
    validate_executor(parsed)


def test_executor_suite_covers_the_matrix(exec_result):
    combos = {
        (e["backend"], e["executor"]) for e in exec_result["end_to_end"]
    }
    assert combos == {
        (backend, executor)
        for backend in ("mapreduce", "spark")
        for executor in ("serial", "threads", "processes")
    }
    for entry in exec_result["end_to_end"]:
        if entry["executor"] == "serial":
            assert entry["speedup_vs_serial"] == 1.0


def test_executor_suite_records_scaling_curve(exec_result):
    workers = {
        e["workers"]
        for e in exec_result["end_to_end"]
        if e["backend"] == "mapreduce" and e["executor"] == "processes"
    }
    assert len(workers) >= 2


def test_executor_summary_renders(exec_result):
    text = summarize_executor(exec_result)
    assert EXEC_BENCH_NAME in text
    assert "mapreduce/processes" in text


def test_executor_validate_rejects_missing_curve(exec_result):
    truncated = dict(
        exec_result,
        end_to_end=[
            e
            for e in exec_result["end_to_end"]
            if not (e["executor"] == "processes" and e["workers"] > 1)
        ],
    )
    with pytest.raises(ValueError, match="scaling curve"):
        validate_executor(truncated)


def _burn(n):
    # Pure-Python work: holds the GIL, so only process-level parallelism
    # can speed it up -- exactly what the floor below asserts.
    total = 0
    for i in range(n):
        total += i * i
    return total


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    # Embed the measured count: a skip must say what the box actually had,
    # so a BENCH document produced alongside it can be cross-checked.
    reason=f"multi-core speedup needs >= 4 cores; this box has "
           f"{os.cpu_count() or 1} (also recorded in provenance.cpu_count)",
)
def test_processes_executor_beats_serial_on_multicore():
    """The processes executor must deliver >= 1.5x on CPU-bound task batches.

    Measured on the executor layer directly (compute-heavy tasks, trivial
    transport) rather than on the quick-suite fits, whose ~30 ms wall time
    is dispatch-dominated and says nothing about scaling.
    """
    import time

    from repro.engine.exec import ProcessPoolTaskExecutor, SerialExecutor

    n, tasks = 2_000_000, 8
    payloads = [n] * tasks
    serial = SerialExecutor()
    started = time.perf_counter()
    expected = serial.run_tasks(_burn, payloads)
    serial_s = time.perf_counter() - started
    with ProcessPoolTaskExecutor(workers=4) as ex:
        ex.run_tasks(_burn, [1000] * 4)  # warm the pool off the clock
        started = time.perf_counter()
        got = ex.run_tasks(_burn, payloads)
        processes_s = time.perf_counter() - started
    assert got == expected
    assert serial_s / processes_s >= 1.5, (serial_s, processes_s)


# -- kernels suite (BENCH_kernels) -----------------------------------------


@pytest.fixture(scope="module")
def kernels_result():
    from perf.kernels_bench import run_kernels_suite

    return run_kernels_suite(quick=True, repeats=1)


def test_kernels_suite_passes_validation(kernels_result):
    from perf.kernels_bench import KERNELS_BENCH_NAME, validate_kernels

    validate_kernels(kernels_result)
    assert kernels_result["bench"] == KERNELS_BENCH_NAME
    parsed = json.loads(json.dumps(kernels_result))
    validate_kernels(parsed)


def test_kernels_residency_and_raw_blas_recorded(kernels_result):
    residency = kernels_result["residency"]
    assert residency["executor"] == "processes"
    assert residency["reduction"] > 1
    assert kernels_result["raw_blas"]["gap"] > 0


def test_kernels_summary_renders(kernels_result):
    from perf.kernels_bench import KERNELS_BENCH_NAME, summarize_kernels

    text = summarize_kernels(kernels_result)
    assert KERNELS_BENCH_NAME in text
    assert "residency" in text
    assert "raw BLAS floor" in text


def test_kernels_validate_rejects_malformed_documents(kernels_result):
    from perf.kernels_bench import validate_kernels

    unknown_engine = dict(
        kernels_result, raw_blas=dict(kernels_result["raw_blas"], engine="mpi")
    )
    with pytest.raises(ValueError, match="unknown engine"):
        validate_kernels(unknown_engine)
    no_residency = dict(kernels_result)
    no_residency.pop("residency")
    with pytest.raises(ValueError, match="residency"):
        validate_kernels(no_residency)


# -- stream suite (BENCH_stream) ------------------------------------------


@pytest.fixture(scope="module")
def stream_result():
    from perf.stream_bench import run_stream_suite

    return run_stream_suite(quick=True, repeats=1)


def test_stream_suite_passes_validation(stream_result):
    from perf.stream_bench import STREAM_BENCH_NAME, validate_stream

    validate_stream(stream_result)
    assert stream_result["bench"] == STREAM_BENCH_NAME
    parsed = json.loads(json.dumps(stream_result))
    validate_stream(parsed)


def test_stream_suite_covers_all_engines_bitwise(stream_result):
    by_engine = {s["engine"]: s for s in stream_result["scenarios"]}
    assert set(by_engine) == {"sequential", "mapreduce", "spark"}
    for scenario in by_engine.values():
        assert scenario["bitwise_equal"] is True
        assert scenario["sustained_rows_per_s"] > 0
        assert 0.0 <= scenario["window_lag"] < 1.0
    assert stream_result["checkpoint_overhead"]["checkpoints"] > 0


def test_stream_summary_renders(stream_result):
    from perf.stream_bench import STREAM_BENCH_NAME, summarize_stream

    text = summarize_stream(stream_result)
    assert STREAM_BENCH_NAME in text
    assert "checkpoint overhead" in text


def test_stream_validate_rejects_divergence_and_lag(stream_result):
    from perf.stream_bench import validate_stream

    diverged = dict(
        stream_result,
        scenarios=[
            dict(s, bitwise_equal=(s["engine"] == "sequential"))
            for s in stream_result["scenarios"]
        ],
    )
    with pytest.raises(ValueError, match="diverged"):
        validate_stream(diverged)
    lagging = dict(
        stream_result,
        scenarios=[
            dict(s, window_lag=2.5) for s in stream_result["scenarios"]
        ],
    )
    with pytest.raises(ValueError, match="lag"):
        validate_stream(lagging)
    no_ckpt = dict(stream_result)
    no_ckpt.pop("checkpoint_overhead")
    with pytest.raises(ValueError, match="checkpoint_overhead"):
        validate_stream(no_ckpt)
