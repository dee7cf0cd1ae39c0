"""Property: concurrent executors are indistinguishable from serial.

Mirror of ``tests/test_batch_equivalence.py`` for the executor axis: for any
job, any split shape, and any fault schedule, running under ``threads`` or
``processes`` must produce the same output records, the same JobStats byte
fields, the same counters, and the same trace events as the serial loop.
The only permitted trace difference is the presence of the executor's own
``executor_dispatch``/``executor_join`` bookkeeping events, which are
excluded from comparison (as are timing-derived ``speculative_kill``
events, same as the batch property).
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.backends.mapreduce import MapReduceBackend
from repro.backends.spark import SparkBackend
from repro.core import SPCA
from repro.engine.exec import ProcessPoolTaskExecutor, ThreadPoolTaskExecutor
from repro.engine.mapreduce import MapReduceJob, MapReduceRuntime, SumReducer
from repro.engine.spark.context import SparkContext
from repro.errors import JobFailedError
from repro.faults import RandomFaults
from repro.obs import tracing
from tests.test_batch_equivalence import (
    BYTE_FIELDS,
    CONFIG,
    DATA,
    MAPPERS,
    SMALL_CLUSTER,
    job_inputs,
)

EXCLUDED_EVENTS = ("executor_dispatch", "executor_join", "speculative_kill")

# Pools are expensive to spin up (especially the fork for processes), so the
# whole module shares one of each and every test/example reuses them.
THREADS = ThreadPoolTaskExecutor(workers=2)
PROCESSES = ProcessPoolTaskExecutor(workers=2)


@pytest.fixture(scope="module", autouse=True)
def _shared_pools():
    yield
    THREADS.shutdown()
    PROCESSES.shutdown()
    assert PROCESSES.registry.active_segments() == []


def data_events(tracer):
    """Trace events that carry data/accounting (multiset, order-free).

    Serial and concurrent runs commit in the same task order, but a failed
    Spark attempt's cache put/evict churn is replayed at commit time rather
    than interleaved with the attempt, so events are compared as multisets.
    """
    return sorted(
        (event.type, sorted(event.attrs.items(), key=repr))
        for event in tracer.events
        if event.type not in EXCLUDED_EVENTS
    )


def run_traced(executor, params, faults=None):
    splits, mapper, use_reducer, use_combiner, num_reducers = params
    runtime = MapReduceRuntime(
        cluster=SMALL_CLUSTER, executor=executor, faults=faults
    )
    job = MapReduceJob(
        name="property",
        mapper=MAPPERS[mapper](),
        reducer=SumReducer() if use_reducer else None,
        combiner=SumReducer() if use_combiner else None,
        num_reducers=num_reducers,
    )
    with tracing() as tracer:
        try:
            output = runtime.run(job, splits)
        except JobFailedError as exc:
            return ("failed", str(exc)), None, tracer
    return output, runtime.metrics.jobs[0], tracer


def assert_equivalent(params, faults_factory=None):
    results = {}
    for name, executor in (
        ("serial", None),
        ("threads", THREADS),
        ("processes", PROCESSES),
    ):
        faults = faults_factory() if faults_factory else None
        results[name] = run_traced(executor, params, faults)
    out_serial, stats_serial, trace_serial = results["serial"]
    for name in ("threads", "processes"):
        out, stats, trace = results[name]
        assert out == out_serial, name
        if stats_serial is None:
            assert stats is None, name
        else:
            for field in BYTE_FIELDS:
                assert getattr(stats, field) == getattr(stats_serial, field), (
                    f"{name}: {field}"
                )
            assert stats.counters == stats_serial.counters, name
            assert stats.n_map_tasks == stats_serial.n_map_tasks, name
            assert stats.n_reduce_tasks == stats_serial.n_reduce_tasks, name
            assert stats.task_retries == stats_serial.task_retries, name
            assert stats.faults == stats_serial.faults, name
        assert data_events(trace) == data_events(trace_serial), name
        assert [(s.kind, s.name) for s in trace.spans] == [
            (s.kind, s.name) for s in trace_serial.spans
        ], name


@settings(max_examples=25, deadline=None)
@given(params=job_inputs())
def test_executors_match_serial(params):
    assert_equivalent(params)


@settings(max_examples=25, deadline=None)
@given(params=job_inputs())
def test_executors_match_serial_under_random_faults(params):
    # A fresh injector per run: every executor must consume the identical
    # RNG stream, so retries, stragglers, fault counters -- and even the
    # JobFailedError message when the schedule is fatal -- agree exactly.
    assert_equivalent(params, faults_factory=lambda: RandomFaults(0.25, seed=99))


# -- full sPCA fits must be bitwise identical across executors ------------


def fit_mapreduce(executor, config=CONFIG):
    runtime = MapReduceRuntime(cluster=SMALL_CLUSTER, executor=executor)
    backend = MapReduceBackend(config, runtime=runtime, records_per_split=6)
    model, _ = SPCA(config, backend).fit(DATA)
    return model, runtime.metrics


def fit_spark(executor, config=CONFIG):
    context = SparkContext(cluster=SMALL_CLUSTER, executor=executor)
    backend = SparkBackend(config, context=context, records_per_partition=6)
    model, _ = SPCA(config, backend).fit(DATA)
    return model, context.metrics


def assert_fits_match(fit, executor, config=CONFIG):
    model_serial, metrics_serial = fit(None, config)
    model_exec, metrics_exec = fit(executor, config)
    # No kernel is re-associated by the executor layer (tasks are identical
    # units of work in a different order), so equality is bitwise.
    assert np.array_equal(model_exec.components, model_serial.components)
    assert np.array_equal(model_exec.mean, model_serial.mean)
    assert model_exec.noise_variance == model_serial.noise_variance
    jobs_s, jobs_e = metrics_serial.jobs, metrics_exec.jobs
    assert [j.name for j in jobs_e] == [j.name for j in jobs_s]
    for job_e, job_s in zip(jobs_e, jobs_s):
        for field in BYTE_FIELDS:
            assert getattr(job_e, field) == getattr(job_s, field), (
                f"{job_s.name}: {field}"
            )
        assert job_e.counters == job_s.counters, job_s.name


def test_spca_mapreduce_threads_bitwise():
    assert_fits_match(fit_mapreduce, THREADS)


def test_spca_mapreduce_processes_bitwise():
    assert_fits_match(fit_mapreduce, PROCESSES)


def test_spca_spark_threads_bitwise():
    assert_fits_match(fit_spark, THREADS)


def test_spca_spark_processes_bitwise():
    # Spark partition functions are closures, so the process executor routes
    # them through its thread sibling -- results must still match serial.
    assert_fits_match(fit_spark, PROCESSES)


# CONFIG skips the per-iteration errorJob and runs every optimization; these
# inputs cover the error kernel and the ablated (densified, materialized-X,
# unconsolidated) kernels on every executor too.
OTHER_CONFIGS = {
    "error-job": CONFIG.with_options(
        max_iterations=2, compute_error_every_iteration=True
    ),
    "unoptimized": CONFIG.unoptimized().with_options(max_iterations=2),
}
FITS = {"mapreduce": fit_mapreduce, "spark": fit_spark}


@pytest.mark.parametrize("executor", [THREADS, PROCESSES], ids=["threads", "processes"])
@pytest.mark.parametrize("engine", sorted(FITS))
@pytest.mark.parametrize("config", sorted(OTHER_CONFIGS))
def test_spca_other_configs_bitwise(config, engine, executor):
    assert_fits_match(FITS[engine], executor, OTHER_CONFIGS[config])


def test_spark_processes_fallback_is_traced():
    context = SparkContext(cluster=SMALL_CLUSTER, executor=PROCESSES)
    backend = SparkBackend(CONFIG, context=context, records_per_partition=6)
    with tracing() as tracer:
        SPCA(CONFIG, backend).fit(DATA)
    dispatches = [e for e in tracer.events if e.type == "executor_dispatch"]
    assert dispatches, "concurrent Spark run must emit dispatch events"
    assert all(
        e.attrs.get("fallback_from") == "processes" for e in dispatches
    )
