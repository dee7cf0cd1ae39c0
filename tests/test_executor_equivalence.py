"""Property: concurrent executors are indistinguishable from serial.

For any job, any split shape, and any fault schedule, running under
``threads`` or ``processes`` must produce the same output records, the same
JobStats byte fields, the same counters, and the same trace events as the
serial loop.  The only permitted trace difference is the presence of the
executor's own ``executor_dispatch``/``executor_join`` bookkeeping events,
which are excluded from comparison (as are timing-derived
``speculative_kill`` events, which a GC pause in the simulating process can
perturb).
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.mapreduce import MapReduceBackend
from repro.backends.spark import SparkBackend
from repro.core import SPCA, SPCAConfig
from repro.engine.cluster import ClusterSpec
from repro.engine.exec import ProcessPoolTaskExecutor, ThreadPoolTaskExecutor
from repro.engine.mapreduce import MapReduceJob, MapReduceRuntime, Mapper, SumReducer
from repro.engine.spark.context import SparkContext
from repro.errors import JobFailedError
from repro.faults import RandomFaults
from repro.obs import tracing

BYTE_FIELDS = (
    "map_output_bytes",
    "shuffle_bytes",
    "output_bytes",
    "hdfs_read_bytes",
    "hdfs_write_bytes",
    "driver_result_bytes",
    "broadcast_bytes",
)

SMALL_CLUSTER = ClusterSpec(num_nodes=1, cores_per_node=4)


class EmitTwiceMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.increment("records")
        yield key, value
        yield (key, "sq"), value * value


class StatefulSumMapper(Mapper):
    def setup(self, ctx):
        self.total = 0

    def map(self, key, value, ctx):
        self.total += value
        return ()

    def cleanup(self, ctx):
        yield "sum", self.total


class VectorizedMapper(Mapper):
    """A job that overrides ``map_batch`` instead of ``map``."""

    def map_batch(self, records, ctx):
        ctx.increment("records", len(records))
        return [(key, value * 7) for key, value in records]


MAPPERS = {
    "identity": Mapper,
    "emit_twice": EmitTwiceMapper,
    "stateful": StatefulSumMapper,
    "vectorized": VectorizedMapper,
}


@st.composite
def job_inputs(draw):
    n_records = draw(st.integers(min_value=1, max_value=20))
    keys = draw(
        st.lists(
            st.sampled_from(["YtX", "XtX", "mean/sums", "k0", "k1"]),
            min_size=n_records,
            max_size=n_records,
        )
    )
    values = draw(
        st.lists(
            st.integers(min_value=-50, max_value=50),
            min_size=n_records,
            max_size=n_records,
        )
    )
    records = list(zip(keys, values))
    n_splits = draw(st.integers(min_value=1, max_value=4))
    boundaries = sorted(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=n_records),
                min_size=n_splits - 1,
                max_size=n_splits - 1,
            )
        )
    )
    edges = [0, *boundaries, n_records]
    splits = [records[lo:hi] for lo, hi in zip(edges[:-1], edges[1:])]
    splits = [split for split in splits if split] or [records]
    mapper = draw(st.sampled_from(sorted(MAPPERS)))
    use_reducer = draw(st.booleans())
    use_combiner = use_reducer and draw(st.booleans())
    num_reducers = draw(st.integers(min_value=1, max_value=3))
    return splits, mapper, use_reducer, use_combiner, num_reducers


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


DATA = sp.random(240, 30, density=0.2, random_state=5, format="csr")

CONFIG = SPCAConfig(
    n_components=3, max_iterations=4, tolerance=0.0, seed=11,
    compute_error_every_iteration=False,
)


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


def test_spca_fine_granularity_matches_across_engines():
    # Six row blocks per split/partition: both engines stack them before
    # each kernel call, so MapReduce and Spark agree to summation order.
    model_mr, _ = fit_mapreduce(None)
    model_spark, _ = fit_spark(None)
    np.testing.assert_allclose(
        model_mr.components, model_spark.components, rtol=1e-8, atol=1e-10
    )


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
