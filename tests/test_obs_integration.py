"""End-to-end tracing through real fits on both engine simulators."""

import numpy as np
import pytest

from repro.backends import MapReduceBackend, SparkBackend
from repro.core import SPCA, HDFSCheckpointStore, SPCAConfig
from repro.core.ppca import fit_ppca
from repro.engine.mapreduce.hdfs import InMemoryHDFS
from repro.engine.mapreduce.runtime import MapReduceRuntime
from repro.engine.spark.context import SparkContext
from repro.errors import JobFailedError
from repro.faults import ExecutorLoss, FaultPlan, KillTask, PlannedFaults, Straggler
from repro.obs import tracing
from repro.obs.export import TraceData
from repro.obs.report import (
    format_iteration_table,
    format_job_table,
    format_phase_table,
    iteration_groups,
    reconcile,
    summarize,
)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(11)
    return rng.normal(size=(80, 14)) @ rng.normal(size=(14, 14))


def fit_traced(backend_cls, data, **config_kwargs):
    config = SPCAConfig(n_components=3, max_iterations=3, seed=0, **config_kwargs)
    backend = backend_cls(config)
    with tracing() as tracer:
        model, history = SPCA(config, backend).fit(data)
    metrics = (backend.runtime.metrics if hasattr(backend, "runtime")
               else backend.context.metrics)
    return TraceData.from_tracer(tracer), metrics, history, backend


@pytest.mark.parametrize("backend_cls", [MapReduceBackend, SparkBackend])
class TestBothBackends:
    def test_trace_reconciles_exactly_with_engine_metrics(self, backend_cls, data):
        trace, metrics, history, _ = fit_traced(backend_cls, data)
        assert reconcile(trace, metrics) == []

    def test_iteration_span_per_em_iteration(self, backend_cls, data):
        trace, _, history, _ = fit_traced(backend_cls, data)
        spca_iters = [s for s in trace.spans
                      if s.kind == "iteration" and not s.name.startswith("ppca")]
        assert len(spca_iters) == history.n_iterations

    def test_iteration_spans_carry_convergence_telemetry(self, backend_cls, data):
        trace, _, _, _ = fit_traced(backend_cls, data)
        spca_iters = [s for s in trace.spans
                      if s.kind == "iteration" and not s.name.startswith("ppca")]
        first, *rest = spca_iters
        assert first.attrs["objective"] > 0
        assert first.attrs["convergence_delta"] is None
        assert first.attrs["subspace_delta"] >= 0
        for span in rest:
            assert span.attrs["convergence_delta"] >= 0
        bytes_seen = [s.attrs["intermediate_bytes"] for s in spca_iters]
        assert bytes_seen == sorted(bytes_seen)  # cumulative

    def test_run_span_encloses_everything(self, backend_cls, data):
        trace, _, history, _ = fit_traced(backend_cls, data)
        run = next(s for s in trace.spans if s.kind == "run")
        assert run.name.startswith("spca.fit[")
        assert run.attrs["n_iterations"] == history.n_iterations
        assert run.attrs["stop_reason"] == history.stop_reason
        sim_end = max(s.t0 + s.dur for s in trace.spans)
        assert run.t0 + run.dur == pytest.approx(sim_end)

    def test_every_job_span_has_a_phase_child(self, backend_cls, data):
        trace, _, _, _ = fit_traced(backend_cls, data)
        jobs = {s.span_id for s in trace.spans if s.kind == "job"}
        parents_of_phases = {s.parent_id for s in trace.spans if s.kind == "phase"}
        assert jobs <= parents_of_phases

    def test_tables_render(self, backend_cls, data):
        trace, _, _, _ = fit_traced(backend_cls, data)
        summary = summarize(trace)
        assert "TOTAL" in format_job_table(summary)
        assert "share" in format_phase_table(summary)
        assert "objective" in format_iteration_table(trace)


class TestMapReduceSpecifics:
    def test_map_and_shuffle_phases_present(self, data):
        trace, _, _, _ = fit_traced(MapReduceBackend, data)
        phase_names = {s.name for s in trace.spans if s.kind == "phase"}
        assert {"map", "shuffle"} <= phase_names
        assert any(e.type == "shuffle" for e in trace.events)
        assert any(e.type == "hdfs_read" for e in trace.events)

    def test_task_spans_sit_on_slots(self, data):
        trace, _, _, _ = fit_traced(MapReduceBackend, data)
        tasks = [s for s in trace.spans if s.kind == "task"]
        assert tasks
        assert all(s.track is not None and s.track >= 0 for s in tasks)


class TestSparkSpecifics:
    def test_broadcast_and_collect_events(self, data):
        trace, _, _, _ = fit_traced(SparkBackend, data)
        types = {e.type for e in trace.events}
        assert "broadcast" in types
        assert "driver_collect" in types
        assert "cache_hit" in types  # the cached input RDD is reused

    def test_cache_put_events_from_block_manager(self, data):
        trace, _, _, _ = fit_traced(SparkBackend, data)
        assert any(e.type == "cache_put" for e in trace.events)


class TestUntracedFitUnchanged:
    """Tracing must never perturb the simulation's accounting.

    Simulated *durations* are built from measured wall times and therefore
    jitter between any two runs (traced or not), so the comparison covers
    the deterministic side of the accounting: the job sequence and every
    byte column.
    """

    @pytest.mark.parametrize("backend_cls", [MapReduceBackend, SparkBackend])
    def test_identical_job_accounting_with_and_without_tracing(
        self, backend_cls, data
    ):
        config = SPCAConfig(n_components=3, max_iterations=3, seed=0)

        def run(traced):
            backend = backend_cls(config)
            if traced:
                with tracing():
                    SPCA(config, backend).fit(data)
            else:
                SPCA(config, backend).fit(data)
            metrics = (backend.runtime.metrics if hasattr(backend, "runtime")
                       else backend.context.metrics)
            return [
                (job.name, job.n_map_tasks, job.shuffle_bytes,
                 job.intermediate_bytes, job.hdfs_read_bytes,
                 job.hdfs_write_bytes, job.broadcast_bytes, job.task_retries)
                for job in metrics.jobs
            ]

        assert run(False) == run(True)


def fit_traced_with_plan(backend_cls, data, plan, checkpoint=None, config=None):
    config = config or SPCAConfig(n_components=3, max_iterations=3, seed=0)
    faults = PlannedFaults(plan)
    if backend_cls is MapReduceBackend:
        backend = MapReduceBackend(config, runtime=MapReduceRuntime(faults=faults))
        metrics = backend.runtime.metrics
    else:
        backend = SparkBackend(config, context=SparkContext(faults=faults))
        metrics = backend.context.metrics
    with tracing() as tracer:
        SPCA(config, backend).fit(data, checkpoint=checkpoint)
    return TraceData.from_tracer(tracer), metrics


class TestFaultTelemetry:
    """Injected faults surface as typed events that match the plan exactly."""

    PLAN = FaultPlan(
        events=(
            KillTask(job="YtXJob", attempts=2, occurrence=0),
            Straggler(job="YtXJob", factor=9.0, occurrence=0),
        )
    )

    @pytest.mark.parametrize("backend_cls", [MapReduceBackend, SparkBackend])
    def test_fault_injected_events_match_plan(self, backend_cls, data):
        trace, metrics = fit_traced_with_plan(backend_cls, data, self.PLAN)
        faults = [e for e in trace.events if e.type == "fault_injected"]
        kills = [e for e in faults if e.attrs["fault"] == "kill_task"]
        stragglers = [e for e in faults if e.attrs["fault"] == "straggler"]
        assert kills and stragglers
        assert all(e.attrs["job"] == "YtXJob" for e in kills)
        # attempts=2 means attempts 1 and 2 both die; attempt 3 succeeds.
        assert {e.attrs["attempt"] for e in kills} == {1, 2}
        assert all(e.attrs["job"] == "YtXJob" for e in stragglers)
        assert all(e.attrs["factor"] == 9.0 for e in stragglers)

    @pytest.mark.parametrize("backend_cls", [MapReduceBackend, SparkBackend])
    def test_task_retry_events_match_engine_counters(self, backend_cls, data):
        trace, metrics = fit_traced_with_plan(backend_cls, data, self.PLAN)
        retries = [e for e in trace.events if e.type == "task_retry"]
        assert len(retries) > 0
        assert sum(e.attrs["retries"] for e in retries) == sum(
            job.task_retries for job in metrics.jobs
        )

    @pytest.mark.parametrize("backend_cls", [MapReduceBackend, SparkBackend])
    def test_trace_still_reconciles_under_faults(self, backend_cls, data):
        trace, metrics = fit_traced_with_plan(backend_cls, data, self.PLAN)
        assert reconcile(trace, metrics) == []

    @pytest.mark.parametrize("backend_cls", [MapReduceBackend, SparkBackend])
    def test_big_straggler_triggers_speculative_kill(self, backend_cls, data):
        plan = FaultPlan(
            events=(Straggler(job="meanJob", task=0, factor=50.0, occurrence=0),)
        )
        trace, _ = fit_traced_with_plan(backend_cls, data, plan)
        assert any(e.type == "speculative_kill" for e in trace.events)

    def test_executor_loss_charges_lineage_recompute(self, data):
        plan = FaultPlan(events=(ExecutorLoss(job="YtXJob", executor=0, occurrence=0),))
        trace, metrics = fit_traced_with_plan(SparkBackend, data, plan)
        losses = [e for e in trace.events
                  if e.type == "fault_injected"
                  and e.attrs["fault"] == "executor_loss"]
        assert losses and losses[0].attrs["lost_blocks"] > 0
        assert any(e.type == "lineage_recompute" for e in trace.events)
        # Recomputing the lost partitions costs simulated time.
        assert metrics.total_recovery_sim_seconds > 0


class TestCheckpointTelemetry:
    @pytest.mark.parametrize("backend_cls", [MapReduceBackend, SparkBackend])
    def test_checkpoint_write_events_per_iteration(self, backend_cls, data):
        config = SPCAConfig(n_components=3, max_iterations=3, seed=0)
        backend = backend_cls(config)
        store = HDFSCheckpointStore(InMemoryHDFS())
        with tracing() as tracer:
            SPCA(config, backend).fit(data, checkpoint=store)
        trace = TraceData.from_tracer(tracer)
        writes = [e for e in trace.events if e.type == "checkpoint_write"]
        # The final iteration stops the run and is never snapshotted.
        assert [e.attrs["iteration"] for e in writes] == [1, 2]
        assert all(e.attrs["bytes"] > 0 for e in writes)
        # The snapshot I/O is visible in the engine accounting too.
        metrics = (backend.runtime.metrics if hasattr(backend, "runtime")
                   else backend.context.metrics)
        assert sum(
            job.hdfs_write_bytes for job in metrics.jobs
            if job.name == "checkpointJob"
        ) == sum(e.attrs["bytes"] for e in writes)

    def test_checkpoint_restore_event_on_resume(self, data):
        config = SPCAConfig(n_components=3, max_iterations=3, seed=0)
        store = HDFSCheckpointStore(InMemoryHDFS())
        plan = FaultPlan(events=(KillTask(job="YtXJob", occurrence=2, attempts=4),))
        killed = MapReduceBackend(config, runtime=MapReduceRuntime(
            faults=PlannedFaults(plan)))
        with pytest.raises(JobFailedError):
            SPCA(config, killed).fit(data, checkpoint=store)
        with tracing() as tracer:
            SPCA(config, MapReduceBackend(config)).resume(data, store)
        trace = TraceData.from_tracer(tracer)
        restores = [e for e in trace.events if e.type == "checkpoint_restore"]
        assert len(restores) == 1
        assert restores[0].attrs["iteration"] == 2
        run = next(s for s in trace.spans if s.kind == "run")
        assert run.name.startswith("spca.resume[")


class TestRegistryReconciliation:
    """Trace, EngineMetrics, and the metrics registry must agree exactly.

    The registry is fed through the single ``EngineMetrics.record`` funnel,
    so the three views of a run are the same numbers by construction --
    these tests pin that: float-exact simulated-second sums, integer-exact
    byte counts, on both engines under both a serial and a process
    executor.
    """

    def fit_collected(self, backend_cls, data, executor_name="serial"):
        from repro.engine.exec import make_executor
        from repro.obs.metrics import collecting

        config = SPCAConfig(n_components=3, max_iterations=3, seed=0)
        executor = make_executor(executor_name, workers=2)
        try:
            if backend_cls is MapReduceBackend:
                backend = MapReduceBackend(
                    config, runtime=MapReduceRuntime(executor=executor))
                metrics = backend.runtime.metrics
            else:
                backend = SparkBackend(
                    config, context=SparkContext(executor=executor))
                metrics = backend.context.metrics
            with collecting() as registry:
                with tracing() as tracer:
                    SPCA(config, backend).fit(data)
                snapshot = registry.snapshot()
        finally:
            executor.shutdown()
        return TraceData.from_tracer(tracer), metrics, snapshot

    @pytest.mark.parametrize("backend_cls", [MapReduceBackend, SparkBackend])
    @pytest.mark.parametrize("executor_name", ["serial", "processes"])
    def test_three_way_exact_reconciliation(
        self, backend_cls, data, executor_name
    ):
        from repro.obs.metrics import reconcile_registry

        trace, metrics, snapshot = self.fit_collected(
            backend_cls, data, executor_name)
        assert reconcile(trace, metrics) == []
        assert reconcile_registry(snapshot, metrics) == []

    @pytest.mark.parametrize("backend_cls", [MapReduceBackend, SparkBackend])
    def test_registry_histogram_percentiles_are_exact(self, backend_cls, data):
        _, metrics, snapshot = self.fit_collected(backend_cls, data)
        sim = next(h for h in snapshot["histograms"]
                   if h["name"] == "spca_job_sim_seconds" and not h["labels"])
        assert sim["exact"] is True
        durations = sorted(job.sim_seconds for job in metrics.jobs)
        assert sorted(sim["values"]) == durations
        assert sim["p50"] in durations

    @pytest.mark.parametrize("backend_cls", [MapReduceBackend, SparkBackend])
    def test_em_iteration_instruments_present(self, backend_cls, data):
        _, _, snapshot = self.fit_collected(backend_cls, data)
        counters = {c["name"]: c["value"] for c in snapshot["counters"]
                    if not c["labels"]}
        assert counters["spca_em_iterations_total"] == 3
        gauges = {g["name"]: g["value"] for g in snapshot["gauges"]
                  if not g["labels"]}
        assert gauges["spca_em_iteration"] == 3
        assert gauges["spca_em_objective"] > 0

    def test_spark_cache_hit_counting_matches_trace_events(self, data):
        trace, _, snapshot = self.fit_collected(SparkBackend, data)
        counters = {c["name"]: c["value"] for c in snapshot["counters"]}
        trace_hits = sum(1 for e in trace.events if e.type == "cache_hit")
        assert counters["spca_cache_hits_total"] == trace_hits
        assert counters["spca_cache_puts_total"] == sum(
            1 for e in trace.events if e.type == "cache_put")

    def test_cache_accounting_identical_serial_vs_processes(self, data):
        def cache_counters(executor_name):
            _, _, snapshot = self.fit_collected(
                SparkBackend, data, executor_name)
            return {c["name"]: c["value"] for c in snapshot["counters"]
                    if c["name"].startswith("spca_cache_")}

        assert cache_counters("serial") == cache_counters("processes")

    @pytest.mark.parametrize("backend_cls", [MapReduceBackend, SparkBackend])
    def test_engine_metrics_to_dict_roundtrip(self, backend_cls, data):
        from repro.engine.metrics import EngineMetrics
        from repro.obs.metrics import METRICS_SCHEMA, reconcile_registry

        _, metrics, _ = self.fit_collected(backend_cls, data)
        payload = metrics.to_dict()
        assert payload["registry"]["schema"] == METRICS_SCHEMA
        # The embedded registry block reconciles against the same metrics.
        assert reconcile_registry(payload["registry"], metrics) == []
        rebuilt = EngineMetrics.from_dict(payload)
        assert rebuilt.jobs == metrics.jobs
        assert rebuilt.to_dict() == payload

    @pytest.mark.parametrize("backend_cls", [MapReduceBackend, SparkBackend])
    def test_registry_reconciles_under_faults(self, backend_cls, data):
        from repro.obs.metrics import collecting, reconcile_registry

        with collecting() as registry:
            _, metrics = fit_traced_with_plan(
                backend_cls, data, TestFaultTelemetry.PLAN)
            snapshot = registry.snapshot()
        assert reconcile_registry(snapshot, metrics) == []
        counters = {c["name"]: c["value"] for c in snapshot["counters"]}
        assert counters["spca_task_retries_total"] == sum(
            job.task_retries for job in metrics.jobs)


class TestPPCAIterationSpans:
    def test_standalone_ppca_traces_iterations(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(40, 8))
        with tracing() as tracer:
            fit_ppca(data, 2, max_iterations=5)
        iters = [s for s in tracer.spans if s.kind == "iteration"]
        assert iters
        assert all(s.name.startswith("ppca.iteration[") for s in iters)
        assert iters[0].attrs["convergence_delta"] is None
        assert iters[-1].attrs["objective"] > 0

    def test_smart_init_groups_separately_from_em_loop(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(120, 10))
        config = SPCAConfig(n_components=2, max_iterations=3, smart_init=True)
        with tracing() as tracer:
            SPCA(config).fit(data)
        groups = iteration_groups(TraceData.from_tracer(tracer))
        kinds = [
            {span.name.split("[")[0] for span in spans}
            for spans in groups.values()
        ]
        assert {"ppca.iteration"} in kinds
        assert {"iteration"} in kinds
