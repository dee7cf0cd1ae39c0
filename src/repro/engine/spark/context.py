"""SparkContext: the driver's entry point, plus broadcasts and accumulators."""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

import numpy as np

from repro.engine.cluster import ClusterSpec
from repro.engine.exec import TaskExecutor, resolve_executor
from repro.engine.metrics import EngineMetrics, JobStats
from repro.engine.serde import sizeof
from repro.engine.simtime import (
    SPARK_LIKE_COSTS,
    CostModel,
    apply_speculative_execution,
    schedule_tasks,
)
from repro.engine.spark.memory import BlockManager, DriverMemoryMonitor
from repro.errors import InvalidPlanError, JobFailedError
from repro.faults import FaultInjector, FaultSite, RandomFaults
from repro.obs import (
    EventTrace,
    JobTrace,
    PhaseTrace,
    TaskTrace,
    get_tracer,
    record_job_stats,
)
from repro.obs.metrics import count_cache_hit, get_registry


class Broadcast:
    """A read-only value shipped once to every node (Section 4.2).

    sPCA broadcasts the small matrices (CM, Ym, Xm, C) so that workers can
    run the in-memory multiplication of Section 3.3.
    """

    def __init__(self, value: Any, nbytes: int):
        self._value = value
        self.nbytes = nbytes

    @property
    def value(self) -> Any:
        return self._value


class Accumulator:
    """An add-only shared variable; workers add, only the driver reads.

    ``add`` merges with the user-supplied associative operation and charges
    the serialized size of each added update as network traffic to the
    running stage -- so passing a *sparse* partial result genuinely reduces
    the measured communication, which is exactly the YtX optimization the
    paper describes at the end of Section 4.2.
    """

    def __init__(self, zero: Any, add_op: Callable[[Any, Any], Any], context: "SparkContext"):
        self._value = zero
        self._add_op = add_op
        self._context = context
        self.updates = 0
        self.bytes_added = 0

    def add(self, update: Any) -> None:
        # Inside a running task, updates are staged and committed only if
        # the task succeeds -- Spark's exactly-once accumulator guarantee
        # for actions.  Outside any task (driver code), apply directly.
        if not self._context._stage_accumulator_update(self, update):
            self._apply(update)

    def _apply(self, update: Any) -> None:
        self._value = self._add_op(self._value, update)
        nbytes = sizeof(update)
        self.updates += 1
        self.bytes_added += nbytes
        self._context._charge_accumulator_bytes(nbytes)

    @property
    def value(self) -> Any:
        """Driver-side read of the accumulated value."""
        return self._value


@dataclass
class _TaskScope:
    """Everything one concurrently-executing task attempt may observe/effect.

    Concurrent attempts must not touch shared driver state, so each attempt
    runs against a scope: a shadow ``JobStats`` for byte charges, deferred
    trace events, deferred cache puts (with a local overlay so the attempt
    sees its own puts), staged accumulator updates, and the lineage-recompute
    clock.  The driver commits scopes in task-index order, which is what
    makes concurrent execution bit-identical to the serial loop.
    """

    stats: JobStats
    events: list[tuple[str, dict[str, Any]]] = field(default_factory=list)
    fault_labels: list[str] = field(default_factory=list)
    puts: list[tuple[int, int, list, int]] = field(default_factory=list)
    overlay: dict[tuple[int, int], tuple[list, int]] = field(default_factory=dict)
    pending_updates: list[tuple["Accumulator", Any]] = field(default_factory=list)
    # Lost cached blocks this task recomputed: staged here (shared across
    # the task's retry attempts) instead of discarded from the context's
    # shared set mid-flight, which would race with sibling tasks reading it.
    # The driver applies the discards at commit.
    lost_discards: set[tuple[int, int]] = field(default_factory=set)
    recompute_seconds: float = 0.0
    recompute_depth: int = 0


@dataclass
class _ScopedAttempt:
    """One finished attempt of a scoped task, awaiting ordered commit."""

    scope: _TaskScope
    elapsed: float
    recompute: float
    label: str | None
    result: Any


class SparkContext:
    """Driver entry point: creates RDDs, broadcasts, accumulators.

    Args:
        cluster: simulated hardware (defaults to the paper's 8x8-core setup).
        cost_model: simulated-time parameters (Spark-like defaults).
        failure_rate: per-partition-computation failure probability; failed
            partitions are recomputed from lineage, as real Spark does.
            Shorthand for a :class:`~repro.faults.RandomFaults` injector.
        seed: seed for failure injection.
        faults: a :class:`~repro.faults.FaultInjector` consulted at every
            task attempt and stage start; overrides ``failure_rate``/``seed``
            (which build the default ``RandomFaults(failure_rate, seed)``,
            bit-compatible with the historical inline coin flip).  Stage
            directives can lose an executor (its cached blocks recompute
            from lineage, charged as recovery time) or cap the driver heap.
        executor: a :class:`~repro.engine.exec.TaskExecutor`, an executor
            name (``serial``/``threads``/``processes``), or None for serial.
            Concurrent executors evaluate a stage's partitions in parallel
            and commit their side effects in partition-index order, keeping
            results, counters, byte totals, and trace-event multisets
            identical to serial.  Spark's partition functions are closures,
            which no pickle pipe can carry, so a ``processes`` executor runs
            stages on its thread-pool sibling (``closure_executor()``); the
            dispatch events carry a ``fallback_from`` marker.
        workers: worker count when ``executor`` is given by name.
    """

    def __init__(
        self,
        cluster: ClusterSpec | None = None,
        cost_model: CostModel = SPARK_LIKE_COSTS,
        failure_rate: float = 0.0,
        max_task_attempts: int = 4,
        seed: int = 0,
        faults: FaultInjector | None = None,
        executor: TaskExecutor | str | None = None,
        workers: int | None = None,
    ):
        if not 0.0 <= failure_rate < 1.0:
            raise InvalidPlanError(f"failure_rate must be in [0, 1), got {failure_rate}")
        self.cluster = cluster or ClusterSpec()
        self.cost_model = cost_model
        self.failure_rate = failure_rate
        self.max_task_attempts = max_task_attempts
        self.metrics = EngineMetrics()
        self.driver = DriverMemoryMonitor(self.cluster.driver_memory_bytes)
        self.block_manager = BlockManager(self.cluster.aggregate_memory_bytes)
        self.faults = faults if faults is not None else RandomFaults(failure_rate, seed)
        self._next_rdd_id = 0
        self._stage_stats: JobStats | None = None
        self._pending_updates: list[tuple[Accumulator, Any]] | None = None
        # Lineage-recovery bookkeeping: cached blocks an injected executor
        # loss destroyed (their recomputation is charged as recovery time),
        # the put journal of the task attempt in flight (rolled back when
        # the attempt fails), and the recompute clock RDD._iterator bills.
        self._lost_blocks: set[tuple[int, int]] = set()
        self._put_journal: list[tuple[int, int]] | None = None
        self._recompute_seconds = 0.0
        self._recompute_depth = 0
        self.executor = resolve_executor(executor, workers)
        # Concurrent task attempts register a _TaskScope here; driver-side
        # code (and the serial path) sees no scope and uses the fields above.
        self._task_local = threading.local()

    def _active_scope(self) -> _TaskScope | None:
        return getattr(self._task_local, "scope", None)

    # -- RDD creation ----------------------------------------------------

    def parallelize(self, items: Iterable[Any], num_partitions: int | None = None):
        from repro.engine.spark.rdd import RDD

        items = list(items)
        if not items:
            raise InvalidPlanError("cannot parallelize an empty collection")
        if num_partitions is None:
            num_partitions = min(self.cluster.total_cores, len(items))
        if num_partitions < 1:
            raise InvalidPlanError(f"num_partitions must be >= 1, got {num_partitions}")
        num_partitions = min(num_partitions, len(items))
        boundaries = np.linspace(0, len(items), num_partitions + 1, dtype=int)
        partitions = [
            items[lo:hi] for lo, hi in zip(boundaries[:-1], boundaries[1:]) if hi > lo
        ]
        return RDD._from_partitions(self, partitions)

    def from_hdfs(self, hdfs, path: str, num_partitions: int | None = None):
        """Create an RDD from a dataset in the simulated distributed FS.

        Mirrors ``sc.textFile``: the read is charged to the filesystem's
        counters and, as simulated disk time, to the first stage that
        materializes the RDD's partitions.
        """
        from repro.engine.spark.rdd import RDD

        records = hdfs.read(path)
        nbytes = hdfs.size(path)
        rdd = self.parallelize(records, num_partitions)
        read_stats = JobStats(name="hdfsRead", hdfs_read_bytes=nbytes)
        read_stats.sim_seconds = self.cost_model.disk_seconds(nbytes)
        record_job_stats(
            self.metrics, read_stats, phase_name="hdfs read",
            events=[EventTrace("hdfs_read", 0.0, {"bytes": nbytes, "path": path})],
        )
        return rdd

    def save_to_hdfs(self, rdd, hdfs, path: str) -> int:
        """Collect *rdd* and write it to the simulated distributed FS.

        Mirrors ``rdd.saveAsTextFile``: each partition's records are
        written out; the write is charged as disk time.  Returns the
        logical byte size written.
        """
        records = rdd.collect()
        nbytes = hdfs.write(path, [(i, record) for i, record in enumerate(records)])
        write_stats = JobStats(name="hdfsWrite", hdfs_write_bytes=nbytes)
        write_stats.sim_seconds = self.cost_model.disk_seconds(nbytes)
        record_job_stats(
            self.metrics, write_stats, phase_name="hdfs write",
            events=[EventTrace("hdfs_write", 0.0, {"bytes": nbytes, "path": path})],
        )
        return nbytes

    # -- shared variables -------------------------------------------------

    def broadcast(self, value: Any) -> Broadcast:
        """Ship *value* to every node, charging one copy per node."""
        nbytes = sizeof(value)
        total = nbytes * self.cluster.num_nodes
        stats = JobStats(name="broadcast", broadcast_bytes=total)
        stats.sim_seconds = self.cost_model.network_seconds(total)
        record_job_stats(
            self.metrics, stats, phase_name="broadcast transfer",
            events=[EventTrace("broadcast", 0.0,
                               {"bytes": total, "per_node_bytes": nbytes})],
        )
        return Broadcast(value, nbytes)

    def accumulator(
        self, zero: Any, add_op: Callable[[Any, Any], Any] | None = None
    ) -> Accumulator:
        if add_op is None:
            add_op = lambda a, b: a + b
        return Accumulator(zero, add_op, self)

    # -- job execution (used by RDD actions) ------------------------------

    def new_rdd_id(self) -> int:
        rdd_id = self._next_rdd_id
        self._next_rdd_id += 1
        return rdd_id

    def run_job(self, rdd, partition_fn: Callable[[list], Any], name: str) -> list[Any]:
        """Evaluate *partition_fn* over every partition of *rdd*.

        This is the engine's stage executor: it measures per-partition
        compute time, injects failures (recomputing from lineage on
        failure), charges result bytes as driver traffic, and converts it
        all into simulated seconds.
        """
        stats = JobStats(name=name, n_map_tasks=rdd.num_partitions)
        self._apply_stage_directives(self.faults.begin_job("spark", name), stats)
        previous = self._stage_stats
        self._stage_stats = stats
        started = time.perf_counter()
        results = []
        task_seconds = []
        recovery_seconds = []
        task_retries = []
        try:
            if self.executor.serial:
                for split in range(rdd.num_partitions):
                    result, seconds, recovery, retries = self._attempt_partition(
                        rdd, split, partition_fn, stats
                    )
                    results.append(result)
                    task_seconds.append(seconds)
                    recovery_seconds.append(recovery)
                    task_retries.append(retries)
            else:
                # Fault decisions precomputed per partition in index order
                # (the serial loop's draw order); pure scoped execution on
                # the executor; side effects committed in index order below.
                plans = [
                    self.faults.plan_task(
                        FaultSite("spark", name, "task", split, 0),
                        self.max_task_attempts,
                    )
                    for split in range(rdd.num_partitions)
                ]

                def run_one(split: int) -> list[_ScopedAttempt]:
                    return self._execute_partition_scoped(
                        rdd, split, partition_fn, name, plans[split]
                    )

                attempt_lists = self.executor.closure_executor().run_tasks(
                    run_one, list(range(rdd.num_partitions)), label=name
                )
                for split, attempts in enumerate(attempt_lists):
                    result, seconds, recovery, retries = (
                        self._commit_scoped_attempts(attempts, stats, split)
                    )
                    results.append(result)
                    task_seconds.append(seconds)
                    recovery_seconds.append(recovery)
                    task_retries.append(retries)
        finally:
            self._stage_stats = previous
        result_bytes = sizeof(results)
        stats.driver_result_bytes = result_bytes + stats.driver_result_bytes
        self.driver.transient(result_bytes, what=f"results of {name}")
        stats.wall_seconds = time.perf_counter() - started
        cost = self.cost_model
        capped = apply_speculative_execution(task_seconds)
        # Recovery time (failed attempts redone, lost cached partitions
        # recomputed from lineage) is charged on top of the capped useful
        # time: a speculative copy of a task cannot refund the work the
        # fault already wasted.
        tasks = [
            t * cost.compute_scale
            + cost.per_task_overhead_s
            + recovery_seconds[i] * cost.compute_scale
            for i, t in enumerate(capped)
        ]
        stats.recovery_sim_seconds = sum(recovery_seconds) * cost.compute_scale
        schedule = schedule_tasks(tasks, self.cluster.total_cores)
        seconds = cost.per_job_overhead_s
        tasks_start = seconds
        seconds += max((p.end for p in schedule), default=0.0)
        collect_start = seconds
        seconds += cost.network_seconds(stats.driver_result_bytes)
        spill_start = seconds
        seconds += cost.disk_seconds(stats.hdfs_read_bytes)
        stats.sim_seconds = seconds

        tracer = get_tracer()
        if tracer.enabled:
            placed = [
                TaskTrace(
                    task_id=p.task_id, slot=p.slot, start=p.start,
                    duration=p.duration, retries=task_retries[p.task_id],
                    speculative_kill=capped[p.task_id] < task_seconds[p.task_id],
                    wall_seconds=task_seconds[p.task_id],
                )
                for p in schedule
            ]
            phases = [
                PhaseTrace("stage init", 0.0, tasks_start),
                PhaseTrace("tasks", tasks_start, collect_start - tasks_start,
                           tasks=placed),
            ]
            events = []
            if stats.driver_result_bytes:
                phases.append(
                    PhaseTrace("driver collect", collect_start,
                               spill_start - collect_start,
                               attrs={"bytes": stats.driver_result_bytes})
                )
                events.append(
                    EventTrace("driver_collect", collect_start,
                               {"bytes": stats.driver_result_bytes})
                )
            if stats.hdfs_read_bytes:
                phases.append(
                    PhaseTrace("cache spill read", spill_start,
                               seconds - spill_start,
                               attrs={"bytes": stats.hdfs_read_bytes})
                )
                events.append(
                    EventTrace("hdfs_read", spill_start,
                               {"bytes": stats.hdfs_read_bytes})
                )
            tracer.record_job(JobTrace.from_stats(stats, phases=phases, events=events))
        self.metrics.record(stats)
        return results

    def _attempt_partition(
        self, rdd, split, partition_fn, stats
    ) -> tuple[Any, float, float, int]:
        """Run one partition, retrying on injected faults.

        Returns ``(result, success_seconds, recovery_seconds, retries)``:
        the successful attempt's own compute time (what speculative
        execution may cap) separated from the recovery time -- failed
        attempts plus lineage recomputation of lost cached blocks, which
        no speculative copy can refund.
        """
        tracer = get_tracer()
        recovery_seconds = 0.0
        for attempt in range(1, self.max_task_attempts + 1):
            self._pending_updates = []
            self._put_journal = []
            self._recompute_seconds = 0.0
            started = time.perf_counter()
            data = rdd._iterator(split, stats)
            result = partition_fn(data)
            elapsed = time.perf_counter() - started
            site = FaultSite("spark", stats.name, "task", split, attempt)
            factor = self.faults.time_factor(site)
            if factor != 1.0:
                elapsed *= factor
                stats.count_fault("straggler")
                if tracer.enabled:
                    tracer.event(
                        "fault_injected", fault="straggler", job=stats.name,
                        kind="task", task=split, attempt=attempt, factor=factor,
                    )
            recompute = min(self._recompute_seconds, elapsed)
            label = self.faults.fail(site)
            if label is None:
                pending, self._pending_updates = self._pending_updates, None
                self._put_journal = None
                for accumulator, update in pending:
                    accumulator._apply(update)
                recovery_seconds += recompute
                return result, elapsed - recompute, recovery_seconds, attempt - 1
            # The attempt failed after doing its work: its cached puts are
            # rolled back (the executor that held them died with the task)
            # and all of its time becomes recovery time.
            journal, self._put_journal = self._put_journal, None
            for rdd_id, journal_split in journal:
                self.block_manager.evict_matching(
                    lambda key, k=(rdd_id, journal_split): key == k
                )
            self._pending_updates = None
            stats.task_retries += 1
            stats.count_fault(label)
            recovery_seconds += elapsed
            if tracer.enabled:
                tracer.event(
                    "fault_injected", fault=label, job=stats.name,
                    kind="task", task=split, attempt=attempt,
                )
        raise JobFailedError(
            f"stage {stats.name!r}: partition {split} failed "
            f"{self.max_task_attempts} times"
        )

    # -- concurrent stage execution ---------------------------------------

    def _execute_partition_scoped(
        self, rdd, split: int, partition_fn, job_name: str, plan
    ) -> list[_ScopedAttempt]:
        """Run one partition's retry loop under task scopes (executor side).

        Pure with respect to driver state: every observable lands in the
        attempt's :class:`_TaskScope` and is committed by the driver in
        partition-index order.
        """
        tracer = get_tracer()
        attempts: list[_ScopedAttempt] = []
        # One discard set for the whole retry loop: a block recomputed by a
        # failed attempt is no longer "lost" for the retry, exactly as the
        # serial loop's immediate discard behaved.
        lost_discards: set[tuple[int, int]] = set()
        for attempt, (factor, label) in enumerate(plan, 1):
            scope = _TaskScope(
                stats=JobStats(name=job_name), lost_discards=lost_discards
            )
            self._task_local.scope = scope
            started = time.perf_counter()
            try:
                data = rdd._iterator(split, scope.stats)
                result = partition_fn(data)
            finally:
                self._task_local.scope = None
            elapsed = time.perf_counter() - started
            if factor != 1.0:
                elapsed *= factor
                scope.fault_labels.append("straggler")
                if tracer.enabled:
                    scope.events.append((
                        "fault_injected",
                        dict(fault="straggler", job=job_name, kind="task",
                             task=split, attempt=attempt, factor=factor),
                    ))
            recompute = min(scope.recompute_seconds, elapsed)
            if label is None:
                attempts.append(
                    _ScopedAttempt(scope, elapsed, recompute, None, result)
                )
                return attempts
            scope.fault_labels.append(label)
            if tracer.enabled:
                scope.events.append((
                    "fault_injected",
                    dict(fault=label, job=job_name, kind="task",
                         task=split, attempt=attempt),
                ))
            attempts.append(_ScopedAttempt(scope, elapsed, recompute, label, None))
        return attempts

    def _commit_scoped_attempts(
        self, attempts: list[_ScopedAttempt], stats: JobStats, split: int
    ) -> tuple[Any, float, float, int]:
        """Apply one task's scoped attempts to driver state, in order.

        Mirrors the serial :meth:`_attempt_partition` effect-for-effect: a
        failed attempt's cache puts are applied then evicted (the same
        put/evict churn and trace events the serial rollback produced), its
        time becomes recovery time; the successful attempt commits its puts
        and staged accumulator updates.
        """
        tracer = get_tracer()
        registry = get_registry()
        recovery_seconds = 0.0
        for retries, outcome in enumerate(attempts):
            scope = outcome.scope
            # Idempotent: every attempt of the task shares one discard set.
            self._lost_blocks.difference_update(scope.lost_discards)
            # Replay the attempt's buffered events into both sinks here on
            # the driver thread (tasks never touch tracer/registry directly).
            for event_type, attrs in scope.events:
                if tracer.enabled:
                    tracer.event(event_type, **attrs)
                if registry.enabled and event_type == "cache_hit":
                    count_cache_hit(registry, int(attrs.get("bytes", 0)))
            for label in scope.fault_labels:
                stats.count_fault(label)
            stats.hdfs_read_bytes += scope.stats.hdfs_read_bytes
            stats.shuffle_bytes += scope.stats.shuffle_bytes
            for rdd_id, put_split, data, nbytes in scope.puts:
                self.block_manager.put(rdd_id, put_split, data, nbytes)
            if outcome.label is None:
                for accumulator, update in scope.pending_updates:
                    accumulator._apply(update)
                recovery_seconds += outcome.recompute
                return (
                    outcome.result,
                    outcome.elapsed - outcome.recompute,
                    recovery_seconds,
                    retries,
                )
            for rdd_id, put_split, _data, _nbytes in scope.puts:
                self.block_manager.evict_matching(
                    lambda key, k=(rdd_id, put_split): key == k
                )
            stats.task_retries += 1
            recovery_seconds += outcome.elapsed
        raise JobFailedError(
            f"stage {stats.name!r}: partition {split} failed "
            f"{self.max_task_attempts} times"
        )

    def _apply_stage_directives(self, directives, stats: JobStats) -> None:
        """Apply stage-start fault directives (executor loss, driver cap)."""
        for executor in directives.executor_losses:
            self._lose_executor(executor, stats)
        if directives.driver_memory_cap is not None:
            cap = min(self.driver.limit_bytes, int(directives.driver_memory_cap))
            self.driver.limit_bytes = cap
            stats.count_fault("driver_memory_cap")
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event(
                    "fault_injected", fault="driver_memory_cap",
                    job=stats.name, limit_bytes=cap,
                )

    def _lose_executor(self, executor: int, stats: JobStats) -> None:
        """Drop every cached block hosted on *executor*.

        Blocks live on node ``split % num_nodes`` (the same placement the
        scheduler uses); the lost ones are marked so RDD._iterator charges
        their lineage recomputation as recovery time.
        """
        nodes = self.cluster.num_nodes
        evicted = self.block_manager.evict_matching(
            lambda key: key[1] % nodes == executor % nodes
        )
        for key, _nbytes, _on_disk in evicted:
            self._lost_blocks.add(key)
        stats.count_fault("executor_loss")
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "fault_injected", fault="executor_loss", job=stats.name,
                executor=executor % nodes, lost_blocks=len(evicted),
                lost_bytes=sum(nbytes for _k, nbytes, _d in evicted),
            )

    def _journal_put(self, rdd_id: int, split: int) -> None:
        """Record a cache put by the in-flight task attempt (for rollback)."""
        if self._put_journal is not None:
            self._put_journal.append((rdd_id, split))

    def _stage_accumulator_update(self, accumulator: Accumulator, update: Any) -> bool:
        """Buffer an in-task accumulator update; False when no task runs."""
        scope = self._active_scope()
        if scope is not None:
            scope.pending_updates.append((accumulator, update))
            return True
        if self._pending_updates is None:
            return False
        self._pending_updates.append((accumulator, update))
        return True

    def _charge_accumulator_bytes(self, nbytes: int) -> None:
        if self._stage_stats is not None:
            self._stage_stats.driver_result_bytes += nbytes
