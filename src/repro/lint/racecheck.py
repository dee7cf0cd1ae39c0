"""Dynamic race detection for the execute/commit protocol.

The static EX rules check one module at a time; this harness checks the
*running* system.  It wraps an engine's executor in an instrumented shadow,
records every access to driver-visible shared state (``BlockManager``,
``EngineMetrics``, fault counters, accumulators, the lost-block set) with
the identity of the task that made it, and builds a happens-before relation
from the execute/commit split:

- each ``run_tasks`` batch is one **epoch**; tasks inside an epoch are
  mutually concurrent (no ordering between them);
- driver code between epochs -- including the commit loop that replays task
  scopes in index order -- is ordered against every task, so its accesses
  can never race and are not recorded.

Any *write* to commit-ordered state from inside a task is therefore a
protocol violation on its own (the commit loop could interleave with it),
and two tasks touching the same key with at least one write is a race.

Process-pool note: instrumentation lives in driver-process memory, so the
checker shadows a ``processes`` executor with its in-process thread sibling
(``closure_executor()``).  That preserves the executor's concurrency
structure -- the property under test is the engines' scoped execute/commit
discipline, which is identical on both backends -- while keeping every
access observable.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from repro.engine.exec.base import TaskExecutor

#: Wildcard key: conflicts with every other key of the same object.
WILDCARD_KEY = "*"


@dataclass(frozen=True)
class Access:
    """One recorded touch of shared state by a running task."""

    epoch: int
    epoch_label: str
    task: int
    obj: str
    key: Any
    op: str  # "read" | "write"


@dataclass(frozen=True)
class RaceConflict:
    """One happens-before violation found by the analysis."""

    kind: str  # "unscoped-write" | "race"
    obj: str
    key: Any
    epoch_label: str
    tasks: tuple[int, ...]
    detail: str

    def render(self) -> str:
        tasks = ",".join(str(task) for task in self.tasks)
        return (
            f"racecheck: {self.kind} on {self.obj}[{self.key!r}] "
            f"during {self.epoch_label!r} (tasks {tasks}): {self.detail}"
        )


@dataclass
class RaceReport:
    """The conflicts one checked run produced."""

    label: str
    conflicts: list[RaceConflict] = field(default_factory=list)
    accesses: int = 0

    @property
    def clean(self) -> bool:
        return not self.conflicts


class RaceRecorder:
    """Collects per-task accesses; thread-safe; analysis is offline."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._accesses: list[Access] = []
        self._epoch = 0
        self._epoch_label = ""

    # -- identity ---------------------------------------------------------

    def begin_epoch(self, label: str) -> int:
        with self._lock:
            self._epoch += 1
            self._epoch_label = label
            return self._epoch

    def enter_task(self, task: int) -> None:
        self._tls.task = task

    def exit_task(self) -> None:
        self._tls.task = None

    def current_task(self) -> int | None:
        return getattr(self._tls, "task", None)

    # -- recording --------------------------------------------------------

    def record(self, obj: str, key: Any, op: str) -> None:
        """Record one access -- only when made from inside a task.

        Driver-side accesses (no active task) are ordered by the dispatch/
        join barriers against every task and by program order against each
        other, so they cannot participate in a race and are skipped.
        """
        task = self.current_task()
        if task is None:
            return
        with self._lock:
            self._accesses.append(
                Access(self._epoch, self._epoch_label, task, obj, key, op)
            )

    @property
    def accesses(self) -> list[Access]:
        with self._lock:
            return list(self._accesses)

    # -- analysis ---------------------------------------------------------

    def conflicts(self) -> list[RaceConflict]:
        """Apply the happens-before analysis to everything recorded."""
        found: list[RaceConflict] = []
        by_group: dict[tuple[int, str, Any], list[Access]] = {}
        wildcard: dict[tuple[int, str], list[Access]] = {}
        for access in self.accesses:
            if access.key == WILDCARD_KEY:
                wildcard.setdefault((access.epoch, access.obj), []).append(access)
            else:
                by_group.setdefault(
                    (access.epoch, access.obj, access.key), []
                ).append(access)

        reported: set[tuple[str, str, Any, str]] = set()

        def emit(kind: str, group: list[Access], detail: str) -> None:
            first = group[0]
            dedup = (kind, first.obj, first.key, first.epoch_label)
            if dedup in reported:
                return
            reported.add(dedup)
            found.append(
                RaceConflict(
                    kind=kind,
                    obj=first.obj,
                    key=first.key,
                    epoch_label=first.epoch_label,
                    tasks=tuple(sorted({access.task for access in group})),
                    detail=detail,
                )
            )

        # Every watched object is commit-ordered driver state.
        for group in by_group.values():
            writes = [access for access in group if access.op == "write"]
            tasks = {access.task for access in group}
            if writes:
                emit(
                    "unscoped-write",
                    writes,
                    "a task wrote commit-ordered driver state directly; "
                    "it must stage the effect in its scope for ordered "
                    "commit",
                )
                if len(tasks) > 1:
                    emit(
                        "race",
                        group,
                        "concurrent tasks touched the same key with at "
                        "least one unordered write",
                    )
        # A wildcard write (e.g. evict_matching with a predicate) conflicts
        # with any other task's access to the same object in the same epoch.
        for (epoch, obj), accesses in wildcard.items():
            emit_group = [a for a in accesses if a.op == "write"]
            if not emit_group:
                continue
            emit(
                "unscoped-write",
                emit_group,
                "a task performed a predicate-wide eviction on driver state",
            )
            others = [
                access
                for group_key, group in by_group.items()
                if group_key[0] == epoch and group_key[1] == obj
                for access in group
                if access.task not in {a.task for a in emit_group}
            ]
            if others:
                emit(
                    "race",
                    emit_group + others,
                    "a predicate-wide eviction raced with other tasks' "
                    "accesses to the same object",
                )
        found.sort(key=lambda c: (c.epoch_label, c.obj, repr(c.key), c.kind))
        return found


class RaceCheckExecutor(TaskExecutor):
    """Shadow executor: tags every task with its index for the recorder.

    Wraps an inner concurrent executor; a ``processes`` inner is replaced by
    its in-process thread sibling so the instrumented state stays observable
    (see the module docstring).
    """

    name = "racecheck"

    def __init__(self, inner: TaskExecutor, recorder: RaceRecorder):
        from repro.engine.exec.processes import ProcessPoolTaskExecutor

        if isinstance(inner, ProcessPoolTaskExecutor):
            inner = inner.closure_executor()
        super().__init__(workers=inner.workers)
        self.inner = inner
        self.recorder = recorder

    # The tagging wrapper is necessarily a closure over the recorder; the
    # inner executor is guaranteed in-process (__init__ swaps a processes
    # inner for its thread sibling), so it never meets a pickle pipe.
    def run_tasks(  # repro-lint: disable=EX002
        self,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        label: str = "tasks",
    ) -> list[Any]:
        self.recorder.begin_epoch(label)
        recorder = self.recorder

        def tagged(indexed: tuple[int, Any]) -> Any:
            index, payload = indexed
            recorder.enter_task(index)
            try:
                return fn(payload)
            finally:
                recorder.exit_task()

        return self.inner.run_tasks(tagged, list(enumerate(payloads)), label=label)

    def closure_executor(self) -> TaskExecutor:
        return self

    def shutdown(self) -> None:
        self.inner.shutdown()
        super().shutdown()


class _WatchedSet(set):
    """A set that reports membership tests and mutations to the recorder."""

    def __init__(self, items: Iterator[Any], recorder: RaceRecorder, obj: str):
        super().__init__(items)
        self._recorder = recorder
        self._obj = obj

    def __contains__(self, key: Any) -> bool:
        self._recorder.record(self._obj, key, "read")
        return super().__contains__(key)

    def add(self, key: Any) -> None:
        self._recorder.record(self._obj, key, "write")
        super().add(key)

    def discard(self, key: Any) -> None:
        self._recorder.record(self._obj, key, "write")
        super().discard(key)

    def remove(self, key: Any) -> None:
        self._recorder.record(self._obj, key, "write")
        super().remove(key)

    def difference_update(self, *others: Any) -> None:
        for other in others:
            for key in other:
                self._recorder.record(self._obj, key, "write")
        super().difference_update(*others)


class RaceChecker:
    """Context manager: instrument one engine and collect its conflicts.

    Accepts a :class:`~repro.engine.spark.context.SparkContext` or a
    :class:`~repro.engine.mapreduce.runtime.MapReduceRuntime` (anything with
    an ``executor`` attribute).  While active:

    - the engine's executor is swapped for a :class:`RaceCheckExecutor`;
    - ``BlockManager`` puts/gets/evictions, ``EngineMetrics.record``,
      ``JobStats.count_fault``, and ``Accumulator._apply`` are patched
      class-wide to report to the recorder;
    - a Spark context's lost-block set is wrapped to record membership
      tests and mutations.

    Everything is restored on exit; call :meth:`report` afterwards.
    """

    def __init__(self, engine: Any, label: str = "racecheck"):
        self.engine = engine
        self.label = label
        self.recorder = RaceRecorder()
        self._patches: list[tuple[Any, str, Any]] = []
        self._saved_executor: TaskExecutor | None = None
        self._saved_lost_blocks: set | None = None

    # -- instrumentation ---------------------------------------------------

    def _patch(self, owner: Any, name: str, wrapper_factory: Callable) -> None:
        original = getattr(owner, name)
        setattr(owner, name, wrapper_factory(original))
        self._patches.append((owner, name, original))

    def __enter__(self) -> "RaceChecker":
        from repro.engine.metrics import EngineMetrics, JobStats
        from repro.engine.spark.context import Accumulator, SparkContext
        from repro.engine.spark.memory import BlockManager

        recorder = self.recorder

        def wrap_put(original):
            def put(self, rdd_id, split, data, nbytes):
                recorder.record("BlockManager", (rdd_id, split), "write")
                return original(self, rdd_id, split, data, nbytes)

            return put

        def wrap_get(original):
            def get(self, rdd_id, split):
                recorder.record("BlockManager", (rdd_id, split), "read")
                return original(self, rdd_id, split)

            return get

        def wrap_evict_matching(original):
            def evict_matching(self, predicate):
                recorder.record("BlockManager", WILDCARD_KEY, "write")
                return original(self, predicate)

            return evict_matching

        def wrap_record(original):
            def record(self, stats):
                recorder.record("EngineMetrics", "jobs", "write")
                return original(self, stats)

            return record

        def wrap_count_fault(original):
            def count_fault(self, label):
                recorder.record("JobStats.faults", (id(self), label), "write")
                return original(self, label)

            return count_fault

        def wrap_apply(original):
            def _apply(self, update):
                recorder.record("Accumulator", id(self), "write")
                return original(self, update)

            return _apply

        self._patch(BlockManager, "put", wrap_put)
        self._patch(BlockManager, "get", wrap_get)
        self._patch(BlockManager, "evict_matching", wrap_evict_matching)
        self._patch(EngineMetrics, "record", wrap_record)
        self._patch(JobStats, "count_fault", wrap_count_fault)
        self._patch(Accumulator, "_apply", wrap_apply)

        self._saved_executor = self.engine.executor
        self.engine.executor = RaceCheckExecutor(self._saved_executor, recorder)

        if isinstance(self.engine, SparkContext):
            self._saved_lost_blocks = self.engine._lost_blocks
            self.engine._lost_blocks = _WatchedSet(
                self._saved_lost_blocks, recorder, "lost_blocks"
            )
        return self

    def __exit__(self, *exc_info: Any) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        if self._saved_executor is not None:
            # The shadow only borrowed the inner executor: hand it back
            # without shutting it down.
            self.engine.executor = self._saved_executor
            self._saved_executor = None
        if self._saved_lost_blocks is not None:
            self._saved_lost_blocks.clear()
            self._saved_lost_blocks.update(self.engine._lost_blocks)
            self.engine._lost_blocks = self._saved_lost_blocks
            self._saved_lost_blocks = None

    # -- results -----------------------------------------------------------

    def report(self) -> RaceReport:
        return RaceReport(
            label=self.label,
            conflicts=self.recorder.conflicts(),
            accesses=len(self.recorder.accesses),
        )


def run_spca_racecheck(
    executor_name: str = "threads",
    workers: int = 4,
    n_samples: int = 96,
    n_features: int = 12,
    n_components: int = 3,
    max_iterations: int = 3,
) -> list[RaceReport]:
    """Run a small sPCA fit per engine under the race checker.

    The CLI's ``--racecheck`` smoke and the CI leg both call this; a clean
    pass means the scoped execute/commit discipline held for every shared
    object the checker watches, on a fit exercising caching, broadcast,
    accumulators, shuffles, and the executor dispatch path.
    """
    import numpy as np

    from repro.backends.mapreduce import MapReduceBackend
    from repro.backends.spark import SparkBackend
    from repro.core import SPCA, SPCAConfig
    from repro.engine.exec import make_executor
    from repro.engine.mapreduce.runtime import MapReduceRuntime
    from repro.engine.spark.context import SparkContext

    rng = np.random.default_rng(7)
    data = rng.normal(size=(n_samples, n_features)) @ rng.normal(
        size=(n_features, n_features)
    )
    config = SPCAConfig(
        n_components=n_components, max_iterations=max_iterations, seed=0
    )

    reports: list[RaceReport] = []

    runtime = MapReduceRuntime(executor=make_executor(executor_name, workers))
    try:
        with RaceChecker(runtime, label=f"mapreduce/{executor_name}") as checker:
            SPCA(config, MapReduceBackend(config, runtime=runtime)).fit(data)
        reports.append(checker.report())
    finally:
        runtime.executor.shutdown()

    # Worker residency adds cross-iteration shared state (the pinned splits
    # every epoch's tasks resolve concurrently); check the fit again with
    # pinning on.  Pins land on the shadow executor, so they are released
    # inside the checker context, before the shadow is discarded.
    runtime = MapReduceRuntime(executor=make_executor(executor_name, workers))
    try:
        with RaceChecker(
            runtime, label=f"mapreduce-resident/{executor_name}"
        ) as checker:
            backend = MapReduceBackend(
                config, runtime=runtime, worker_resident=True
            )
            SPCA(config, backend).fit(data)
            backend._unpin_resident()
        reports.append(checker.report())
    finally:
        runtime.executor.shutdown()

    context = SparkContext(executor=make_executor(executor_name, workers))
    try:
        with RaceChecker(context, label=f"spark/{executor_name}") as checker:
            SPCA(config, SparkBackend(config, context=context)).fit(data)
        reports.append(checker.report())
    finally:
        context.executor.shutdown()

    return reports
