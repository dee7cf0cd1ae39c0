"""The task-executor contract shared by both engine simulators.

A :class:`TaskExecutor` runs a batch of *independent* tasks -- the map tasks
of one MapReduce stage, the reduce tasks over disjoint key groups, or the
partitions of one Spark stage -- and returns their results **in task-index
order** regardless of completion order.  Everything with a side effect
(counters, trace events, cache puts, accumulator updates, fault accounting)
stays out of the executor: tasks return pure outcome records and the driver
commits them in index order, which is what keeps every executor bit-identical
to ``serial`` (see ``docs/engines.md``).

Observability: concurrent executors emit an ``executor_dispatch`` event when
a batch is submitted and an ``executor_join`` event when the last task
finishes, carrying the per-task wall times.  The ``serial`` executor emits
nothing so traces from the default configuration are byte-identical to the
pre-executor engine.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Sequence

import repro.engine.exec.resident as resident
from repro.engine.exec.resident import ResidentPayloadRef
from repro.obs import get_tracer
from repro.obs.metrics import get_registry


def default_worker_count() -> int:
    """The worker count used when ``--workers`` is not given (capped at 8)."""
    return max(1, min(8, os.cpu_count() or 1))


class TaskExecutor:
    """Runs independent task thunks; results come back in submission order."""

    #: executor name as exposed on the CLI (`--executor ...`)
    name = "base"
    #: True only for the serial executor (engines keep their legacy code path)
    serial = False

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        # key -> the ResidentPayloadRef minted for it (worker-resident pins)
        self._pins: dict[str, ResidentPayloadRef] = {}

    # -- the contract ----------------------------------------------------

    def run_tasks(
        self,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        label: str = "tasks",
    ) -> list[Any]:
        """Run ``fn(payload)`` for every payload; return results by index.

        Concurrent implementations may evaluate in any order but MUST return
        ``[fn(payloads[0]), fn(payloads[1]), ...]``.  If several tasks raise,
        the exception of the lowest-index failing task propagates (matching
        what a serial left-to-right loop would have raised).
        """
        raise NotImplementedError

    # -- worker-resident payloads ----------------------------------------

    def pin_payload(self, key: str, payload: Any) -> ResidentPayloadRef:
        """Pin *payload* so later dispatches can ship a tiny ref instead.

        The base implementation serves every in-process executor (serial,
        threads): the payload is installed in the driver's resident store
        and :func:`repro.engine.exec.resident.resolve_payload` hands back
        the *identical* object, so a pinned run is bitwise equal to an
        unpinned one.  The process executor overrides this to also stage a
        pickled copy in shared memory for workers forked too late to
        inherit the store.
        """
        self.unpin_payload(key)
        ref = ResidentPayloadRef(key=key, generation=resident.next_generation())
        resident.install(key, ref.generation, payload)
        self._pins[key] = ref
        return ref

    def unpin_payload(self, key: str) -> None:
        """Release one pin (idempotent)."""
        ref = self._pins.pop(key, None)
        if ref is None:
            return
        resident.evict(key)
        self._release_pin(ref)

    def unpin_all(self) -> None:
        """Release every pin this executor installed."""
        for key in list(self._pins):
            self.unpin_payload(key)

    def _release_pin(self, ref: ResidentPayloadRef) -> None:
        """Backend hook: free transport resources attached to one pin."""

    def closure_executor(self) -> "TaskExecutor":
        """The executor to use for non-picklable (closure-capturing) tasks.

        Process pools cannot ship the Spark engine's closure-based partition
        functions (no cloudpickle in this codebase), so the process backend
        answers with an in-process thread sibling; every other backend
        returns itself.
        """
        return self

    def shutdown(self) -> None:
        """Release pools and shared-memory segments; idempotent."""
        self.unpin_all()

    def __enter__(self) -> "TaskExecutor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    # -- tracing helpers for concurrent backends -------------------------

    def _emit_dispatch(self, label: str, n_tasks: int, **attrs: Any) -> None:
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "executor_dispatch",
                executor=self.name,
                workers=self.workers,
                label=label,
                n_tasks=n_tasks,
                **attrs,
            )

    def _emit_join(self, label: str, wall_seconds: list[float], started: float) -> None:
        wall = time.perf_counter() - started
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "executor_join",
                executor=self.name,
                workers=self.workers,
                label=label,
                n_tasks=len(wall_seconds),
                wall_s=wall,
                task_wall_s=[round(w, 6) for w in wall_seconds],
            )
        registry = get_registry()
        if registry.enabled:
            busy = sum(wall_seconds)
            registry.counter("spca_executor_batches_total", executor=self.name).inc()
            registry.counter("spca_executor_tasks_total", executor=self.name).inc(
                len(wall_seconds)
            )
            registry.counter(
                "spca_executor_busy_seconds_total", executor=self.name
            ).inc(busy)
            registry.counter(
                "spca_executor_wall_seconds_total", executor=self.name
            ).inc(wall)
            histogram = registry.histogram(
                "spca_executor_task_wall_seconds", executor=self.name
            )
            for task_wall in wall_seconds:
                histogram.observe(task_wall)
            if wall > 0:
                # occupancy of the last batch: busy worker-seconds over the
                # worker-seconds the pool had available while it ran
                registry.gauge("spca_executor_occupancy", executor=self.name).set(
                    busy / (wall * self.workers)
                )


def reraise_first_failure(
    errors: Sequence[tuple[int, BaseException]],
) -> None:
    """Raise the failure a serial loop would have hit first, if any."""
    if errors:
        index, error = min(errors, key=lambda pair: pair[0])
        raise error
