"""The process-pool executor: real multi-core execution.

Sidesteps the GIL entirely by running tasks in forked worker processes.
Dense blocks in the payloads do not travel through the pool's pickle pipe:
:mod:`repro.engine.exec.shm` swaps them for shared-memory references on the
way out and rebuilds zero-copy views on the worker side, so per-dispatch
cost is O(metadata), not O(data), and each distinct input block is copied
into shared memory exactly once per fit.

Tasks whose function or payload cannot be pickled (e.g. a locally-defined
mapper class in a test) fall back to in-process execution for that task --
the decision depends only on the payload, so it is deterministic across
runs.  The Spark engine never even submits its closure-based stages here:
``closure_executor()`` answers with a thread-pool sibling (see
``docs/engines.md``).
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Sequence

import repro.engine.exec.resident as resident
from repro.engine.exec.base import (
    TaskExecutor,
    default_worker_count,
    reraise_first_failure,
)
from repro.engine.exec.resident import ResidentPayloadRef
from repro.engine.exec.shm import (
    DEFAULT_SHM_THRESHOLD,
    ShmBlockRegistry,
    decode_payload,
    encode_payload,
)
from repro.engine.exec.threads import ThreadPoolTaskExecutor
from repro.obs.metrics import get_registry


def _process_task(fn: Callable[[Any], Any], encoded: Any) -> tuple[Any, float]:
    """Worker-side entry point: attach shm views, run, and time the task."""
    payload = decode_payload(encoded)
    started = time.perf_counter()
    result = fn(payload)
    return result, time.perf_counter() - started


class ProcessPoolTaskExecutor(TaskExecutor):
    """Runs tasks on a lazily-created ``ProcessPoolExecutor``.

    Prefers the ``fork`` start method (workers inherit the parent's modules
    and the payloads' module-level task functions without re-import); falls
    back to the platform default where fork is unavailable.
    """

    name = "processes"

    def __init__(
        self,
        workers: int | None = None,
        shm_threshold: int = DEFAULT_SHM_THRESHOLD,
    ):
        super().__init__(workers=workers or default_worker_count())
        self.shm_threshold = shm_threshold
        self.registry = ShmBlockRegistry()
        self._pool: ProcessPoolExecutor | None = None
        self._thread_sibling: ThreadPoolTaskExecutor | None = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX platforms
                context = multiprocessing.get_context()
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=context
            )
        return self._pool

    def closure_executor(self) -> TaskExecutor:
        """A thread-pool sibling for tasks that cannot cross a pickle pipe."""
        if self._thread_sibling is None:
            self._thread_sibling = _ProcessFallbackThreads(self.workers)
        return self._thread_sibling

    def pin_payload(self, key: str, payload: Any) -> ResidentPayloadRef:
        """Pin a payload: driver store + one pickled blob in shared memory.

        The blob is the shm-encoded payload (dense blocks already replaced
        by array refs), so a worker that misses the fork-inherited store
        attaches one small segment, unpickles metadata, and rebuilds
        zero-copy views -- it never copies the data twice.
        """
        self.unpin_payload(key)
        encoded = encode_payload(payload, self.registry, self.shm_threshold)
        blob = pickle.dumps(encoded, protocol=pickle.HIGHEST_PROTOCOL)
        segment = self.registry.pin_segment(blob)
        ref = ResidentPayloadRef(
            key=key,
            generation=resident.next_generation(),
            segment=segment,
            nbytes=len(blob),
        )
        # Install the *original* object driver-side: the inline-fallback
        # path and any worker forked after this point resolve to it
        # directly, keeping pinned runs bitwise equal to unpinned ones.
        resident.install(key, ref.generation, payload)
        self._pins[key] = ref
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "spca_executor_pin_bytes_total", executor=self.name
            ).inc(len(blob))
        return ref

    def _release_pin(self, ref: ResidentPayloadRef) -> None:
        if ref.segment is not None:
            self.registry.unpin_segment(ref.segment)

    def run_tasks(
        self,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        label: str = "tasks",
    ) -> list[Any]:
        if not payloads:
            return []
        started = time.perf_counter()
        self._emit_dispatch(
            label, len(payloads), shm_threshold=self.shm_threshold
        )
        encoded = [
            encode_payload(payload, self.registry, self.shm_threshold)
            for payload in payloads
        ]
        futures: list[Future | None] = []
        inline: dict[int, Any] = {}
        pool = self._ensure_pool()
        payload_bytes = 0
        for index, item in enumerate(encoded):
            try:
                # The probe doubles as the dispatch-bytes meter: this is
                # exactly what crosses the pool's pickle pipe per task, the
                # quantity worker residency is built to shrink.
                payload_bytes += len(
                    pickle.dumps((fn, item), protocol=pickle.HIGHEST_PROTOCOL)
                )
            except Exception:
                # Unpicklable task: run it in-process (shm views attach fine
                # in the owning process too).  Deterministic per payload.
                inline[index] = item
                futures.append(None)
                continue
            futures.append(pool.submit(_process_task, fn, item))
        registry = get_registry()
        if registry.enabled and payload_bytes:
            registry.counter(
                "spca_executor_payload_bytes_total", executor=self.name
            ).inc(payload_bytes)
        results: list[Any] = [None] * len(encoded)
        walls: list[float] = [0.0] * len(encoded)
        errors: list[tuple[int, BaseException]] = []
        for index, future in enumerate(futures):
            try:
                if future is None:
                    results[index], walls[index] = _process_task(
                        fn, inline[index]
                    )
                else:
                    results[index], walls[index] = future.result()
            except BrokenProcessPool:
                raise
            except BaseException as error:  # noqa: BLE001 - re-raised below
                errors.append((index, error))
        self._emit_join(label, walls, started)
        reraise_first_failure(errors)
        return results

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._thread_sibling is not None:
            self._thread_sibling.shutdown()
            self._thread_sibling = None
        self.registry.unlink_all()
        super().shutdown()


class _ProcessFallbackThreads(ThreadPoolTaskExecutor):
    """The thread sibling a process executor hands out for closure stages.

    Identical to ``threads`` except its dispatch events carry a
    ``fallback_from`` marker so traces show why a ``processes`` run executed
    a Spark stage in-process.
    """

    def _emit_dispatch(self, label: str, n_tasks: int, **attrs: Any) -> None:
        super()._emit_dispatch(
            label, n_tasks, fallback_from="processes", **attrs
        )
