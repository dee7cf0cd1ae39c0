"""Shared-memory ndarray transport for the process-pool executor.

Dense blocks dominate the bytes a task payload carries.  Pickling them into
a ``ProcessPoolExecutor`` pipe copies every buffer twice (serialize +
deserialize); instead, the registry copies each distinct array **once** into
a ``multiprocessing.shared_memory`` segment and ships a tiny name+shape+dtype
reference.  Workers attach the segment and build a zero-copy ndarray view
over it.  Sparse matrices ship as references to their three index/data
arrays, rebuilt without copying on the worker side.

Lifecycle (leak-proofing)
-------------------------

Segments are owned by the *creating* process through a
:class:`ShmBlockRegistry`:

- the registry memoizes segments by source-array identity (weakref
  validated), so the same input block shipped on every job of an iterative
  fit is copied into shared memory exactly once;
- a ``weakref.finalize`` on the source array unlinks the segment as soon as
  the array is garbage collected;
- :meth:`ShmBlockRegistry.unlink_all` (called from executor ``shutdown()``)
  and an ``atexit`` hook unlink whatever remains;
- finalizers inherited by forked workers are pid-guarded: only the process
  that created a segment may unlink it;
- workers unregister attached segments from ``resource_tracker`` so a
  worker's exit neither warns about nor destroys segments it merely mapped.

``active_segments()`` exposes the registry's live set, which the leak tests
assert is empty after executor shutdown.

The decoded views are shared pages: tasks must treat payload arrays as
immutable, which is already the engines' record contract (see
``repro.engine.serde``).
"""

from __future__ import annotations

import atexit
import os
import threading
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any

import numpy as np
import scipy.sparse as sp

# Arrays smaller than this ride the ordinary pickle path: a shared-memory
# segment costs a file descriptor and a page-granular allocation, which only
# pays off for real data blocks.
DEFAULT_SHM_THRESHOLD = 32 * 1024

_SPARSE_FORMATS = ("csr", "csc")


@dataclass(frozen=True)
class ShmArrayRef:
    """A picklable reference to one ndarray living in a shm segment."""

    name: str
    shape: tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        count = 1
        for dim in self.shape:
            count *= dim
        return count * np.dtype(self.dtype).itemsize


@dataclass(frozen=True)
class ShmSparseRef:
    """A picklable reference to a CSR/CSC matrix (three array parts)."""

    format: str
    shape: tuple[int, ...]
    data: "ShmArrayRef | np.ndarray"
    indices: "ShmArrayRef | np.ndarray"
    indptr: "ShmArrayRef | np.ndarray"


class ShmBlockRegistry:
    """Tracks the shared-memory segments one executor has created.

    Thread-safe; every mutation is pid-guarded so a forked worker that
    inherited the registry object can never unlink the parent's segments.
    """

    def __init__(self) -> None:
        self._pid = os.getpid()
        self._lock = threading.Lock()
        # segment name -> SharedMemory handle (kept open so views stay valid)
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        # id(source array) -> (weakref, segment name): one copy per distinct
        # live array; the weakref validates a hit against a recycled id().
        self._by_array: dict[int, tuple[weakref.ref, str]] = {}
        # Names of raw pinned-blob segments (worker-resident payloads).
        # They live in _segments like array segments, but have no source
        # array whose finalizer could reclaim them, so unpin must be explicit.
        self._pinned: set[str] = set()
        atexit.register(self.unlink_all)

    # -- sharing ---------------------------------------------------------

    def share_array(self, array: np.ndarray) -> ShmArrayRef:
        """Copy *array* into shared memory (memoized) and return its ref."""
        key = id(array)
        with self._lock:
            entry = self._by_array.get(key)
            if entry is not None and entry[0]() is array:
                name = entry[1]
                return ShmArrayRef(name, array.shape, array.dtype.str)
        contiguous = np.ascontiguousarray(array)
        segment = shared_memory.SharedMemory(create=True, size=max(1, contiguous.nbytes))
        try:
            view = np.ndarray(
                contiguous.shape, dtype=contiguous.dtype, buffer=segment.buf
            )
            view[...] = contiguous
            with self._lock:
                self._segments[segment.name] = segment
                try:
                    ref = weakref.ref(array)
                    weakref.finalize(array, self._unlink_named, segment.name)
                    self._by_array[key] = (ref, segment.name)
                except TypeError:  # pragma: no cover - ndarrays are weakref-able
                    pass
        except BaseException:
            # The fill or registration failed: the segment would otherwise
            # outlive this call unreferenced and leak /dev/shm pages.
            with self._lock:
                self._segments.pop(segment.name, None)
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            raise
        return ShmArrayRef(segment.name, array.shape, array.dtype.str)

    # -- pinned blobs (worker-resident payloads) -------------------------

    def pin_segment(self, blob: bytes) -> str:
        """Copy a pickled payload blob into a segment pinned until unpinned.

        Unlike :meth:`share_array` segments, a pinned segment's lifetime is
        managed explicitly (``unpin_segment`` / ``unlink_all``): it backs a
        worker-resident payload whose driver-side anchor is the executor's
        pin table, not a garbage-collectable array.
        """
        segment = shared_memory.SharedMemory(create=True, size=max(1, len(blob)))
        try:
            segment.buf[: len(blob)] = blob
            with self._lock:
                self._segments[segment.name] = segment
                self._pinned.add(segment.name)
        except BaseException:
            with self._lock:
                self._segments.pop(segment.name, None)
                self._pinned.discard(segment.name)
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            raise
        return segment.name

    def unpin_segment(self, name: str) -> None:
        """Unlink one pinned-blob segment (idempotent, owner-only)."""
        with self._lock:
            self._pinned.discard(name)
        self._unlink_named(name)

    def pinned_segments(self) -> list[str]:
        """Names of live pinned-blob segments (leak check)."""
        with self._lock:
            return sorted(self._pinned)

    # -- lifecycle -------------------------------------------------------

    def _unlink_named(self, name: str) -> None:
        if os.getpid() != self._pid:
            return  # a forked worker inherited this finalizer: not the owner
        with self._lock:
            segment = self._segments.pop(name, None)
        if segment is not None:
            try:
                segment.close()
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def unlink_all(self) -> None:
        """Unlink every live segment this registry still owns."""
        if os.getpid() != self._pid:
            return
        with self._lock:
            names = list(self._segments)
        for name in names:
            self._unlink_named(name)
        with self._lock:
            self._by_array.clear()
            self._pinned.clear()

    def active_segments(self) -> list[str]:
        """Names of segments created and not yet unlinked (leak check)."""
        with self._lock:
            return sorted(self._segments)


# -- payload encoding --------------------------------------------------------


def encode_payload(
    obj: Any, registry: ShmBlockRegistry, threshold: int = DEFAULT_SHM_THRESHOLD
) -> Any:
    """Replace large arrays inside *obj* with shared-memory references.

    Walks lists, tuples, and dicts; dense ndarrays and CSR/CSC matrices at
    or above *threshold* bytes become refs, everything else is returned
    unchanged (and travels by pickle).  The returned structure is what a
    worker hands to :func:`decode_payload`.
    """

    def encode(value: Any) -> Any:
        if isinstance(value, np.ndarray):
            if value.nbytes >= threshold and value.dtype != object:
                return registry.share_array(value)
            return value
        if sp.issparse(value) and getattr(value, "format", None) in _SPARSE_FORMATS:
            parts = (value.data, value.indices, value.indptr)
            if any(part.nbytes >= threshold for part in parts):
                return ShmSparseRef(
                    value.format,
                    tuple(value.shape),
                    *(encode(part) for part in parts),
                )
            return value
        if isinstance(value, tuple):
            return tuple(encode(item) for item in value)
        if isinstance(value, list):
            return [encode(item) for item in value]
        if isinstance(value, dict):
            return {key: encode(item) for key, item in value.items()}
        return value

    return encode(obj)


# Worker-side cache of attached segments.  Attachments persist for the
# worker's lifetime: the parent may have unlinked a segment (unlink does not
# unmap), and the same named segment is re-used across every stage that
# ships the same source array, so the map stays small and hot.
_ATTACHED: dict[str, shared_memory.SharedMemory] = {}
_ATTACH_LOCK = threading.Lock()


def _attach(name: str) -> shared_memory.SharedMemory:
    with _ATTACH_LOCK:
        segment = _ATTACHED.get(name)
        if segment is not None:
            return segment
        segment = shared_memory.SharedMemory(name=name)
        # Attaching registered the segment with this process's resource
        # tracker, which would unlink it when *this* process exits -- but the
        # creating process owns the segment.  Undo the registration.
        try:  # pragma: no cover - depends on resource_tracker internals
            from multiprocessing import resource_tracker

            resource_tracker.unregister(segment._name, "shared_memory")  # type: ignore[attr-defined]
        except Exception:
            pass
        _ATTACHED[name] = segment
        return segment


def decode_payload(obj: Any) -> Any:
    """Rebuild a payload: refs become zero-copy views over shared memory."""

    def decode(value: Any) -> Any:
        if isinstance(value, ShmArrayRef):
            segment = _attach(value.name)
            return np.ndarray(value.shape, dtype=np.dtype(value.dtype), buffer=segment.buf)
        if isinstance(value, ShmSparseRef):
            parts = (decode(value.data), decode(value.indices), decode(value.indptr))
            cls = sp.csr_matrix if value.format == "csr" else sp.csc_matrix
            return cls(parts, shape=value.shape, copy=False)
        if isinstance(value, tuple):
            return tuple(decode(item) for item in value)
        if isinstance(value, list):
            return [decode(item) for item in value]
        if isinstance(value, dict):
            return {key: decode(item) for key, item in value.items()}
        return value

    return decode(obj)
