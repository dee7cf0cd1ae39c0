"""Wall-clock spans around the program's layer entry points, from outside.

The program is not edited to be measured.  :func:`install` replaces each
target -- a module function or a class method, named in :func:`targets` --
with a wrapper that records one span per call (layer, name, start, end,
parent span, operation id, thread) and :meth:`Recorder.uninstall` puts the
originals back.  A function target is replaced at every ``repro`` module
global bound to it, i.e. at its definition and at each ``from ... import``
site, so calls through either path are seen.

Spans are kept in memory; :func:`layer_table` turns them into per-layer call
counts and self time (a span's duration minus the time its child spans
cover).  A call into a layer from code already inside a span of the same
layer is folded into the outer span, so recursive helpers (``sizeof``) and
kernel-to-kernel calls count once.

A target the program no longer has is reported as *absent* rather than
failing, so the table survives refactors that delete a layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

#: Every layer :func:`targets` can name, in call-stack order.
LAYERS = (
    "core",
    "backends",
    "engine.mapreduce",
    "jobs.mr",
    "engine.shuffle",
    "engine.serde",
    "engine.simtime",
    "engine.spark",
    "jobs.kernels",
    "serve.submit",
    "serve.dispatch",
    "serve.run_batch",
    "serve.registry",
    "stream.runner",
    "stream.window_statistics",
    "stream.sem_stats",
    "stream.windower",
    "stream.drift",
    "stream.sem_blend",
    "stream.ckpt",
)
# Methods of the job classes in repro.jobs.mapreduce_jobs that the MapReduce
# runtime calls per task.
MR_METHODS = ("setup", "map", "map_batch", "cleanup", "reduce", "reduce_batch")
# The Backend entry points the sPCA driver calls.
BACKEND_METHODS = ("load", "column_means", "frobenius_centered", "ytx_xtx", "ss3")


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``attr`` is ``func`` or ``Class.method``."""

    layer: str
    module: str
    attr: str

    @property
    def label(self) -> str:
        return f"{self.module}:{self.attr}"


def _public_functions(module_name: str) -> list[str]:
    module = importlib.import_module(module_name)
    return sorted(
        name
        for name, value in vars(module).items()
        if inspect.isfunction(value)
        and not name.startswith("_")
        and getattr(value, "__module__", None) == module_name
    )


def _own_methods(
    module_name: str, base: str, methods: tuple[str, ...] | None = None
) -> list[str]:
    """``Class.method`` for every subclass of *base* defined in the module,
    for each of *methods* (default: every public one) that the class
    defines itself; inherited methods are wrapped where they are defined."""
    module = importlib.import_module(module_name)
    base_module, _, base_name = base.rpartition(".")
    base_class = getattr(importlib.import_module(base_module), base_name)
    found = []
    for class_name, cls in sorted(vars(module).items()):
        if not (
            inspect.isclass(cls)
            and issubclass(cls, base_class)
            and cls.__module__ == module_name
        ):
            continue
        found.extend(
            f"{class_name}.{method}"
            for method, value in vars(cls).items()
            if inspect.isfunction(value)
            and (method in methods if methods else not method.startswith("_"))
        )
    return found


def targets() -> tuple[list[Target], list[str]]:
    """The layer table: every target that exists now, plus the absent ones.

    Layers follow the program's modules (see README.md for which
    end-to-end metric each should move).
    """
    table: list[Target] = []
    absent: list[str] = []

    def add(layer: str, module: str, *attrs: str) -> None:
        table.extend(Target(layer, module, attr) for attr in attrs)

    def add_scanned(layer: str, module: str, scan: Callable[[], list[str]]) -> None:
        try:
            add(layer, module, *scan())
        except (ImportError, AttributeError):
            absent.append(f"{layer}: {module}")

    add("core", "repro.core.spca", "SPCA.fit")
    for module, cls in (
        ("repro.backends.mapreduce", "MapReduceBackend"),
        ("repro.backends.spark", "SparkBackend"),
    ):
        add("backends", module, *(f"{cls}.{m}" for m in BACKEND_METHODS))
    add("engine.mapreduce", "repro.engine.mapreduce.runtime", "MapReduceRuntime.run")
    for base in ("repro.engine.mapreduce.api.Mapper", "repro.engine.mapreduce.api.Reducer"):
        add_scanned(
            "jobs.mr",
            "repro.jobs.mapreduce_jobs",
            lambda base=base: _own_methods("repro.jobs.mapreduce_jobs", base, MR_METHODS),
        )
    add("engine.shuffle", "repro.engine.mapreduce.runtime", "_partition_pairs")
    add("engine.serde", "repro.engine.serde", "sizeof", "sizeof_pairs")
    add("engine.simtime", "repro.engine.simtime", "schedule_tasks", "apply_speculative_execution")
    add("engine.spark", "repro.engine.spark.context", "SparkContext.run_job")
    add_scanned(
        "jobs.kernels", "repro.jobs.kernels", lambda: _public_functions("repro.jobs.kernels")
    )
    add_scanned(
        "jobs.kernels",
        "repro.jobs.backends",
        lambda: _own_methods("repro.jobs.backends", "repro.jobs.backends.KernelBackend"),
    )
    add("serve.submit", "repro.serve.batcher", "MicroBatcher.submit")
    add("serve.dispatch", "repro.serve.batcher", "MicroBatcher._dispatch")
    add("serve.run_batch", "repro.serve.kernels", "run_batch")
    add("serve.registry", "repro.serve.registry", "ModelRegistry.get")
    add("stream.runner", "repro.stream.runner", "StreamingPCA.run")
    add_scanned(
        "stream.window_statistics",
        "repro.stream.engines",
        lambda: _own_methods(
            "repro.stream.engines",
            "repro.stream.engines.WindowEngine",
            ("window_statistics",),
        ),
    )
    add("stream.sem_stats", "repro.extensions.incremental", "sem_batch_statistics")
    add("stream.windower", "repro.stream.window", "Windower.push")
    add("stream.drift", "repro.stream.drift", "DriftDetector.observe")
    add("stream.sem_blend", "repro.extensions.incremental", "sem_blend")
    add_scanned(
        "stream.ckpt",
        "repro.core.checkpoint",
        lambda: _own_methods(
            "repro.core.checkpoint", "repro.core.checkpoint.CheckpointStore", ("save",)
        ),
    )
    return table, absent


# -- operation counts for the kernel layer ------------------------------------


def _arg(args: tuple, kwargs: dict, index: int, name: str, default: Any = None) -> Any:
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _stored(block: Any) -> int:
    """Entries a kernel touches: nnz for sparse blocks, all for dense."""
    nnz = getattr(block, "nnz", None)
    return int(nnz) if nnz is not None else int(block.size)


def _latent_flops(block: Any, d: int, mean_propagation: bool) -> float:
    rows, cols = block.shape
    if mean_propagation:
        return 2.0 * _stored(block) * d + rows * d
    return 2.0 * rows * cols * d + rows * cols


def _flops_latent(args: tuple, kwargs: dict) -> float:
    block, projector = args[0], _arg(args, kwargs, 2, "projector")
    return _latent_flops(block, projector.shape[1], bool(_arg(args, kwargs, 4, "mean_propagation")))


def _flops_ytx_xtx(args: tuple, kwargs: dict) -> float:
    # X itself is counted by the block_latent call it makes when not given.
    block, projector = args[0], _arg(args, kwargs, 2, "projector")
    rows, cols = block.shape
    d = projector.shape[1]
    ytx = 2.0 * (_stored(block) if _arg(args, kwargs, 4, "mean_propagation") else rows * cols) * d
    return ytx + 2.0 * cols * d + 2.0 * rows * d * d


def _flops_ss3(args: tuple, kwargs: dict) -> float:
    block, components = args[0], _arg(args, kwargs, 4, "components")
    rows, cols = block.shape
    d = components.shape[1]
    mean_propagation = _arg(args, kwargs, 5, "mean_propagation")
    touched = _stored(block) if mean_propagation else rows * cols
    return 2.0 * touched * d + 2.0 * rows * d + 2.0 * cols * d


def _flops_error_parts(args: tuple, kwargs: dict) -> float:
    block, components = args[0], _arg(args, kwargs, 2, "components")
    rows, cols = block.shape
    d = components.shape[1]
    latent = _latent_flops(block, d, bool(_arg(args, kwargs, 4, "mean_propagation")))
    return latent + 2.0 * rows * cols * d + 6.0 * rows * cols


#: Floating-point operations per call, computed from shapes and nnz (not
#: measured).  Kernels missing here (stacking, byte counts) do no arithmetic.
KERNEL_FLOPS: dict[str, Callable[[tuple, dict], float]] = {
    "block_sums": lambda args, kwargs: float(_stored(args[0])),
    "block_frobenius": lambda args, kwargs: 3.0 * _stored(args[0]) + 3.0 * args[0].shape[1],
    "block_latent": _flops_latent,
    "block_ytx_xtx": _flops_ytx_xtx,
    "block_ss3": _flops_ss3,
    "block_error_parts": _flops_error_parts,
    "error_from_colsums": lambda args, kwargs: 2.0 * args[0].shape[0],
}


# -- recording -----------------------------------------------------------------


class Span(NamedTuple):
    id: int
    layer: str
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    thread: int
    flops: float


class Recorder:
    """Holds the spans of one traced phase and the wrappers installed for it.

    Each thread keeps its own stack of open spans, and a span's operation
    count rides on its stack frame, so no shared counter is updated from
    two threads.  ``awaited`` and ``awaited_failures`` count coroutine
    calls, which all run on the event loop's thread.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.awaited: Counter[str] = Counter()
        self.awaited_failures: Counter[str] = Counter()
        self.op = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._installed: list[tuple[Any, str, Any]] = []

    def _open(self, layer: str, flops: float) -> list | None:
        """Push a frame ``[id, layer, flops, parent]``; None inside *layer*."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack and stack[-1][1] == layer:
            stack[-1][2] += flops
            return None
        frame = [next(self._ids), layer, flops, stack[-1][0] if stack else None]
        stack.append(frame)
        return frame

    def _close(self, frame: list, name: str, start: float) -> None:
        end = time.perf_counter()
        self._local.stack.pop()
        span_id, layer, flops, parent = frame
        self.spans.append(
            Span(span_id, layer, name, start, end, parent, self.op, threading.get_ident(), flops)
        )

    def wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        """A wrapper recording one span per call of *fn*."""
        count_flops = KERNEL_FLOPS.get(name) if layer == "jobs.kernels" else None
        recorder = self

        if inspect.iscoroutinefunction(fn):
            # Awaits interleave on one thread, so a coroutine cannot own a
            # stack frame; count its calls and failures instead.
            @functools.wraps(fn)
            async def count_awaited(*args, **kwargs):
                recorder.awaited[layer] += 1
                try:
                    return await fn(*args, **kwargs)
                except Exception:
                    recorder.awaited_failures[layer] += 1
                    raise

            return count_awaited

        if inspect.isgeneratorfunction(fn):
            # The span covers the generator's whole consumption, which is
            # when its work happens.
            @functools.wraps(fn)
            def span_generator(*args, **kwargs):
                frame = recorder._open(layer, 0.0)
                if frame is None:
                    yield from fn(*args, **kwargs)
                    return
                start = time.perf_counter()
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    recorder._close(frame, name, start)

            return span_generator

        @functools.wraps(fn)
        def span_call(*args, **kwargs):
            flops = count_flops(args, kwargs) if count_flops is not None else 0.0
            frame = recorder._open(layer, flops)
            if frame is None:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                recorder._close(frame, name, start)

        return span_call

    def install(self) -> list[str]:
        """Wrap every target; returns the labels of absent targets."""
        table, absent = targets()
        for target in table:
            try:
                module = importlib.import_module(target.module)
                owner_name, _, attr = target.attr.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                absent.append(f"{target.layer}: {target.label}")
                continue
            wrapped = self.wrap(original, target.layer, target.attr)
            if owner_name:
                self._replace(owner, attr, original, wrapped)
                continue
            # A function: replace every repro global bound to it.
            for loaded in list(sys.modules.values()):
                name = getattr(loaded, "__name__", "") or ""
                if name != "repro" and not name.startswith("repro."):
                    continue
                for global_name, value in list(vars(loaded).items()):
                    if value is original:
                        self._replace(loaded, global_name, original, wrapped)
        return absent

    def _replace(self, owner: Any, attr: str, original: Any, wrapped: Any) -> None:
        setattr(owner, attr, wrapped)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def dump(self, path, op: int) -> None:
        """Write the spans of operation *op* as JSON lines, times relative
        to its first span."""
        rows = sorted((s for s in self.spans if s.op == op), key=lambda s: s.start)
        origin = rows[0].start if rows else 0.0
        with open(path, "w") as handle:
            for span in rows:
                row = span._asdict()
                row["start"] -= origin
                row["end"] -= origin
                handle.write(json.dumps(row) + "\n")


def layer_table(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per layer: spans, total and self time (seconds) and operation count."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"spans": 0, "total_s": 0.0, "self_s": 0.0, "flops": 0.0}
    )
    for span in spans:
        row = table[span.layer]
        row["spans"] += 1
        row["total_s"] += span.end - span.start
        row["self_s"] += span.end - span.start - covered.get(span.id, 0.0)
        row["flops"] += span.flops
    return dict(table)
