"""The four end-to-end workloads: inputs, set-up, the measured phase, checks.

Each workload builds its inputs from the seed in :meth:`prep`, sets the
program up in :meth:`setup` (import, construction and a first operation;
the worker times this in fresh processes), computes the references its
checks need in :meth:`oracles`, and runs one timed phase in
:meth:`measure`.  The program only ever sees the generated matrices, rows
and arrival times.  Correctness is checked after the clock stops.

Importing this module imports the program, which is what the worker times
as the first part of set-up.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np
import scipy.sparse as sp

from repro.backends.mapreduce import MapReduceBackend
from repro.backends.spark import SparkBackend
from repro.core import SPCA, SPCAConfig
from repro.core.checkpoint import CheckpointPolicy, DirectoryCheckpointStore
from repro.data.generators import bag_of_words, sift_features
from repro.data.paper import scaled_cluster
from repro.engine.mapreduce.runtime import MapReduceRuntime
from repro.engine.spark.context import SparkContext
from repro.extensions.incremental import IncrementalPPCA
from repro.linalg.operators import CenteredOperator
from repro.serve.api import PCAService
from repro.serve.batcher import BatchPolicy, MicroBatcher
from repro.serve.kernels import reference_rows
from repro.serve.loadgen import make_demo_model
from repro.serve.registry import ModelRegistry
from repro.stream import DriftSpec, RowSource, StreamConfig, StreamingPCA, SyntheticSource

#: Fits must capture this share of the exact top-d variance.
TARGET_VARIANCE = 0.99


def nearest_rank(values: list[float], q: float) -> float:
    """The q-th percentile by nearest rank (an observed value, never 0-filled)."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


@dataclass
class Phase:
    """What one measured phase produced.

    ``metrics`` holds the end-to-end values the phase defines (all but
    ``setup_s`` and ``peak_rss_mb``); ``details`` the workload's own
    numbers.  ``ops`` is the unit every per-op figure divides by: fits,
    requests or windows.
    """

    ops: int
    failed: int
    wall_s: float
    cpu_s: float
    metrics: dict[str, float] = field(default_factory=dict)
    details: dict[str, Any] = field(default_factory=dict)


# -- fits ----------------------------------------------------------------------


@dataclass
class FitRun:
    start: float
    end: float
    probes: list[tuple[float, np.ndarray]]
    history: Any


class FitWorkload:
    """Repeated ``SPCA.fit`` calls, timed to a stated accuracy.

    The matrix structure is generated from a fixed seed and ``--seed``
    shuffles its rows, so the iterations a fit needs to reach the target are
    a property of the workload rather than of the seed, while row placement
    across splits still changes from seed to seed.
    """

    DATA_SEED = 0
    SPARSE = False

    def __init__(self, scale: str, work_dir: Path):
        self.work_dir = work_dir
        sizes = self.SIZES[scale]
        self.n_rows, self.n_cols, self.d, self.nodes = sizes
        self.config = SPCAConfig(
            n_components=self.d,
            max_iterations=10,
            tolerance=0.0,
            compute_error_every_iteration=False,
            seed=1,
        )
        self.trace_rounds = 5 if scale == "full" else 2
        self._reference: FitRun | None = None
        self._reference_captured: list[float] | None = None

    def generate(self):
        raise NotImplementedError

    def make_backend(self):
        raise NotImplementedError

    def prep(self, seed: int, seconds: float) -> None:
        # Generation is slow next to a fit, so the set-up processes load the
        # matrix the first prep of a run saved.
        cache = self.work_dir / "inputs.npz"
        if cache.is_file():
            self.data = sp.load_npz(cache) if self.SPARSE else np.load(cache)["data"]
            return
        data = self.generate()
        rng = np.random.default_rng(seed)
        if self.SPARSE:
            self.data = data[rng.permutation(data.shape[0])]
            sp.save_npz(cache, self.data, compressed=False)
        else:
            rng.shuffle(data)
            self.data = data
            np.savez(cache, data=data)

    def oracles(self) -> None:
        self.operator = CenteredOperator(self.data)
        _, singular, _ = self.operator.top_singular_subspace(self.d)
        self.top_variance = float(singular @ singular)

    def fit_once(self) -> FitRun:
        backend = self.make_backend()
        probes: list[tuple[float, np.ndarray]] = []
        ss3 = backend.ss3

        # ss3Job is the last job of every EM iteration, and it receives the
        # iteration's new components.
        def probe(*args, **kwargs):
            value = ss3(*args, **kwargs)
            components = kwargs["components"] if "components" in kwargs else args[4]
            probes.append((time.perf_counter(), components))
            return value

        backend.ss3 = probe
        start = time.perf_counter()
        _, history = SPCA(self.config, backend).fit(self.data)
        end = time.perf_counter()
        return FitRun(start, end, probes, history)

    def setup(self) -> float:
        started = time.perf_counter()
        run = self.fit_once()
        elapsed = time.perf_counter() - started
        if self._reference is None:
            self._reference = run
        return elapsed

    def trace_measure(self, seconds: float) -> Phase:
        """One round of a traced run: one fit."""
        return self.measure(0.0, min_ops=1)

    def measure(self, seconds: float, min_ops: int = 3) -> Phase:
        runs: list[FitRun] = []
        cpu_start, started = time.process_time(), time.perf_counter()
        while len(runs) < min_ops or time.perf_counter() - started < seconds:
            runs.append(self.fit_once())
        wall, cpu = time.perf_counter() - started, time.process_time() - cpu_start
        return self._evaluate(runs, wall, cpu)

    def captured(self, components: np.ndarray) -> float:
        """Share of the exact top-d variance the span of *components* holds."""
        basis, _ = np.linalg.qr(components)
        projected = self.operator.matmat(basis)
        return float(np.einsum("ij,ij->", projected, projected)) / self.top_variance

    def _captured_per_iteration(self, run: FitRun) -> list[float]:
        reference = self._reference
        if self._reference_captured is None:
            self._reference_captured = [self.captured(c) for _, c in reference.probes]
        # Repeated fits of one matrix are deterministic; recompute only for
        # a run whose iterates differ from the reference bit for bit.
        if len(run.probes) == len(reference.probes) and all(
            np.array_equal(a, b)
            for (_, a), (_, b) in zip(run.probes, reference.probes)
        ):
            return self._reference_captured
        return [self.captured(c) for _, c in run.probes]

    def _evaluate(self, runs: list[FitRun], wall: float, cpu: float) -> Phase:
        tta, sim_tta, intervals, rows_per_s, reached = [], [], [], [], []
        failed = 0
        for run in runs:
            captured = self._captured_per_iteration(run)
            k = next((i for i, c in enumerate(captured) if c >= TARGET_VARIANCE), None)
            if k is None:
                failed += 1
                tta.append(run.end - run.start)
            else:
                reached.append(k + 1)
                tta.append(run.probes[k][0] - run.start)
                sim_tta.append(run.history.iterations[k].simulated_seconds)
            times = [t for t, _ in run.probes]
            intervals.extend(b - a for a, b in zip(times, times[1:]))
            rows_per_s.append(self.n_rows * len(run.probes) / (run.end - run.start))
        last = runs[-1].history.iterations[-1]
        return Phase(
            ops=len(runs),
            failed=failed,
            wall_s=wall,
            cpu_s=cpu,
            metrics={
                "latency_p50_ms": statistics.median(tta) * 1e3,
                # A 10 s run holds 60-90 iterations: p75 is the highest
                # percentile with ten or more samples beyond it.
                "latency_tail_ms": nearest_rank(intervals, 75) * 1e3,
                "rows_per_s": statistics.median(rows_per_s),
                "cpu_ms_per_op": cpu / len(runs) * 1e3,
            },
            details={
                "tta_s": statistics.median(tta),
                "tta_s_samples": tta,
                "iters_to_target": statistics.median(reached) if reached else 0,
                "iter_ms_p50": nearest_rank(intervals, 50) * 1e3,
                "iter_ms_p90": nearest_rank(intervals, 90) * 1e3,
                "iteration_samples": len(intervals),
                "fit_s": statistics.median(r.end - r.start for r in runs),
                "sim_tta_s": statistics.median(sim_tta) if sim_tta else 0.0,
                "intermediate_mb": last.intermediate_bytes / 1e6,
                "captured_at_10": self._captured_per_iteration(runs[-1])[-1],
            },
        )


class TextMapReduceFit(FitWorkload):
    """Tweets-like sparse text (Table 2 width) on the MapReduce engine with
    fine-grained records: engine overhead dominates wall time."""

    name = "fit-text-mr"
    SIZES = {"full": (60_000, 600, 10, 8), "smoke": (2_000, 80, 3, 1)}
    SPARSE = True

    def generate(self):
        return bag_of_words(
            self.n_rows, self.n_cols, words_per_doc=8, topic_rank=16, seed=self.DATA_SEED
        )

    def make_backend(self):
        runtime = MapReduceRuntime(cluster=scaled_cluster(self.nodes), executor="serial")
        return MapReduceBackend(self.config, runtime, records_per_split=8)


class DenseSparkFit(FitWorkload):
    """Images-like dense SIFT blocks on the Spark engine, one block per
    partition: the per-block kernels dominate wall time."""

    name = "fit-dense-spark"
    SIZES = {"full": (120_000, 128, 32, 8), "smoke": (4_000, 32, 6, 1)}

    def generate(self):
        return sift_features(self.n_rows, self.n_cols, seed=self.DATA_SEED)

    def make_backend(self):
        context = SparkContext(cluster=scaled_cluster(self.nodes), executor="serial")
        return SparkBackend(self.config, context, records_per_partition=1)


# -- serving -------------------------------------------------------------------


class ServeWorkload:
    """Open-loop Poisson arrivals of single-row ``transform`` requests.

    Latency is timed from each request's scheduled send time, so a stall
    also charges the requests queued behind it; how late the generator
    itself ran is reported as ``late_ms_p99``.
    """

    name = "serve-open-2k"
    RATE = 2000.0
    N_FEATURES, N_COMPONENTS = 64, 8
    POLICY = BatchPolicy(max_batch_rows=256, max_delay_s=0.002)
    WARMUP_REQUESTS = 256
    trace_rounds = 5

    def __init__(self, scale: str, work_dir: Path):
        self.pool_rows = 4096 if scale == "full" else 512
        self.work_dir = work_dir
        self.service: PCAService | None = None

    def prep(self, seed: int, seconds: float) -> None:
        rng = np.random.default_rng(seed)
        self.pool = rng.normal(size=(self.pool_rows, self.N_FEATURES))
        count = int(self.RATE * seconds * 1.5) + 2 * self.WARMUP_REQUESTS
        self.arrivals = np.cumsum(rng.exponential(1.0 / self.RATE, size=count))
        self.picks = rng.integers(self.pool_rows, size=count)
        self.model = make_demo_model(self.N_FEATURES, self.N_COMPONENTS)

    def oracles(self) -> None:
        self.expected = reference_rows(self.model, "transform", self.pool)

    def setup(self) -> float:
        started = time.perf_counter()
        registry = ModelRegistry(tempfile.mkdtemp(prefix="registry-", dir=self.work_dir))
        registry.publish("bench", self.model)
        registry.get("bench")
        self.service = PCAService(registry)
        self._serve(self.WARMUP_REQUESTS)
        return time.perf_counter() - started

    async def _drive(self, count: int):
        batcher = MicroBatcher(self.service, self.POLICY)
        latency = [0.0] * count
        late = [0.0] * count
        results: list[Any] = [None] * count
        errors: dict[str, int] = {}

        async def request(index: int, due: float) -> None:
            try:
                results[index] = await batcher.submit(
                    "transform", "bench", self.pool[self.picks[index]]
                )
            except Exception as exc:  # a refused or failed request is a failed op
                errors[type(exc).__name__] = errors.get(type(exc).__name__, 0) + 1
            latency[index] = time.perf_counter() - due

        # Only in-flight tasks are kept: holding every finished task would
        # grow the heap the collector walks and stall the loop it measures.
        in_flight: set[asyncio.Task] = set()
        arrivals = self.arrivals[:count].tolist()
        origin = time.perf_counter()
        for index, offset in enumerate(arrivals):
            due = origin + offset
            await asyncio.sleep(max(0.0, due - time.perf_counter()))
            late[index] = time.perf_counter() - due
            task = asyncio.create_task(request(index, due))
            in_flight.add(task)
            task.add_done_callback(in_flight.discard)
        while in_flight:
            await asyncio.gather(*in_flight)
        done = time.perf_counter()
        await batcher.close()
        return latency, late, results, errors, done - origin, batcher.batches_dispatched

    def _serve(self, count: int):
        return asyncio.run(self._drive(count))

    def trace_measure(self, seconds: float) -> Phase:
        """One round of a traced run; each mode serves half of *seconds*."""
        return self.measure(seconds / (2 * self.trace_rounds))

    def measure(self, seconds: float, min_ops: int = 1) -> Phase:
        count = max(min_ops, int(np.searchsorted(self.arrivals, seconds)))
        cpu_start = time.process_time()
        latency, late, results, errors, wall, batches = self._serve(count)
        cpu = time.process_time() - cpu_start
        failed = sum(
            result is None or not np.array_equal(result, self.expected[self.picks[i]])
            for i, result in enumerate(results)
        )
        return Phase(
            ops=count,
            failed=failed,
            wall_s=wall,
            cpu_s=cpu,
            metrics={
                "latency_p50_ms": nearest_rank(latency, 50) * 1e3,
                "latency_tail_ms": nearest_rank(latency, 99) * 1e3,
                "rows_per_s": count / wall,
                "cpu_ms_per_op": cpu / count * 1e3,
            },
            details={
                "offered_rate": self.RATE,
                "batches": batches,
                "late_ms_p99": nearest_rank(late, 99) * 1e3,
                "errors": errors,
            },
        )


# -- streaming -----------------------------------------------------------------


class PoolSource(RowSource):
    """Cycles a pool of window-sized chunks, optionally paced open-loop.

    With a *rate*, chunk k is released when its last row is due (rows
    arrive evenly at *rate* rows/s from the first pull), whether or not the
    runner kept up; each window's latency runs from that due time until the
    runner pulls the next chunk.
    """

    def __init__(self, pool: list[np.ndarray], windows: int, rate: float | None = None):
        self.pool = pool
        self.windows = windows
        self.rate = rate
        self.latencies: list[float] = []

    @property
    def n_cols(self) -> int:
        return self.pool[0].shape[1]

    def chunks(self, start_row: int = 0):
        rows = self.pool[0].shape[0]
        origin = time.perf_counter()
        for index in range(start_row // rows, self.windows):
            chunk = self.pool[index % len(self.pool)]
            if self.rate is None:
                yield chunk
                continue
            due = origin + (index + 1) * rows / self.rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            yield chunk
            self.latencies.append(time.perf_counter() - due)


class StreamWorkload:
    """Windowed streaming PCA on the MapReduce engine with periodic
    checkpoints to a real directory.

    Phase A runs closed-loop passes (throughput); phase B one open-loop pass
    at a fixed row rate (window latency).  The pool alternates pre- and
    post-drift windows of one synthetic source, so the drift detector sees
    regime changes.
    """

    name = "stream-ckpt"
    RATE = 100_000.0
    CHECKPOINT_EVERY = 10
    SHARE_CLOSED = 0.4
    trace_rounds = 3

    def __init__(self, scale: str, work_dir: Path):
        full = scale == "full"
        self.window = 1024 if full else 256
        self.n_cols = 128 if full else 32
        self.pool_windows = 32 if full else 8
        self.pass_windows = 300 if full else 20
        self.warmup_windows = 40 if full else 10
        self.work_dir = work_dir
        self.config = StreamConfig(
            n_components=8,
            window=self.window,
            rows_per_task=256 if full else 64,
            drift_threshold_degrees=20.0,
        )

    def prep(self, seed: int, seconds: float) -> None:
        half = self.pool_windows // 2
        source = SyntheticSource(
            self.n_cols,
            8,
            seed=seed,
            block_rows=self.window,
            drift=DriftSpec(at_row=half * self.window, angle_degrees=90.0),
        )
        self.pool = list(itertools.islice(source.chunks(), self.pool_windows))
        self.open_windows = math.ceil(
            seconds * (1.0 - self.SHARE_CLOSED) * self.RATE / self.window
        )

    def oracles(self) -> None:
        self.expected = {
            n: IncrementalPPCA(self.config.n_components, seed=self.config.seed)
            .partial_fit_stream(
                (self.pool[k % len(self.pool)] for k in range(n)), n_cols=self.n_cols
            )
            for n in {self.pass_windows, self.open_windows}
        }

    def _pass(self, windows: int, rate: float | None = None):
        store_dir = tempfile.mkdtemp(prefix="ckpt-", dir=self.work_dir)
        try:
            pca = StreamingPCA(self.config, "mapreduce")
            policy = CheckpointPolicy(
                DirectoryCheckpointStore(store_dir), every=self.CHECKPOINT_EVERY
            )
            source = PoolSource(self.pool, windows, rate)
            started = time.perf_counter()
            result = pca.run(source, checkpoint=policy)
            wall = time.perf_counter() - started
            ckpt_bytes = sum(f.stat().st_size for f in Path(store_dir).iterdir())
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        return result, wall, source.latencies, ckpt_bytes

    def setup(self) -> float:
        started = time.perf_counter()
        self._pass(self.warmup_windows)
        return time.perf_counter() - started

    def trace_measure(self, seconds: float) -> Phase:
        """One round of a traced run: one closed-loop pass."""
        return self.measure(0.0, min_ops=1, open_loop=False)

    def measure(self, seconds: float, min_ops: int = 2, open_loop: bool = True) -> Phase:
        closed = []
        closed_seconds = seconds * self.SHARE_CLOSED
        cpu_start, started = time.process_time(), time.perf_counter()
        while len(closed) < min_ops or time.perf_counter() - started < closed_seconds:
            closed.append(self._pass(self.pass_windows))
        paced = self._pass(self.open_windows, self.RATE) if open_loop else None
        wall, cpu = time.perf_counter() - started, time.process_time() - cpu_start

        passes = closed + ([paced] if paced else [])
        windows = sum(result.windows for result, *_ in passes)
        failed = sum(
            result.windows for result, *_ in passes if not self._matches_oracle(result)
        )
        checkpoints = sum(result.checkpoints for result, *_ in passes)
        metrics = {
            "rows_per_s": statistics.median(r.rows / pass_wall for r, pass_wall, *_ in closed),
            "cpu_ms_per_op": cpu / windows * 1e3,
        }
        details = {
            "closed_passes": len(closed),
            "windows_per_pass": self.pass_windows,
            "drift_events_per_pass": statistics.median(
                len(result.drift_events) for result, *_ in passes
            ),
            "ckpt_mb": sum(b for *_, b in passes) / max(checkpoints, 1) / 1e6,
        }
        if paced is not None:
            latencies = paced[2]
            metrics["latency_p50_ms"] = nearest_rank(latencies, 50) * 1e3
            # p98: a 10 s run has about 600 open-loop windows.
            metrics["latency_tail_ms"] = nearest_rank(latencies, 98) * 1e3
            details["open_windows"] = len(latencies)
            details["window_p90_ms"] = nearest_rank(latencies, 90) * 1e3
            details["window_p99_ms"] = nearest_rank(latencies, 99) * 1e3
        return Phase(
            ops=windows, failed=failed, wall_s=wall, cpu_s=cpu,
            metrics=metrics, details=details,
        )

    def _matches_oracle(self, result) -> bool:
        oracle = self.expected.get(result.windows)
        model = result.model
        return (
            oracle is not None
            and np.array_equal(model.components, oracle.components)
            and np.array_equal(model.mean, oracle.mean)
            and model.noise_variance == oracle.noise_variance
        )


WORKLOADS = {
    workload.name: workload
    for workload in (TextMapReduceFit, DenseSparkFit, ServeWorkload, StreamWorkload)
}


def make(name: str, scale: str, work_dir: Path):
    """The workload named *name* (the names in BENCHMARK.json)."""
    return WORKLOADS[name](scale, work_dir)
