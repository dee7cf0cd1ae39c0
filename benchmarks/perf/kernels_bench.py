"""Kernel benchmark: worker residency and the raw-BLAS floor.

Two measurements:

- **residency**: per-iteration bytes crossing the process-pool pickle pipe,
  worker-resident pinning on vs off -- the paper's intermediate-data
  argument applied to the driver-worker pipe (target: >= 5x fewer).
- **raw_blas**: the same per-iteration kernel math (one YtX/XtX) on the
  whole dataset as one block in a single process, against the faster of
  the MapReduce and Spark engine fits at fine record granularity.  That is
  the BLAS floor the simulator's scheduling, serde, and byte accounting sit
  on top of; the gap is reported, not asserted -- it is the honest price of
  simulating a cluster.

Results are written as ``BENCH_kernels.json``; wall-clock only, ratios are
the meaningful quantity.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

from perf.harness import best_of, provenance, _validate_provenance
from repro.backends.mapreduce import MapReduceBackend
from repro.backends.spark import SparkBackend
from repro.core import SPCA, SPCAConfig
from repro.engine.cluster import ClusterSpec
from repro.engine.exec import ProcessPoolTaskExecutor
from repro.engine.mapreduce.runtime import MapReduceRuntime
from repro.engine.spark.context import SparkContext
from repro.jobs import kernels
from repro.obs.metrics import collecting

KERNELS_BENCH_NAME = "BENCH_kernels"

CLUSTER = ClusterSpec(num_nodes=2, cores_per_node=4)

REQUIRED_RESIDENCY_FIELDS = {
    "executor",
    "shape",
    "records_per_task",
    "plain_bytes_per_iteration",
    "resident_bytes_per_iteration",
    "reduction",
}
REQUIRED_RAW_BLAS_FIELDS = {
    "shape", "iterations", "records_per_task", "raw_s", "engine", "engine_fit_s",
    "gap",
}
ENGINES = ("mapreduce", "spark")


def _fit(engine: str, data, records_per_task: int, max_iterations: int,
         executor=None, worker_resident: bool = False):
    config = SPCAConfig(
        n_components=5,
        max_iterations=max_iterations,
        tolerance=0.0,
        seed=1,
        compute_error_every_iteration=False,
    )
    if engine == "mapreduce":
        runtime = MapReduceRuntime(cluster=CLUSTER, executor=executor)
        backend = MapReduceBackend(
            config,
            runtime=runtime,
            records_per_split=records_per_task,
            worker_resident=worker_resident,
        )
    else:
        context = SparkContext(cluster=CLUSTER, executor=executor)
        backend = SparkBackend(
            config, context=context, records_per_partition=records_per_task
        )
    model, _ = SPCA(config, backend).fit(data)
    if worker_resident:
        backend._unpin_resident()
    return model


# -- worker residency -------------------------------------------------------


def bench_residency(data, records_per_task: int) -> dict:
    """Per-iteration pickle-pipe bytes, worker-resident pinning on vs off.

    Measured as the difference between a 3-iteration and a 1-iteration fit
    (halved): the steady-state cost of one extra EM iteration, excluding
    the one-time pin/first-dispatch bytes.
    """

    def per_iteration(worker_resident: bool) -> float:
        totals = {}
        for iterations in (1, 3):
            with ProcessPoolTaskExecutor(workers=2) as executor:
                with collecting() as registry:
                    _fit(
                        "mapreduce",
                        data,
                        records_per_task,
                        iterations,
                        executor=executor,
                        worker_resident=worker_resident,
                    )
                    totals[iterations] = registry.counter_total(
                        "spca_executor_payload_bytes_total"
                    )
        return (totals[3] - totals[1]) / 2

    plain = per_iteration(False)
    resident = per_iteration(True)
    return {
        "executor": "processes",
        "shape": list(data.shape),
        "records_per_task": records_per_task,
        "plain_bytes_per_iteration": plain,
        "resident_bytes_per_iteration": resident,
        "reduction": plain / max(resident, 1e-12),
    }


# -- raw-BLAS floor ---------------------------------------------------------


def bench_raw_blas(
    data, records_per_task: int, max_iterations: int, repeats: int
) -> dict:
    """The per-iteration kernel math on one whole-dataset block, no engine.

    This is what a single process doing straight numpy/BLAS calls pays for
    the same EM arithmetic; ``gap`` is how much slower the faster engine
    fit is, i.e. the cost of the simulated cluster around the math.
    """
    d = 5
    rng = np.random.default_rng(2)
    mean = np.asarray(data.mean(axis=0)).ravel()
    projector = rng.normal(size=(data.shape[1], d))
    latent_mean = rng.normal(size=d)

    def run() -> None:
        for _ in range(max_iterations):
            kernels.block_ytx_xtx(data, mean, projector, latent_mean, True)

    raw_s = best_of(run, repeats)
    fit_s = {
        engine: best_of(
            lambda: _fit(engine, data, records_per_task, max_iterations), repeats
        )
        for engine in ENGINES
    }
    engine = min(fit_s, key=fit_s.get)
    return {
        "shape": list(data.shape),
        "iterations": max_iterations,
        "records_per_task": records_per_task,
        "raw_s": raw_s,
        "engine": engine,
        "engine_fit_s": fit_s[engine],
        "gap": fit_s[engine] / max(raw_s, 1e-12),
    }


# -- suite ------------------------------------------------------------------


def run_kernels_suite(quick: bool = False, repeats: int | None = None) -> dict:
    """Run the kernels suite; returns the BENCH_kernels document."""
    if repeats is None:
        repeats = 2 if quick else 3
    if quick:
        data = sp.random(800, 120, density=0.05, random_state=0, format="csr")
        records_per_task = 8
        max_iterations = 2
        residency_data = np.random.default_rng(7).normal(size=(512, 32))
        residency_records = 64
    else:
        data = sp.random(2000, 200, density=0.05, random_state=0, format="csr")
        records_per_task = 8
        max_iterations = 5
        residency_data = np.random.default_rng(7).normal(size=(1024, 32))
        residency_records = 128

    result = {
        "bench": KERNELS_BENCH_NAME,
        "quick": quick,
        "repeats": repeats,
        "created_unix": time.time(),
        "provenance": provenance(),
        "residency": bench_residency(residency_data, residency_records),
        "raw_blas": bench_raw_blas(data, records_per_task, max_iterations, repeats),
    }
    validate_kernels(result)
    return result


def validate_kernels(result: dict) -> None:
    """Schema check for a BENCH_kernels document; raises ValueError."""
    for field in ("bench", "quick", "repeats", "created_unix", "residency", "raw_blas"):
        if field not in result:
            raise ValueError(f"missing top-level field {field!r}")
    if result["bench"] != KERNELS_BENCH_NAME:
        raise ValueError(
            f"bench must be {KERNELS_BENCH_NAME!r}, got {result['bench']!r}"
        )
    _validate_provenance(result)
    residency = result["residency"]
    missing = REQUIRED_RESIDENCY_FIELDS - residency.keys()
    if missing:
        raise ValueError(f"residency missing {sorted(missing)}")
    if residency["resident_bytes_per_iteration"] <= 0:
        raise ValueError("residency measured no resident dispatch bytes")
    if residency["reduction"] <= 1:
        raise ValueError("residency must reduce per-iteration bytes")
    raw = result["raw_blas"]
    missing = REQUIRED_RAW_BLAS_FIELDS - raw.keys()
    if missing:
        raise ValueError(f"raw_blas missing {sorted(missing)}")
    if raw["engine"] not in ENGINES:
        raise ValueError(f"raw_blas: unknown engine {raw['engine']!r}")
    for field in ("raw_s", "engine_fit_s", "gap"):
        if not (isinstance(raw[field], float) and raw[field] > 0):
            raise ValueError(f"raw_blas: bad {field}")


def summarize_kernels(result: dict) -> str:
    prov = result["provenance"]
    residency = result["residency"]
    raw = result["raw_blas"]
    return "\n".join([
        f"{result['bench']}  (quick={result['quick']}, repeats={result['repeats']}, "
        f"cpus={prov['cpu_count']}, sha={prov['git_sha'][:12]})",
        f"residency ({residency['executor']}, shape={residency['shape']}): "
        f"{residency['plain_bytes_per_iteration']:.0f} -> "
        f"{residency['resident_bytes_per_iteration']:.0f} B/iteration "
        f"({residency['reduction']:.1f}x fewer)",
        f"raw BLAS floor: {raw['raw_s']:.4f}s vs best engine fit "
        f"({raw['engine']}) {raw['engine_fit_s']:.4f}s "
        f"(simulator gap {raw['gap']:.1f}x)",
    ])
