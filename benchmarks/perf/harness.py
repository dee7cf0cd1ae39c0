"""Timing harness for the record pipeline and the executor layer.

``BENCH_3`` times the shuffle partitioner against its per-record baseline
(one crc32 per distinct key vs one per record) and stamps the engine
metrics of one traced quick fit.  ``BENCH_5`` times end-to-end
``SPCA.fit`` on both engines under every executor.  See the perf section
of ``benchmarks/README.md`` for the schemas.

Wall-clock only: these are real Python timings of the simulator itself, not
simulated cluster seconds.  Ratios are the meaningful quantity.
"""

from __future__ import annotations

import os
import pathlib
import platform
import subprocess
import time
from typing import Any, Callable

import scipy.sparse as sp

from repro.backends.mapreduce import MapReduceBackend
from repro.backends.spark import SparkBackend
from repro.core import SPCA, SPCAConfig
from repro.engine.cluster import ClusterSpec
from repro.engine.exec import EXECUTOR_NAMES, make_executor
from repro.engine.mapreduce import MapReduceRuntime
from repro.engine.mapreduce.runtime import _partition_of, _partition_pairs
from repro.engine.spark.context import SparkContext
from repro.obs import collecting, tracing
from repro.obs.export import TraceData
from repro.obs.metrics import METRICS_SCHEMA

BENCH_NAME = "BENCH_3"
EXEC_BENCH_NAME = "BENCH_5"

CLUSTER = ClusterSpec(num_nodes=2, cores_per_node=4)

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

REQUIRED_OP_FIELDS = {"name", "baseline_s", "optimized_s", "speedup", "params"}
REQUIRED_PROVENANCE_FIELDS = {"git_sha", "cpu_count", "python", "platform"}
REQUIRED_EXEC_FIELDS = {
    "backend",
    "executor",
    "workers",
    "shape",
    "records_per_task",
    "fit_s",
    "speedup_vs_serial",
}


def provenance(**config: Any) -> dict:
    """Machine/build provenance recorded in every BENCH_* document.

    Timings are meaningless without knowing what produced them: the commit,
    the core count (a 1-core container cannot show multi-core speedups, and
    the document must say so), and the interpreter.  Extra keyword arguments
    record the benchmark's own configuration (executor, workers, ...).
    """
    try:
        git_sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=_REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        git_sha = "unknown"
    return {
        "git_sha": git_sha,
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "platform": platform.platform(),
        **config,
    }


def _validate_provenance(result: dict) -> None:
    prov = result.get("provenance")
    if not isinstance(prov, dict):
        raise ValueError("missing top-level field 'provenance'")
    missing = REQUIRED_PROVENANCE_FIELDS - prov.keys()
    if missing:
        raise ValueError(f"provenance missing fields {sorted(missing)}")
    if not (isinstance(prov["cpu_count"], int) and prov["cpu_count"] >= 1):
        raise ValueError("provenance cpu_count must be a positive int")


def best_of(fn: Callable[[], Any], repeats: int) -> float:
    """Best (minimum) wall-clock seconds of *repeats* calls to *fn*."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _op(name: str, baseline_s: float, optimized_s: float, **params: Any) -> dict:
    return {
        "name": name,
        "baseline_s": baseline_s,
        "optimized_s": optimized_s,
        "speedup": baseline_s / max(optimized_s, 1e-12),
        "params": params,
    }


# -- micro ops -------------------------------------------------------------


def bench_shuffle_partitioning(repeats: int, n_records: int) -> dict:
    """One crc32 per distinct key repr vs one per record."""
    keys = ["YtX", "XtX", "mean/sums", "mean/count", "fnorm", "ss3"]
    pairs = [(keys[i % len(keys)], i) for i in range(n_records)]

    def per_record():
        buckets = [[] for _ in range(4)]
        for pair in pairs:
            buckets[_partition_of(pair[0], 4)].append(pair)
        return buckets

    return _op(
        "shuffle_partitioning",
        baseline_s=best_of(per_record, repeats),
        optimized_s=best_of(lambda: _partition_pairs(pairs, 4), repeats),
        n_records=n_records,
        n_distinct_keys=len(keys),
    )


# -- fits ------------------------------------------------------------------


def _fit_config(max_iterations: int) -> SPCAConfig:
    return SPCAConfig(
        n_components=5,
        max_iterations=max_iterations,
        tolerance=0.0,
        seed=1,
        compute_error_every_iteration=False,
    )


# -- suite -----------------------------------------------------------------


def run_suite(quick: bool = False, repeats: int | None = None) -> dict:
    """Run every benchmark; returns the BENCH_3 result document."""
    if repeats is None:
        repeats = 2 if quick else 3
    ops = [bench_shuffle_partitioning(repeats, 2000 if quick else 20000)]
    # The metrics of one traced fit are stamped into the document, so a
    # BENCH_3.json records not just timings but what the engines actually
    # did (jobs, bytes moved).
    _, metrics_snapshot = traced_quick_fit()
    result = {
        "bench": BENCH_NAME,
        "quick": quick,
        "repeats": repeats,
        "created_unix": time.time(),
        # The suite always measures the serial executor: cross-core scaling
        # is BENCH_5's job.
        "provenance": provenance(executor="serial", workers=1),
        "ops": ops,
        "metrics": metrics_snapshot,
    }
    validate(result)
    return result


def _validate_metrics(result: dict) -> None:
    """Check the stamped metrics snapshot, when present.

    Optional for backward compatibility with documents generated before the
    metrics registry existed; when the block is there it must be a valid
    ``repro.metrics/1`` snapshot that saw at least one engine job.
    """
    snapshot = result.get("metrics")
    if snapshot is None:
        return
    if snapshot.get("schema") != METRICS_SCHEMA:
        raise ValueError(
            f"metrics block schema must be {METRICS_SCHEMA!r}, "
            f"got {snapshot.get('schema')!r}"
        )
    jobs = [
        c for c in snapshot.get("counters", []) if c["name"] == "spca_jobs_total"
    ]
    if not jobs or sum(c["value"] for c in jobs) <= 0:
        raise ValueError("metrics block recorded no engine jobs")


def validate(result: dict) -> None:
    """Schema check for a BENCH_3 document; raises ValueError on violation."""
    for field in ("bench", "quick", "repeats", "created_unix", "ops"):
        if field not in result:
            raise ValueError(f"missing top-level field {field!r}")
    if result["bench"] != BENCH_NAME:
        raise ValueError(f"bench must be {BENCH_NAME!r}, got {result['bench']!r}")
    _validate_provenance(result)
    _validate_metrics(result)
    if not result["ops"]:
        raise ValueError("ops must be non-empty")
    for op in result["ops"]:
        missing = REQUIRED_OP_FIELDS - op.keys()
        if missing:
            raise ValueError(f"op {op.get('name')!r} missing fields {sorted(missing)}")
        for field in ("baseline_s", "optimized_s", "speedup"):
            if not (isinstance(op[field], float) and op[field] > 0):
                raise ValueError(f"op {op['name']!r}: {field} must be positive")


# -- executor scaling suite (BENCH_5) --------------------------------------


def _fit_once(
    backend_kind: str,
    data,
    records_per_task: int,
    max_iterations: int,
    executor,
) -> None:
    config = _fit_config(max_iterations)
    if backend_kind == "mapreduce":
        runtime = MapReduceRuntime(cluster=CLUSTER, executor=executor)
        backend = MapReduceBackend(
            config, runtime=runtime, records_per_split=records_per_task
        )
    else:
        context = SparkContext(cluster=CLUSTER, executor=executor)
        backend = SparkBackend(
            config, context=context, records_per_partition=records_per_task
        )
    SPCA(config, backend).fit(data)


def run_executor_suite(quick: bool = False, repeats: int | None = None) -> dict:
    """End-to-end ``SPCA.fit`` under every executor; the BENCH_5 document.

    For each backend: a serial baseline, then ``threads`` and ``processes``
    across a worker-scaling curve.  ``speedup_vs_serial`` is recorded as
    measured -- on a single-core machine (see ``provenance.cpu_count``) the
    curve is honestly flat-to-negative, which is exactly why provenance is
    part of the schema.
    """
    if repeats is None:
        repeats = 1 if quick else 2
    if quick:
        data = sp.random(600, 100, density=0.05, random_state=0, format="csr")
        records_per_task = 8
        max_iterations = 2
        worker_counts = [1, 2]
    else:
        data = sp.random(2400, 240, density=0.05, random_state=0, format="csr")
        records_per_task = 16
        max_iterations = 3
        worker_counts = [1, 2, 4]

    def entry(executor_name: str, workers: int, fit_s: float, serial_s: float, kind: str) -> dict:
        return {
            "backend": kind,
            "executor": executor_name,
            "workers": workers,
            "shape": list(data.shape),
            "records_per_task": records_per_task,
            "fit_s": fit_s,
            "speedup_vs_serial": serial_s / max(fit_s, 1e-12),
        }

    end_to_end = []
    with collecting() as registry:
        for kind in ("mapreduce", "spark"):
            serial_s = best_of(
                lambda: _fit_once(kind, data, records_per_task, max_iterations, None),
                repeats,
            )
            end_to_end.append(entry("serial", 1, serial_s, serial_s, kind))
            for executor_name in ("threads", "processes"):
                for workers in worker_counts:
                    with make_executor(executor_name, workers) as executor:
                        fit_s = best_of(
                            lambda: _fit_once(
                                kind, data, records_per_task, max_iterations, executor
                            ),
                            repeats,
                        )
                    end_to_end.append(
                        entry(executor_name, workers, fit_s, serial_s, kind)
                    )
        metrics_snapshot = registry.snapshot()
    result = {
        "bench": EXEC_BENCH_NAME,
        "quick": quick,
        "repeats": repeats,
        "created_unix": time.time(),
        "provenance": provenance(worker_counts=worker_counts),
        "end_to_end": end_to_end,
        "metrics": metrics_snapshot,
    }
    validate_executor(result)
    return result


def validate_executor(result: dict) -> None:
    """Schema check for a BENCH_5 document; raises ValueError on violation."""
    for field in ("bench", "quick", "repeats", "created_unix", "end_to_end"):
        if field not in result:
            raise ValueError(f"missing top-level field {field!r}")
    if result["bench"] != EXEC_BENCH_NAME:
        raise ValueError(
            f"bench must be {EXEC_BENCH_NAME!r}, got {result['bench']!r}"
        )
    _validate_provenance(result)
    _validate_metrics(result)
    if not result["end_to_end"]:
        raise ValueError("end_to_end must be non-empty")
    curves: dict[tuple[str, str], set[int]] = {}
    for item in result["end_to_end"]:
        missing = REQUIRED_EXEC_FIELDS - item.keys()
        if missing:
            raise ValueError(
                f"end_to_end {item.get('backend')!r} missing {sorted(missing)}"
            )
        if item["backend"] not in ("mapreduce", "spark"):
            raise ValueError(f"unknown backend {item['backend']!r}")
        if item["executor"] not in EXECUTOR_NAMES:
            raise ValueError(f"unknown executor {item['executor']!r}")
        if not (isinstance(item["workers"], int) and item["workers"] >= 1):
            raise ValueError("workers must be a positive int")
        for field in ("fit_s", "speedup_vs_serial"):
            if not (isinstance(item[field], float) and item[field] > 0):
                raise ValueError(
                    f"end_to_end {item['backend']!r}: {field} must be positive"
                )
        curves.setdefault((item["backend"], item["executor"]), set()).add(
            item["workers"]
        )
    for kind in ("mapreduce", "spark"):
        if (kind, "serial") not in curves:
            raise ValueError(f"missing serial baseline for backend {kind!r}")
        for executor_name in ("threads", "processes"):
            counts = curves.get((kind, executor_name), set())
            if len(counts) < 2:
                raise ValueError(
                    f"{kind}/{executor_name} needs a worker-scaling curve "
                    f"(>= 2 worker counts), got {sorted(counts)}"
                )


def summarize_executor(result: dict) -> str:
    prov = result["provenance"]
    lines = [
        f"{result['bench']}  (quick={result['quick']}, repeats={result['repeats']}, "
        f"cpus={prov['cpu_count']}, sha={prov['git_sha'][:12]})"
    ]
    lines.append(f"{'fit':<28}{'workers':>8}{'fit s':>12}{'vs serial':>11}")
    for item in result["end_to_end"]:
        label = f"{item['backend']}/{item['executor']}"
        lines.append(
            f"{label:<28}{item['workers']:>8}{item['fit_s']:>12.4f}"
            f"{item['speedup_vs_serial']:>10.2f}x"
        )
    return "\n".join(lines)


def traced_quick_fit() -> tuple[TraceData, dict]:
    """One deterministic quick-shape fit, traced and metered.

    Used by ``run.py --trace-out/--metrics-out`` and by CI's trace-diff
    step, and its metrics fill BENCH_3's ``metrics`` block.  The returned
    trace uses simulated time only, so two runs of this function on any
    machine produce diff-identical traces.
    """
    data = sp.random(800, 120, density=0.05, random_state=0, format="csr")
    config = _fit_config(max_iterations=2)
    with tracing() as tracer, collecting() as registry:
        backend = SparkBackend(
            config,
            context=SparkContext(cluster=CLUSTER),
            records_per_partition=8,
        )
        SPCA(config, backend).fit(data)
        snapshot = registry.snapshot()
    return TraceData.from_tracer(tracer), snapshot


def summarize(result: dict) -> str:
    lines = [f"{result['bench']}  (quick={result['quick']}, repeats={result['repeats']})"]
    lines.append(f"{'op':<24}{'baseline s':>12}{'optimized s':>13}{'speedup':>9}")
    for op in result["ops"]:
        lines.append(
            f"{op['name']:<24}{op['baseline_s']:>12.4f}"
            f"{op['optimized_s']:>13.4f}{op['speedup']:>8.2f}x"
        )
    return "\n".join(lines)
