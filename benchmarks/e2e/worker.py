"""Run one workload in this (fresh) process and print its result as JSON.

Started by ``run.py`` with single-threaded BLAS and ``PYTHONPATH`` pointing
at the checkout's ``src``.  Progress goes to stderr; the last stdout line is
the result document.  With ``--trace 0`` the result carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a separate
traced run (see README.md for the phases of a traced run).

Set-up time is measured in fresh processes (``--setup-only``), each timing
the program's import plus one ``setup`` of the workload, so one-time work a
first call does is not hidden by warm caches.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Fresh-process set-ups per run by scale; ``setup_s`` reports their median.
SETUPS = {"full": 5, "smoke": 2}
SETUP_TIMEOUT_S = 60


def log(message: str) -> None:
    print(f"[{time.strftime('%H:%M:%S')}] {message}", file=sys.stderr, flush=True)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer(workload, seconds: float, spans_path: Path) -> tuple[dict, dict, list[str]]:
    """The traced run: four modes -- untraced, wrapped in the benchmark's
    spans, the program's tracer on, the program's metrics registry on --
    measured in interleaved rounds, so drift in the machine's speed hits
    every mode alike.  Returns the per-layer metrics, details and absent
    targets.
    """
    from repro.obs import MetricsRegistry, get_registry, set_registry, tracing
    from spans import LAYERS, Recorder, layer_table
    from workloads import Phase

    recorder = Recorder()
    registry = MetricsRegistry()
    absent: list[str] = []

    @contextlib.contextmanager
    def wrapped_in_spans():
        absent[:] = recorder.install()
        try:
            yield
        finally:
            recorder.uninstall()

    @contextlib.contextmanager
    def registry_on():
        previous = get_registry()
        set_registry(registry)
        try:
            yield
        finally:
            set_registry(previous)

    modes = {
        "baseline": contextlib.nullcontext,
        "wrapped": wrapped_in_spans,
        "tracer": tracing,
        "registry": registry_on,
    }
    rounds: dict[str, list[Phase]] = {mode: [] for mode in modes}
    order = list(modes)
    for index in range(workload.trace_rounds):
        log(f"traced run: round {index + 1}/{workload.trace_rounds}")
        recorder.op = index
        # Rotate which mode goes first, so no mode always follows another.
        shift = index % len(order)
        for mode in order[shift:] + order[:shift]:
            with modes[mode]():
                rounds[mode].append(workload.trace_measure(seconds))
    recorder.dump(spans_path, op=0)
    base, wrapped, traced, collected = (
        Phase(
            ops=sum(p.ops for p in phases),
            failed=sum(p.failed for p in phases),
            wall_s=sum(p.wall_s for p in phases),
            cpu_s=sum(p.cpu_s for p in phases),
            details=phases[0].details,
        )
        for phases in rounds.values()
    )

    def cpu_per_op(mode: str) -> float:
        """Median over rounds, so one round in a slow stretch does not
        decide a ratio."""
        return statistics.median(p.cpu_s / p.ops for p in rounds[mode])

    ops = wrapped.ops
    layers = layer_table(recorder.spans)
    empty = {"spans": 0, "total_s": 0.0, "self_s": 0.0, "flops": 0.0}
    self_total = sum(row["self_s"] for row in layers.values())
    values: dict[str, float] = {}
    for layer in LAYERS:
        row = layers.get(layer, empty)
        values[f"{layer}.calls"] = row["spans"] / ops
        values[f"{layer}.self_s"] = row["self_s"] / ops
    kernels = layers.get("jobs.kernels", empty)
    values["jobs.kernels.gflop"] = kernels["flops"] / ops / 1e9
    values["jobs.kernels.gflops"] = (
        kernels["flops"] / kernels["self_s"] / 1e9 if kernels["self_s"] else 0.0
    )
    values["serve.dispatch_util"] = layers.get("serve.dispatch", empty)["total_s"] / wrapped.wall_s
    values["serve.requests"] = recorder.awaited["serve.submit"]
    values["serve.failed"] = recorder.awaited_failures["serve.submit"]
    values["trace.coverage"] = self_total / wrapped.wall_s
    values["trace.overhead"] = cpu_per_op("wrapped") / cpu_per_op("baseline")
    values["obs.tracer_ratio"] = cpu_per_op("tracer") / cpu_per_op("baseline")
    values["obs.registry_ratio"] = cpu_per_op("registry") / cpu_per_op("baseline")

    snapshot = registry.snapshot()

    def counter(name: str) -> float:
        return sum(c["value"] for c in snapshot["counters"] if c["name"] == name)

    histograms = {h["name"]: h for h in snapshot["histograms"]}
    values["engine.jobs"] = counter("spca_jobs_total") / collected.ops
    values["engine.shuffle_mb"] = counter("spca_shuffle_bytes_total") / collected.ops / 1e6
    values["engine.hdfs_read_mb"] = counter("spca_hdfs_read_bytes_total") / collected.ops / 1e6
    values["engine.broadcast_mb"] = counter("spca_broadcast_bytes_total") / collected.ops / 1e6
    values["engine.task_retries"] = counter("spca_task_retries_total")
    values["serve.batches"] = counter("spca_serve_batches_total")
    batch_rows = histograms.get("spca_serve_batch_rows")
    values["serve.batch_rows"] = batch_rows["sum"] / batch_rows["count"] if batch_rows else 0.0
    wait = histograms.get("spca_serve_queue_wait_seconds")
    values["serve.queue_wait_ms_p50"] = wait["p50"] * 1e3 if wait else 0.0
    values["serve.queue_wait_ms_p99"] = wait["p99"] * 1e3 if wait else 0.0

    details = base.details
    values["loadgen.late_ms_p99"] = details.get("late_ms_p99", 0.0)
    values["core.iters_to_target"] = details.get("iters_to_target", 0)
    values["core.iter_ms_p50"] = details.get("iter_ms_p50", 0.0)
    values["engine.sim_tta_s"] = details.get("sim_tta_s", 0.0)
    values["engine.intermediate_mb"] = details.get("intermediate_mb", 0.0)
    values["stream.ckpt_mb"] = details.get("ckpt_mb", 0.0)
    values["stream.drift_events"] = details.get("drift_events_per_pass", 0)

    table = {
        layer: {
            "calls_per_op": row["spans"] / ops,
            "self_s_per_op": row["self_s"] / ops,
            "share": row["self_s"] / self_total if self_total else 0.0,
        }
        for layer, row in sorted(layers.items(), key=lambda item: -item[1]["self_s"])
    }
    phases = {
        name: {"ops": p.ops, "wall_s": p.wall_s, "cpu_s": p.cpu_s, "failed": p.failed}
        for name, p in (
            ("baseline", base), ("wrapped", wrapped), ("tracer", traced), ("registry", collected)
        )
    }
    return values, {"layers": table, "phases": phases}, absent


def setup_in_fresh_process(args) -> float:
    """One set-up in a new interpreter: import plus ``workload.setup()``."""
    command = [
        sys.executable, __file__, "--setup-only", "--work", str(args.work),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--scale", args.scale,
    ]
    completed = subprocess.run(
        command, env=os.environ, stdout=subprocess.PIPE, text=True,
        timeout=SETUP_TIMEOUT_S, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--work", type=Path, required=True, help="scratch directory of the run")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    import workloads  # the program's first import: start of set-up

    import_s = time.perf_counter() - started
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported repro from {repro.__file__}, not from {ROOT / 'src'}")

    workload = workloads.make(args.workload, args.scale, args.work)
    if args.setup_only:
        workload.prep(args.seed, args.seconds)
        print(json.dumps({"setup_s": import_s + workload.setup(), "import_s": import_s}))
        return 0

    log(f"{args.workload}: prep")
    prep_started = time.perf_counter()
    workload.prep(args.seed, args.seconds)
    prep_s = time.perf_counter() - prep_started
    setups: list[float] = []
    wanted = SETUPS[args.scale]

    def probe_setup() -> None:
        setups.append(setup_in_fresh_process(args))
        log(f"{args.workload}: set-up {len(setups)}/{wanted} took {setups[-1]:.3f}s")

    if not args.trace:
        for _ in range(wanted // 2):
            probe_setup()
    warmup_s = workload.setup()
    workload.oracles()

    if args.trace:
        metrics, details, absent = per_layer(workload, args.seconds, args.spans)
        attempted = sum(p["ops"] for p in details["phases"].values())
        failed = sum(p["failed"] for p in details["phases"].values())
    else:
        log(f"{args.workload}: measuring for {args.seconds:g}s")
        phase = workload.measure(args.seconds)
        # The other set-ups run after the measured phase, so a slow stretch
        # of the shared machine is less likely to hold them all.
        while len(setups) < wanted:
            probe_setup()
        metrics = dict(
            phase.metrics, setup_s=statistics.median(setups), peak_rss_mb=peak_rss_mb()
        )
        attempted, failed, absent = phase.ops, phase.failed, []
        details = dict(phase.details, ops=phase.ops, wall_s=phase.wall_s, cpu_s=phase.cpu_s)

    details.update(import_s=import_s, prep_s=prep_s, setups_s=setups, warmup_s=warmup_s)
    print(
        json.dumps(
            {
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
                "details": details,
                "absent": absent,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
