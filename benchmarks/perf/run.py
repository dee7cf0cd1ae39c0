"""CLI for the perf harness: record-pipeline and executor-scaling suites.

Usage::

    PYTHONPATH=src python benchmarks/perf/run.py                    # BENCH_3.json
    PYTHONPATH=src python benchmarks/perf/run.py --suite executor   # BENCH_5.json
    PYTHONPATH=src python benchmarks/perf/run.py --suite kernels    # BENCH_kernels.json
    PYTHONPATH=src python benchmarks/perf/run.py --suite serve      # BENCH_serve.json
    PYTHONPATH=src python benchmarks/perf/run.py --suite stream     # BENCH_stream.json
    PYTHONPATH=src python benchmarks/perf/run.py --quick            # CI smoke shapes

``batch`` times the shuffle partitioner against its per-record baseline
and stamps the engine metrics of one traced fit; ``executor`` measures end-to-end ``SPCA.fit`` under the
``serial``/``threads``/``processes`` executors across a worker-scaling
curve; ``serve`` fires a storm of concurrent single-row requests at the
micro-batching serving layer (batched vs unbatched, bitwise-verified);
``kernels`` measures the worker-resident per-iteration dispatch-byte
reduction and the raw-BLAS floor under the engine fits; ``stream``
measures windowed streaming PCA on each engine (sustained rows/s, window
wall percentiles, backpressure lag, checkpoint overhead, bitwise-verified
against the incremental oracle).
Each writes its result document (schema: perf section of
``benchmarks/README.md``) to the repo root -- ``BENCH_3.json``,
``BENCH_5.json``, ``BENCH_serve.json``, or ``BENCH_stream.json`` --
unless ``--output`` overrides it, and prints a summary
table.  Exits non-zero if the document fails schema validation, so a CI run
doubles as a schema check; absolute timings are never asserted.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from perf.harness import (  # noqa: E402
    run_executor_suite,
    run_suite,
    summarize,
    summarize_executor,
    traced_quick_fit,
    validate,
    validate_executor,
)
from perf.kernels_bench import (  # noqa: E402
    run_kernels_suite,
    summarize_kernels,
    validate_kernels,
)
from perf.stream_bench import (  # noqa: E402
    run_stream_suite,
    summarize_stream,
    validate_stream,
)
from repro.serve.loadgen import (  # noqa: E402
    run_serve_suite,
    summarize_serve,
    validate_serve,
)


def _run_serve(quick: bool = False, repeats: int | None = None) -> dict:
    # The serve load generator measures one storm per mode; latency
    # percentiles come from request counts, not repeats.
    del repeats
    return run_serve_suite(quick=quick)


SUITES = {
    "batch": (run_suite, validate, summarize, "BENCH_3.json"),
    "executor": (
        run_executor_suite,
        validate_executor,
        summarize_executor,
        "BENCH_5.json",
    ),
    "kernels": (
        run_kernels_suite,
        validate_kernels,
        summarize_kernels,
        "BENCH_kernels.json",
    ),
    "serve": (_run_serve, validate_serve, summarize_serve, "BENCH_serve.json"),
    "stream": (
        run_stream_suite,
        validate_stream,
        summarize_stream,
        "BENCH_stream.json",
    ),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--suite",
        choices=sorted(SUITES),
        default="batch",
        help="which suite to run (batch -> BENCH_3, executor -> BENCH_5, "
             "serve -> BENCH_serve, stream -> BENCH_stream)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small shapes for CI smoke runs (seconds, not minutes)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="timing repeats per measurement (default depends on --quick)",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=None,
        help="where to write the result JSON (default: <repo>/BENCH_N.json)",
    )
    parser.add_argument(
        "--trace-out",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="also run one deterministic quick-shape traced fit and write "
             "its trace here (.jsonl or Chrome JSON); pairs with "
             "'repro-spca diff' against a committed baseline",
    )
    parser.add_argument(
        "--metrics-out",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="write the traced fit's metrics snapshot here "
             "(.prom for Prometheus text, else JSON)",
    )
    args = parser.parse_args(argv)

    if args.trace_out or args.metrics_out:
        # Artifact mode: one deterministic traced fit instead of the timing
        # suite (CI diffs the trace against a committed baseline).
        from repro.obs import write_snapshot, write_trace

        trace, snapshot = traced_quick_fit()
        if args.trace_out:
            print(f"wrote {write_trace(trace, args.trace_out)}")
        if args.metrics_out:
            write_snapshot(snapshot, args.metrics_out)
            print(f"wrote {args.metrics_out}")
        return 0

    run, validate_fn, summarize_fn, default_name = SUITES[args.suite]
    output = args.output or REPO_ROOT / default_name
    result = run(quick=args.quick, repeats=args.repeats)
    validate_fn(result)
    output.write_text(json.dumps(result, indent=2) + "\n")
    print(summarize_fn(result))
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
