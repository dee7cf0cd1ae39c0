"""The end-to-end benchmark: one command, every workload, checked outputs.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --seed 0                  # all workloads
    python3 benchmarks/e2e/run.py --workload fit-text-mr --seed 3 --trace 1
    python3 benchmarks/e2e/run.py --seed 0 --out benchmarks/e2e/results/x.json

Each workload runs in a fresh ``worker.py`` process with single-threaded
BLAS, so set-up time includes the program's first import and peak RSS is
the workload's own.  Workload names, metric names, units and bounds come
from ``BENCHMARK.json`` at the repository root.  The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  The exit code is non-zero, with no result line, when the
program cannot be found or a workload crashes or misses a metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Scratch space for registries, checkpoints and cached inputs.
WORK_ROOT = HERE / ".work"

#: Longest a workload may take before the run is abandoned.
WORKER_TIMEOUT_S = 170


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def provenance() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"  # a plain checkout, not a git repository
    import numpy
    import scipy

    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": 1,
    }


def run_worker(workload: str, args, spans: Path) -> dict:
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        ),
    )
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scale", args.scale,
        "--spans", str(spans),
    ]
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    try:
        # A session of its own, so stopping the worker also stops the
        # set-up processes it started.
        with subprocess.Popen(
            [*command, "--work", str(work)], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, text=True, start_new_session=True,
        ) as worker:
            try:
                stdout, _ = worker.communicate(timeout=WORKER_TIMEOUT_S)
            except BaseException:  # a timeout or an interrupt; re-raised below
                os.killpg(worker.pid, signal.SIGKILL)
                worker.wait()
                raise
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if worker.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: worker exited with {worker.returncode}")
    return json.loads(lines[-1])


def shape_result(workload: str, raw: dict, spec: dict, trace: int) -> dict:
    """Attach units from BENCHMARK.json; every listed metric must be there."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in raw["metrics"]]
    if missing:
        raise RuntimeError(f"{workload}: missing metrics {missing}")
    failed = int(raw["failed"])
    return {
        "workload": workload,
        "correct": failed == 0 and int(raw["attempted"]) > 0,
        "attempted": int(raw["attempted"]),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": float(raw["metrics"][m["name"]]), "unit": m["unit"]}
            for m in listed
        },
        "details": raw["details"],
        "absent": raw["absent"],
    }


def print_result(result: dict, seed: int) -> None:
    print(
        f"== {result['workload']}  seed={seed}  correct={result['correct']}  "
        f"attempted={result['attempted']}  failed={result['failed']}"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:<32}{metric['value']:>16.6g} {metric['unit']}")
    layers = result["details"].get("layers")
    if layers:
        print(f"  {'layer':<28}{'calls/op':>12}{'self s/op':>14}{'share':>8}")
        for layer, row in layers.items():
            print(
                f"  {layer:<28}{row['calls_per_op']:>12.4g}"
                f"{row['self_s_per_op']:>14.6g}{row['share']:>8.1%}"
            )
    for label in result["absent"]:
        print(f"  absent: {label}")
    details = {k: v for k, v in result["details"].items() if k not in ("layers", "phases")}
    print(f"  details: {json.dumps(details, default=str)}")


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs, for the benchmark's own test")
    parser.add_argument("--out", type=Path, help="also write the results as JSON here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is not at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    spans_dir = args.out.parent if args.out else HERE / "results"
    spans_dir.mkdir(parents=True, exist_ok=True)
    results = []
    for workload in [args.workload] if args.workload else names:
        try:
            raw = run_worker(workload, args, spans_dir / f"{workload}.spans.jsonl")
            result = shape_result(workload, raw, spec, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print_result(result, args.seed)
        results.append(result)

    if args.out:
        args.out.write_text(
            json.dumps(
                {
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "trace": args.trace,
                    "scale": args.scale,
                    "provenance": provenance(),
                    "runs": results,
                },
                indent=1,
            )
            + "\n"
        )
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}/{name}": metric
            for r in results
            for name, metric in r["metrics"].items()
        }
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
