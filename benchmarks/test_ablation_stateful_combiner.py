"""Ablation: the stateful combiner of Section 4.1.

sPCA's YtX mapper keeps in-memory partial matrices and emits them once from
``cleanup``; a naive port emits one partial per input record and relies on
combiners to collapse the flood.  This bench runs the YtX spec through both
MapReduce lowerings on the same input and compares mapper output and job
time -- the same pathology the paper diagnoses in Mahout's Bt job.
"""

import numpy as np
import pytest

from harness import MR_COSTS, format_bytes
from repro.data.generators import bag_of_words
from repro.data.paper import scaled_cluster
from repro.engine.mapreduce import MapReduceRuntime
from repro.jobs import mapreduce_jobs as mr
from repro.jobs import specs
from repro.linalg.blocks import partition_rows


@pytest.mark.benchmark(group="stateful-combiner")
def test_stateful_combiner_vs_per_record_emission(benchmark, report):
    data = bag_of_words(20_000, 2_000, words_per_doc=8.0, seed=44)
    rng = np.random.default_rng(0)
    d = 10
    projector = rng.normal(size=(2_000, d))
    mean = np.asarray(data.mean(axis=0)).ravel()
    latent_mean = mean @ projector
    config = {
        "mean": mean,
        "projector": projector,
        "latent_mean": latent_mean,
        "mean_propagation": True,
    }
    # Many records per split so per-record emission actually floods: blocks
    # of ~40 rows, 8 records per split.
    blocks = partition_rows(data, 512)
    splits = [
        [(block.start, block.data) for block in blocks[i : i + 8]]
        for i in range(0, len(blocks), 8)
    ]
    stats = {}

    def run_both():
        for label, per_record in (("stateful", False), ("per-record", True)):
            runtime = MapReduceRuntime(cluster=scaled_cluster(), cost_model=MR_COSTS)
            output = mr.run_spec(runtime, specs.YTX, splits, config, per_record)
            stats[label] = (runtime.metrics.jobs[-1], output)
        return len(stats)

    benchmark.pedantic(run_both, rounds=1, iterations=1)

    report("Stateful combiner ablation (Section 4.1), YtXJob on 20000x2000")
    report(f"{'mapper':<14}{'map output':>14}{'shuffle':>12}{'sim s':>8}")
    for label, (job_stats, _) in stats.items():
        report(
            f"{label:<14}{format_bytes(job_stats.map_output_bytes):>14}"
            f"{format_bytes(job_stats.shuffle_bytes):>12}{job_stats.sim_seconds:>8.1f}"
        )

    stateful, naive = stats["stateful"][0], stats["per-record"][0]
    # The naive mapper floods: much more raw map output, and a slower job.
    assert naive.map_output_bytes > 5 * stateful.map_output_bytes
    assert naive.sim_seconds > stateful.sim_seconds

    # Both compute identical results: the optimization is free of error.
    params = {"mean": mean}
    lhs = specs.YTX.finish(stats["stateful"][1], params)
    rhs = specs.YTX.finish(stats["per-record"][1], params)
    for left, right in zip(lhs, rhs, strict=True):
        np.testing.assert_allclose(left, right, rtol=1e-8, atol=1e-6)
