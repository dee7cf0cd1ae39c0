"""Table 3: effect of each optimization on its distributed operation.

Paper setup: a 100K-row subset of Tweets on sPCA-Spark; each of the three
optimizations (mean propagation, intermediate-data minimization, sparse
Frobenius norm) is toggled and the affected operation timed.  Paper result:
orders of magnitude per optimization, mean propagation being the largest.
We additionally ablate the fourth documented optimization (job
consolidation).
"""

import numpy as np
import pytest

from harness import SPARK_COSTS, default_config
from repro.backends import SparkBackend
from repro.core import SPCA
from repro.data.generators import bag_of_words
from repro.data.paper import scaled_cluster
from repro.engine.spark.context import SparkContext

N_ROWS = 10_000  # the paper's 100K-row subset, scaled
N_COLS = 7_150


def _fresh_backend(config):
    return SparkBackend(
        config, SparkContext(cluster=scaled_cluster(), cost_model=SPARK_COSTS)
    )


def _stage_seconds(backend, names):
    return sum(j.sim_seconds for j in backend.context.metrics.jobs if j.name in names)


def _measure(data, config, operation, rounds: int = 3):
    """Simulated seconds of one operation under *config* (best of *rounds*).

    Measured task times feed the simulated clock, so a warm-up round plus
    best-of-N suppresses single-process timing noise.
    """
    backend = _fresh_backend(config)
    dataset = backend.load(data)
    mean = backend.column_means(dataset)
    rng = np.random.default_rng(3)
    d = config.n_components
    components = rng.normal(size=(N_COLS, d))
    moment_inv = np.linalg.inv(components.T @ components + 0.5 * np.eye(d))
    projector = components @ moment_inv
    latent_mean = mean @ projector

    samples = []
    for round_index in range(rounds):
        before = backend.context.metrics.total_sim_seconds
        if operation == "frobenius":
            backend.frobenius_centered(dataset, mean)
        else:
            backend.ytx_xtx(dataset, mean, projector, latent_mean)
        samples.append(backend.context.metrics.total_sim_seconds - before)
    return min(samples[1:]) if rounds > 1 else samples[0]


@pytest.mark.benchmark(group="table3")
def test_table3_individual_optimizations(benchmark, report):
    data = bag_of_words(N_ROWS, N_COLS, words_per_doc=8.0, seed=33)
    base = default_config(compute_error_every_iteration=False)
    times = {}

    def run_all():
        times["mean_prop_on"] = _measure(data, base, "ytx")
        times["mean_prop_off"] = _measure(
            data, base.with_options(use_mean_propagation=False), "ytx"
        )
        times["interm_on"] = _measure(data, base, "ytx")
        times["interm_off"] = _measure(
            data, base.with_options(use_x_recomputation=False), "ytx"
        )
        times["frob_on"] = _measure(data, base, "frobenius")
        times["frob_off"] = _measure(
            data, base.with_options(use_efficient_frobenius=False), "frobenius"
        )
        return len(times)

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    report(f"Table 3: per-operation time (sim s), Tweets subset {N_ROWS}x{N_COLS}")
    report(f"{'':<12}{'Mean Prop.':>12}{'Interm. Data':>14}{'Frobenius':>12}")
    report(
        f"{'W/ Opt.':<12}{times['mean_prop_on']:>12.2f}"
        f"{times['interm_on']:>14.2f}{times['frob_on']:>12.2f}"
    )
    report(
        f"{'W/O Opt.':<12}{times['mean_prop_off']:>12.2f}"
        f"{times['interm_off']:>14.2f}{times['frob_off']:>12.2f}"
    )
    report("")
    report(
        "speedups: mean propagation "
        f"{times['mean_prop_off'] / times['mean_prop_on']:.1f}x, "
        f"intermediate data {times['interm_off'] / times['interm_on']:.1f}x, "
        f"Frobenius {times['frob_off'] / times['frob_on']:.1f}x"
    )

    # Every optimization must speed its operation up; mean propagation is
    # the biggest win of the three, as in the paper.
    mean_prop_speedup = times["mean_prop_off"] / times["mean_prop_on"]
    interm_speedup = times["interm_off"] / times["interm_on"]
    frob_speedup = times["frob_off"] / times["frob_on"]
    assert mean_prop_speedup > 2.0
    assert interm_speedup > 1.2
    assert frob_speedup > 2.0
    assert mean_prop_speedup > interm_speedup


@pytest.mark.benchmark(group="table3")
def test_table3_job_consolidation(benchmark, report):
    """The fourth documented optimization: one job for YtX + XtX vs two."""
    data = bag_of_words(4_000, 1_000, words_per_doc=8.0, seed=34)
    base = default_config(max_iterations=3, compute_error_every_iteration=False)
    times = {}

    def run_all():
        for label, config in (
            ("consolidated", base),
            ("separate", base.with_options(use_job_consolidation=False)),
        ):
            backend = _fresh_backend(config)
            SPCA(config, backend).fit(data)
            times[label] = backend.simulated_seconds
        return len(times)

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    report(
        "Job consolidation: "
        f"consolidated={times['consolidated']:.2f}s, "
        f"separate jobs={times['separate']:.2f}s"
    )
    assert times["consolidated"] < times["separate"]
