"""All three backends must produce identical sPCA results.

This is the central integration test: the paper's claim that sPCA's design
"is general and can be implemented on different platforms" and that the
optimizations "do not change any theoretical properties".
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.backends import MapReduceBackend, SequentialBackend, SparkBackend
from repro.core import SPCA, SPCAConfig
from repro.engine.cluster import ClusterSpec
from repro.engine.mapreduce.runtime import MapReduceRuntime
from repro.engine.spark.context import SparkContext
from repro.metrics import subspace_angle_degrees


SMALL_CLUSTER = ClusterSpec(num_nodes=2, cores_per_node=2)


@pytest.fixture(scope="module")
def sparse_data():
    return sp.random(300, 40, density=0.15, random_state=17, format="csr")


@pytest.fixture(scope="module")
def dense_data():
    rng = np.random.default_rng(23)
    return rng.normal(size=(200, 4)) @ rng.normal(size=(4, 25)) + rng.normal(size=25)


def make_backend(kind, config):
    if kind == "sequential":
        return SequentialBackend(config)
    if kind == "mapreduce":
        return MapReduceBackend(config, MapReduceRuntime(cluster=SMALL_CLUSTER))
    return SparkBackend(config, SparkContext(cluster=SMALL_CLUSTER))


BASE = SPCAConfig(
    n_components=3, max_iterations=6, tolerance=0.0, seed=9,
    compute_error_every_iteration=False,
)


@pytest.mark.parametrize("kind", ["mapreduce", "spark"])
def test_backend_matches_sequential_sparse(kind, sparse_data):
    reference, _ = SPCA(BASE, SequentialBackend(BASE)).fit(sparse_data)
    model, _ = SPCA(BASE, make_backend(kind, BASE)).fit(sparse_data)
    np.testing.assert_allclose(model.components, reference.components, atol=1e-8)
    assert model.noise_variance == pytest.approx(reference.noise_variance, rel=1e-8)


@pytest.mark.parametrize("kind", ["mapreduce", "spark"])
def test_backend_matches_sequential_dense(kind, dense_data):
    reference, _ = SPCA(BASE, SequentialBackend(BASE)).fit(dense_data)
    model, _ = SPCA(BASE, make_backend(kind, BASE)).fit(dense_data)
    np.testing.assert_allclose(model.components, reference.components, atol=1e-8)


@pytest.mark.parametrize("kind", ["mapreduce", "spark"])
@pytest.mark.parametrize(
    "flags",
    [
        {"use_mean_propagation": False},
        {"use_efficient_frobenius": False},
        {"use_x_recomputation": False},
        {"use_job_consolidation": False},
    ],
)
def test_ablations_do_not_change_results(kind, flags, sparse_data):
    config = BASE.with_options(**flags)
    reference, _ = SPCA(BASE, make_backend(kind, BASE)).fit(sparse_data)
    ablated, _ = SPCA(config, make_backend(kind, config)).fit(sparse_data)
    np.testing.assert_allclose(
        ablated.components, reference.components, atol=1e-8,
        err_msg=f"{kind} ablation {flags} changed the result",
    )


@pytest.mark.parametrize("kind", ["mapreduce", "spark"])
def test_error_metric_agrees_with_sequential(kind, dense_data):
    config = BASE.with_options(compute_error_every_iteration=True)
    _, ref_history = SPCA(config, SequentialBackend(config)).fit(dense_data)
    _, history = SPCA(config, make_backend(kind, config)).fit(dense_data)
    ref_errors = [s.error for s in ref_history.iterations]
    errors = [s.error for s in history.iterations]
    np.testing.assert_allclose(errors, ref_errors, rtol=1e-6)


def test_mapreduce_backend_accumulates_metrics(sparse_data):
    backend = make_backend("mapreduce", BASE)
    SPCA(BASE, backend).fit(sparse_data)
    assert backend.simulated_seconds > 0
    jobs = backend.runtime.metrics.jobs
    names = {job.name for job in jobs}
    assert {"meanJob", "FnormJob", "YtXJob"} <= names
    # One meanJob + FnormJob, then one YtXJob per iteration.
    assert len([j for j in jobs if j.name == "YtXJob"]) == BASE.max_iterations


def test_spark_backend_accumulates_metrics(sparse_data):
    backend = make_backend("spark", BASE)
    SPCA(BASE, backend).fit(sparse_data)
    assert backend.simulated_seconds > 0
    assert backend.intermediate_bytes > 0


def test_spark_faster_than_mapreduce_in_sim(sparse_data):
    mr_backend = make_backend("mapreduce", BASE)
    spark_backend = make_backend("spark", BASE)
    SPCA(BASE, mr_backend).fit(sparse_data)
    SPCA(BASE, spark_backend).fit(sparse_data)
    assert spark_backend.simulated_seconds < mr_backend.simulated_seconds


def test_materialized_x_increases_intermediate_data(sparse_data):
    config = BASE.with_options(use_x_recomputation=False)
    optimized = make_backend("mapreduce", BASE)
    ablated = make_backend("mapreduce", config)
    SPCA(BASE, optimized).fit(sparse_data)
    SPCA(config, ablated).fit(sparse_data)
    assert ablated.intermediate_bytes > optimized.intermediate_bytes


def test_spark_sparse_accumulator_reduces_bytes():
    # With mean propagation the YtX partials travel sparse; without, dense.
    # The saving appears when each block touches few of the D columns, i.e.
    # in the high-dimensional sparse regime the paper targets (z << D).
    data = sp.random(400, 1200, density=0.002, random_state=29, format="csr")
    config = BASE.with_options(n_components=2, max_iterations=2)
    config_dense = config.with_options(use_mean_propagation=False)
    opt = make_backend("spark", config)
    unopt = make_backend("spark", config_dense)
    SPCA(config, opt).fit(data)
    SPCA(config_dense, unopt).fit(data)
    assert opt.intermediate_bytes < unopt.intermediate_bytes


def test_backends_recover_subspace(sparse_data):
    dense = np.asarray(sparse_data.todense())
    centered = dense - dense.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    exact = vt[:3].T
    config = BASE.with_options(max_iterations=40)
    for kind in ("mapreduce", "spark"):
        model, _ = SPCA(config, make_backend(kind, config)).fit(sparse_data)
        assert subspace_angle_degrees(model.basis, exact) < 10.0


def test_backend_failure_injection_spark(sparse_data):
    flaky = SparkBackend(BASE, SparkContext(cluster=SMALL_CLUSTER, failure_rate=0.1, seed=3))
    model, _ = SPCA(BASE, flaky).fit(sparse_data)
    reference, _ = SPCA(BASE, SequentialBackend(BASE)).fit(sparse_data)
    np.testing.assert_allclose(model.components, reference.components, atol=1e-8)


def test_backend_failure_injection_mapreduce(sparse_data):
    flaky = MapReduceBackend(
        BASE, MapReduceRuntime(cluster=SMALL_CLUSTER, failure_rate=0.1, seed=3)
    )
    model, _ = SPCA(BASE, flaky).fit(sparse_data)
    reference, _ = SPCA(BASE, SequentialBackend(BASE)).fit(sparse_data)
    np.testing.assert_allclose(model.components, reference.components, atol=1e-8)


def test_sequential_backend_tracks_materialized_latent_bytes(sparse_data):
    config = BASE.with_options(use_x_recomputation=False)
    backend = SequentialBackend(config)
    SPCA(config, backend).fit(sparse_data)
    # Each iteration materialized one full X (N x d doubles).
    expected_per_iteration = sparse_data.shape[0] * BASE.n_components * 8
    assert backend.intermediate_bytes >= expected_per_iteration * BASE.max_iterations
    backend.reset_metrics()
    assert backend.intermediate_bytes == 0


def test_backends_reset_metrics(sparse_data):
    for kind in ("mapreduce", "spark"):
        backend = make_backend(kind, BASE)
        SPCA(BASE, backend).fit(sparse_data)
        assert backend.simulated_seconds > 0
        backend.reset_metrics()
        assert backend.simulated_seconds == 0
        assert backend.intermediate_bytes == 0
