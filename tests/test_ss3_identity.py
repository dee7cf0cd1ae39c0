"""ss3 comes from the iteration's YtX on the driver, not from a job.

Algorithm 4 runs an ss3 job, a second pass over Y per EM iteration, for
``ss3 = sum_n X_n C' Yc_n'``.  That sum equals ``sum_ij C_ij (Yc' X)_ij``,
and the driver already holds ``Yc' X`` from the M-step, so
:meth:`Backend.ss3` computes it in D*d flops.  These tests pin the
identity, the call seam, and the jobs that are left.
"""

from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp

from repro.backends import MapReduceBackend, SequentialBackend, SparkBackend
from repro.core import SPCA, SPCAConfig
from repro.engine.cluster import ClusterSpec
from repro.engine.mapreduce.runtime import MapReduceRuntime
from repro.engine.spark.context import SparkContext
from repro.linalg.small import moment_inverse

SMALL_CLUSTER = ClusterSpec(num_nodes=2, cores_per_node=2)
ITERATIONS = 4
CONFIG = SPCAConfig(
    n_components=3, max_iterations=ITERATIONS, tolerance=0.0, seed=9,
    compute_error_every_iteration=False,
)
KINDS = ["sequential", "mapreduce", "spark"]


def make_backend(kind, config=CONFIG):
    if kind == "sequential":
        return SequentialBackend(config)
    if kind == "mapreduce":
        return MapReduceBackend(config, MapReduceRuntime(cluster=SMALL_CLUSTER))
    return SparkBackend(config, SparkContext(cluster=SMALL_CLUSTER))


@pytest.fixture(scope="module", params=["dense", "csr"])
def data(request):
    if request.param == "csr":
        return sp.random(240, 36, density=0.15, random_state=5, format="csr")
    rng = np.random.default_rng(31)
    return rng.normal(size=(240, 5)) @ rng.normal(size=(5, 36)) + rng.normal(size=36)


@pytest.mark.parametrize("kind", KINDS)
def test_ss3_is_called_once_per_iteration_with_that_iterations_components(
    kind, data
):
    # benchmarks/e2e/workloads.py wraps backend.ss3 exactly like this and
    # times its time-to-accuracy curve from these calls: the seam must fire
    # once per EM iteration and receive the iteration's new C as
    # ``components``.
    backend = make_backend(kind)
    calls = []
    ss3 = backend.ss3

    def probe(*args, **kwargs):
        value = ss3(*args, **kwargs)
        components = kwargs["components"] if "components" in kwargs else args[4]
        calls.append(np.array(components, copy=True))
        return value

    backend.ss3 = probe
    _, history = SPCA(CONFIG, backend).fit(data)

    assert history.n_iterations == ITERATIONS
    # The fit is deterministic, so a k-iteration fit ends on iteration k's C.
    per_iteration = [
        SPCA(config, make_backend(kind, config)).fit(data)[0].components
        for config in (
            CONFIG.with_options(max_iterations=k) for k in range(1, ITERATIONS + 1)
        )
    ]
    assert len(calls) == ITERATIONS
    for seen, expected in zip(calls, per_iteration, strict=True):
        assert np.array_equal(seen, expected)


@pytest.mark.parametrize("kind", KINDS)
def test_ss3_from_ytx_matches_the_direct_sum(kind, data):
    rng = np.random.default_rng(3)
    n_features = data.shape[1]
    components = rng.normal(size=(n_features, 3))
    projector = components @ moment_inverse(components, 0.5)
    backend = make_backend(kind)
    dataset = backend.load(data)
    mean = backend.column_means(dataset)
    latent_mean = mean @ projector
    ytx, _ = backend.ytx_xtx(dataset, mean, projector, latent_mean)
    new_components = rng.normal(size=(n_features, 3))

    dense = data.toarray() if sp.issparse(data) else np.asarray(data)
    centered = dense - mean
    latent = centered @ projector
    direct = float(np.sum(latent * (centered @ new_components)))
    assert backend.ss3(components=new_components, ytx=ytx) == pytest.approx(
        direct, rel=1e-12
    )


@pytest.mark.parametrize("iterations", [1, 3])
def test_mapreduce_runs_one_job_per_iteration(iterations, data):
    config = CONFIG.with_options(max_iterations=iterations)
    backend = make_backend("mapreduce", config)
    SPCA(config, backend).fit(data)
    names = [job.name for job in backend.runtime.metrics.jobs]
    assert names == ["meanJob", "FnormJob"] + ["YtXJob"] * iterations


@pytest.mark.parametrize("iterations", [1, 3])
def test_spark_runs_one_job_and_three_broadcasts_per_iteration(iterations, data):
    # Spark records each broadcast as a job.  The paper's ss3 job added five
    # per iteration: the job and its broadcasts of mean, projector, latent
    # mean and components.
    config = CONFIG.with_options(max_iterations=iterations)
    backend = make_backend("spark", config)
    SPCA(config, backend).fit(data)
    counts = Counter(job.name for job in backend.context.metrics.jobs)
    assert counts == Counter(
        take=1, meanJob=1, FnormJob=1,
        broadcast=1 + 3 * iterations, YtXJob=iterations,
    )
