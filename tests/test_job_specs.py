"""Each sPCA job spec, run through every engine's lowering, against numpy.

The specs in :mod:`repro.jobs.specs` are lowered three ways: a
stateful-combiner mapper on MapReduce (plus its per-record ablation), one
accumulator per part on Spark, and a loop in the sequential backend.  Each
lowering must give the direct numpy answer on dense and CSR input, at one
and eight records per split, under the serial, threads and processes
executors.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.backends import MapReduceBackend, SequentialBackend, SparkBackend
from repro.core import SPCA, SPCAConfig
from repro.engine.cluster import ClusterSpec
from repro.engine.exec import ProcessPoolTaskExecutor, ThreadPoolTaskExecutor
from repro.engine.mapreduce import MapReduceRuntime
from repro.engine.spark.context import SparkContext
from repro.jobs import mapreduce_jobs as mr
from repro.jobs import specs
from repro.linalg import small

THREADS = ThreadPoolTaskExecutor(workers=2)
PROCESSES = ProcessPoolTaskExecutor(workers=2)
EXECUTORS = {"serial": None, "threads": THREADS, "processes": PROCESSES}


@pytest.fixture(scope="module", autouse=True)
def _shutdown_pools():
    yield
    THREADS.shutdown()
    PROCESSES.shutdown()


CONFIG = SPCAConfig(n_components=3)
CLUSTER = ClusterSpec(num_nodes=1, cores_per_node=4)

_rng = np.random.default_rng(21)
_DENSE = _rng.normal(size=(70, 12)) + 2.0
_CSR = sp.random(70, 12, density=0.3, random_state=22, format="csr")
DATA = {"dense": _DENSE, "csr": _CSR}
COMPONENTS = _rng.normal(size=(12, 3))
PROJECTOR = COMPONENTS @ small.moment_inverse(COMPONENTS, 0.4)


def _dense(data):
    return data.toarray() if sp.issparse(data) else np.asarray(data)


def _ytx_params(data, mean_propagation):
    mean = _dense(data).mean(axis=0)
    return {
        "projector": PROJECTOR,
        "mean": mean,
        "latent_mean": mean @ PROJECTOR,
        "mean_propagation": mean_propagation,
    }


def _error_params(data):
    return {
        "components": COMPONENTS,
        "ls_projector": small.ls_projector(COMPONENTS),
        "mean": _dense(data).mean(axis=0),
        "sample_fraction": 1.0,
        "seed": 3,
        "mean_propagation": True,
    }


# -- the direct numpy oracles -------------------------------------------------


def _ytx_oracle(data, params):
    centered = _dense(data) - params["mean"]
    latent = centered @ params["projector"]
    return centered.T @ latent, latent.T @ latent


def _error_oracle(data, params):
    dense = _dense(data)
    mean = params["mean"]
    reconstruction = (dense - mean) @ params["ls_projector"] @ params["components"].T + mean
    residual = np.abs(dense - reconstruction).sum(axis=0).max()
    return residual / np.abs(dense).sum(axis=0).max()


CASES = {
    "mean": (specs.MEAN, lambda data: {}, lambda data, params: _dense(data).mean(axis=0)),
    "fnorm-alg3": (
        specs.FNORM,
        lambda data: {"mean": _dense(data).mean(axis=0), "efficient": True},
        lambda data, params: float(np.sum((_dense(data) - params["mean"]) ** 2)),
    ),
    "fnorm-alg2": (
        specs.FNORM,
        lambda data: {"mean": _dense(data).mean(axis=0), "efficient": False},
        lambda data, params: float(np.sum((_dense(data) - params["mean"]) ** 2)),
    ),
    "ytx-propagated": (specs.YTX, lambda data: _ytx_params(data, True), _ytx_oracle),
    "ytx-centered": (specs.YTX, lambda data: _ytx_params(data, False), _ytx_oracle),
    "error": (specs.ERROR, _error_params, _error_oracle),
}


# -- the lowerings ------------------------------------------------------------


def _mapreduce(records_per_split, per_record=False):
    def run(spec, data, params, executor):
        runtime = MapReduceRuntime(cluster=CLUSTER, executor=executor)
        backend = MapReduceBackend(CONFIG, runtime, records_per_split=records_per_split)
        splits = backend.load(data)
        return mr.run_spec(runtime, spec, splits, params, per_record)

    return run


def _spark(records_per_partition):
    def run(spec, data, params, executor):
        context = SparkContext(cluster=CLUSTER, executor=executor)
        backend = SparkBackend(
            CONFIG, context, records_per_partition=records_per_partition
        )
        return backend._run(spec, backend.load(data), backend._ship(params))

    return run


def _sequential(spec, data, params):
    backend = SequentialBackend(CONFIG)
    return backend._run(spec, backend.load(data), params)


LOWERINGS = {
    "mapreduce-1": _mapreduce(1),
    "mapreduce-8": _mapreduce(8),
    "mapreduce-per-record": _mapreduce(8, per_record=True),
    "spark-1": _spark(1),
    "spark-8": _spark(8),
}


def _check(result, expected):
    if isinstance(expected, tuple):
        for got, want in zip(result, expected, strict=True):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)
    else:
        np.testing.assert_allclose(result, expected, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("kind", sorted(DATA))
@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("executor", sorted(EXECUTORS))
@pytest.mark.parametrize("lowering", sorted(LOWERINGS))
def test_engine_lowering_matches_numpy(lowering, executor, case, kind):
    spec, make_params, oracle = CASES[case]
    data = DATA[kind]
    params = make_params(data)
    parts = LOWERINGS[lowering](spec, data, params, EXECUTORS[executor])
    _check(spec.finish(parts, params), oracle(data, params))


@pytest.mark.parametrize("kind", sorted(DATA))
@pytest.mark.parametrize("case", sorted(CASES))
def test_sequential_lowering_matches_numpy(case, kind):
    spec, make_params, oracle = CASES[case]
    data = DATA[kind]
    params = make_params(data)
    _check(spec.finish(_sequential(spec, data, params), params), oracle(data, params))


@pytest.mark.parametrize("kind", sorted(DATA))
def test_materialized_latent_matches_recomputed(kind):
    # The ablation's joined (Y, X) records give the YtX spec the same answer.
    data = DATA[kind]
    params = _ytx_params(data, True)
    backend = SequentialBackend(CONFIG)
    with backend._latent(backend.load(data), params) as joined:
        parts = backend._run(specs.YTX, joined, params)
    _check(specs.YTX.finish(parts, params), _ytx_oracle(data, params))


def test_sparse_part_ships_dense_once_saturated():
    block = sp.csr_matrix(np.ones((4, 12)))
    params = _ytx_params(block, True)
    parts = specs.split_parts(specs.YTX, [(0, block)], params)
    assert isinstance(parts[specs.KEY_YTX_DATA], np.ndarray)
    thin = sp.csr_matrix(([1.0], ([0], [5])), shape=(1, 12))
    parts = specs.split_parts(specs.YTX, [(0, thin)], _ytx_params(thin, True))
    assert sp.issparse(parts[specs.KEY_YTX_DATA])


def test_add_part_sums_dense_and_sparse_from_empty():
    total = specs.add_part(None, sp.csr_matrix(np.eye(2)))
    total = specs.add_part(total, np.ones((2, 2)))
    np.testing.assert_array_equal(total, np.eye(2) + 1.0)
    assert specs.add_part(None, 3) == 3


# -- the sampled error job: one row sample whatever the engine or layout -----


SAMPLED_DATA = sp.random(400, 40, density=0.2, random_state=23, format="csr")
SAMPLED_CONFIG = SPCAConfig(
    n_components=3, max_iterations=3, tolerance=0.0, seed=4,
    error_sample_fraction=0.5,
)
RECORDS = 16  # every backend below splits the rows into the same 16 records


def _sampled_errors(backend):
    _, history = SPCA(SAMPLED_CONFIG, backend).fit(SAMPLED_DATA)
    return [stats.error for stats in history.iterations]


def test_sampled_error_is_the_same_on_every_engine_and_layout():
    wide = ClusterSpec(num_nodes=1, cores_per_node=RECORDS)
    narrow = ClusterSpec(num_nodes=1, cores_per_node=RECORDS // 8)
    backends = {
        "sequential": SequentialBackend(SAMPLED_CONFIG, num_blocks=RECORDS),
        "mapreduce-1": MapReduceBackend(
            SAMPLED_CONFIG, MapReduceRuntime(cluster=wide), records_per_split=1
        ),
        "mapreduce-8": MapReduceBackend(
            SAMPLED_CONFIG, MapReduceRuntime(cluster=narrow), records_per_split=8
        ),
        "spark-1": SparkBackend(
            SAMPLED_CONFIG, SparkContext(cluster=wide), records_per_partition=1
        ),
        "spark-8": SparkBackend(
            SAMPLED_CONFIG, SparkContext(cluster=narrow), records_per_partition=8
        ),
    }
    errors = {name: _sampled_errors(backend) for name, backend in backends.items()}
    reference = errors.pop("sequential")
    for name, got in errors.items():
        np.testing.assert_allclose(got, reference, rtol=1e-12, err_msg=name)


# -- the materialized-X ablation: X lives for one ytx_xtx call ---------------


UNOPTIMIZED = SPCAConfig(
    n_components=3, max_iterations=3, tolerance=0.0,
    compute_error_every_iteration=False,
).unoptimized()
LATENT_DATA = np.random.default_rng(24).normal(size=(200, 30))


def _x_jobs(metrics):
    return sum(job.name == "XJob" for job in metrics.jobs)


def test_mapreduce_writes_x_once_per_iteration_and_deletes_it():
    runtime = MapReduceRuntime(cluster=CLUSTER)
    SPCA(UNOPTIMIZED, MapReduceBackend(UNOPTIMIZED, runtime)).fit(LATENT_DATA)
    assert _x_jobs(runtime.metrics) == 3
    assert not any(path.startswith("tmp/X") for path in runtime.hdfs.listing())


def test_spark_writes_x_once_per_iteration_and_unpersists_it():
    fitted = {}
    for label, config in (("unoptimized", UNOPTIMIZED), ("optimized", CONFIG)):
        context = SparkContext(cluster=CLUSTER)
        config = config.with_options(
            max_iterations=3, tolerance=0.0, compute_error_every_iteration=False
        )
        SPCA(config, SparkBackend(config, context)).fit(LATENT_DATA)
        fitted[label] = context
    assert _x_jobs(fitted["unoptimized"].metrics) == 3
    # Only the input's blocks stay cached, as in a fit that never wrote X.
    left, right = (fitted[label].block_manager for label in ("unoptimized", "optimized"))
    assert (left.memory_bytes, left.disk_bytes) == (right.memory_bytes, right.disk_bytes)


def test_sequential_writes_x_once_per_iteration():
    backend = SequentialBackend(UNOPTIMIZED)
    SPCA(UNOPTIMIZED, backend).fit(LATENT_DATA)
    n_rows = LATENT_DATA.shape[0]
    assert backend.intermediate_bytes == 3 * n_rows * UNOPTIMIZED.n_components * 8
