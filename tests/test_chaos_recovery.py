"""Chaos suite: any survivable fault plan must not change the answer.

Hypothesis generates fault plans whose kill/fetch events stay within the
engines' ``max_task_attempts`` budget, injects them into full sPCA fits on
both distributed backends, and asserts the final model, the per-job byte
accounting, and the engine counters are *identical* to a fault-free run.
That is the fault-tolerance contract of both platforms: retries and lineage
recomputation cost time, never correctness.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import MapReduceBackend, SparkBackend
from repro.core import SPCA, SPCAConfig
from repro.engine.cluster import ClusterSpec
from repro.engine.mapreduce.runtime import MapReduceRuntime
from repro.engine.spark.context import SparkContext
from repro.faults import (
    ExecutorLoss,
    FaultPlan,
    FetchFailure,
    KillTask,
    PlannedFaults,
    Straggler,
)

CLUSTER = ClusterSpec(num_nodes=2, cores_per_node=2)
CONFIG = SPCAConfig(
    n_components=3, max_iterations=2, tolerance=0.0, seed=5,
    compute_error_every_iteration=False,
)
MAX_TASK_ATTEMPTS = 4

# Every job name the two backends submit during a fit.
JOB_NAMES = ("meanJob", "FnormJob", "YtXJob")


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(21)
    return rng.normal(size=(60, 10)) @ rng.normal(size=(10, 10))


def job_signature(metrics):
    """The deterministic accounting columns of every submitted job."""
    return [
        (job.name, job.n_map_tasks, job.map_output_bytes, job.shuffle_bytes,
         job.hdfs_read_bytes, job.hdfs_write_bytes, job.driver_result_bytes,
         job.broadcast_bytes, job.intermediate_bytes)
        for job in metrics.jobs
    ]


def run_fit(backend_name, plan=None):
    faults = PlannedFaults(plan) if plan is not None else None
    if backend_name == "mapreduce":
        engine = MapReduceRuntime(
            cluster=CLUSTER, max_task_attempts=MAX_TASK_ATTEMPTS, faults=faults
        )
        backend = MapReduceBackend(CONFIG, runtime=engine)
        metrics = engine.metrics
    else:
        engine = SparkContext(
            cluster=CLUSTER, max_task_attempts=MAX_TASK_ATTEMPTS, faults=faults
        )
        backend = SparkBackend(CONFIG, context=engine)
        metrics = engine.metrics
    model, _ = SPCA(CONFIG, backend).fit(_DATA)
    return model, metrics


# Hypothesis calls run_fit many times per test; computing the fault-free
# baseline once per backend keeps the suite's runtime tolerable.
_DATA = None
_BASELINES = {}


@pytest.fixture(scope="module", autouse=True)
def _bind_data(data):
    global _DATA
    _DATA = data
    _BASELINES.clear()
    yield
    _DATA = None
    _BASELINES.clear()


def baseline(backend_name):
    if backend_name not in _BASELINES:
        model, metrics = run_fit(backend_name)
        _BASELINES[backend_name] = (model, job_signature(metrics))
    return _BASELINES[backend_name]


def survivable_events():
    job = st.sampled_from(JOB_NAMES)
    occurrence = st.one_of(st.none(), st.integers(min_value=0, max_value=2))
    kills = st.builds(
        KillTask,
        job=job,
        task=st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
        attempts=st.integers(min_value=1, max_value=MAX_TASK_ATTEMPTS - 1),
        occurrence=occurrence,
    )
    fetches = st.builds(
        FetchFailure,
        job=job,
        attempts=st.integers(min_value=1, max_value=MAX_TASK_ATTEMPTS - 1),
        occurrence=occurrence,
    )
    stragglers = st.builds(
        Straggler,
        job=job,
        factor=st.floats(min_value=1.5, max_value=20.0),
        occurrence=occurrence,
    )
    losses = st.builds(
        ExecutorLoss,
        job=job,
        executor=st.integers(min_value=0, max_value=CLUSTER.num_nodes - 1),
        occurrence=occurrence,
    )
    return st.one_of(kills, fetches, stragglers, losses)


def survivable_plans():
    return st.lists(survivable_events(), min_size=1, max_size=4).map(
        lambda events: FaultPlan(events=tuple(events))
    )


@pytest.mark.parametrize("backend_name", ["mapreduce", "spark"])
@settings(
    max_examples=8, deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.function_scoped_fixture],
)
@given(plan=survivable_plans())
def test_property_survivable_plans_change_nothing_but_time(backend_name, plan):
    assert plan.check_recoverable(MAX_TASK_ATTEMPTS)
    clean_model, clean_signature = baseline(backend_name)
    chaos_model, chaos_metrics = run_fit(backend_name, plan)
    # Bit-identical model: retries recompute the same floats in the same
    # order, accumulators/counters commit exactly once.
    assert np.array_equal(chaos_model.components, clean_model.components)
    assert np.array_equal(chaos_model.mean, clean_model.mean)
    assert chaos_model.noise_variance == clean_model.noise_variance
    # Identical byte accounting, job for job.
    assert job_signature(chaos_metrics) == clean_signature


@pytest.mark.parametrize("backend_name", ["mapreduce", "spark"])
def test_fault_free_plan_equals_no_injector(backend_name):
    clean_model, clean_signature = baseline(backend_name)
    model, metrics = run_fit(backend_name, FaultPlan())
    assert np.array_equal(model.components, clean_model.components)
    assert job_signature(metrics) == clean_signature
    assert all(job.faults == {} for job in metrics.jobs)
    assert all(job.task_retries == 0 for job in metrics.jobs)


@pytest.mark.parametrize("backend_name", ["mapreduce", "spark"])
def test_heavy_deterministic_plan_is_survivable_and_counted(backend_name):
    plan = FaultPlan(
        events=(
            KillTask(job="meanJob", attempts=3, occurrence=0),
            FetchFailure(job="YtXJob", attempts=2, occurrence=None),
            Straggler(job="YtXJob", factor=10.0, occurrence=None),
            ExecutorLoss(job="YtXJob", executor=1, occurrence=0),
        )
    )
    clean_model, clean_signature = baseline(backend_name)
    model, metrics = run_fit(backend_name, plan)
    assert np.array_equal(model.components, clean_model.components)
    assert job_signature(metrics) == clean_signature
    total_faults = {}
    for job in metrics.jobs:
        for label, count in job.faults.items():
            total_faults[label] = total_faults.get(label, 0) + count
    assert total_faults.get("kill_task", 0) > 0
    assert total_faults.get("straggler", 0) > 0
    if backend_name == "spark":
        assert total_faults.get("fetch_failure", 0) > 0
        assert total_faults.get("executor_loss", 0) > 0
    assert metrics.total_recovery_sim_seconds > 0
