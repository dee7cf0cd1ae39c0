"""Checkpoint/resume: a killed EM run continues to the bit-identical model.

The fit is killed at every possible iteration boundary by an unrecoverable
fault plan, resumed from the newest snapshot with a fresh backend, and the
final model, per-iteration history, and stop reason must match the
uninterrupted run exactly -- including the sampled reconstruction error,
whose rng state rides along in the snapshot.
"""

import dataclasses

import numpy as np
import pytest

from repro.backends import MapReduceBackend, SequentialBackend, SparkBackend
from repro.core import (
    SPCA,
    CheckpointPolicy,
    DirectoryCheckpointStore,
    EMCheckpoint,
    HDFSCheckpointStore,
    SPCAConfig,
    load_checkpoint,
    save_checkpoint,
)
from repro.core.convergence import IterationStats
from repro.engine.cluster import ClusterSpec
from repro.engine.mapreduce.hdfs import InMemoryHDFS
from repro.engine.mapreduce.runtime import MapReduceRuntime
from repro.engine.spark.context import SparkContext
from repro.errors import CheckpointError, JobFailedError
from repro.faults import FaultPlan, KillTask, PlannedFaults

CLUSTER = ClusterSpec(num_nodes=2, cores_per_node=2)
CONFIG = SPCAConfig(
    n_components=3, max_iterations=4, tolerance=0.0, target_accuracy=None,
    seed=13, error_sample_fraction=0.5, compute_error_every_iteration=True,
)
BACKENDS = ["mapreduce", "spark"]


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(33)
    return rng.normal(size=(60, 10)) @ rng.normal(size=(10, 10))


def make_backend(name, plan=None, executor=None):
    faults = PlannedFaults(plan) if plan is not None else None
    if name == "mapreduce":
        return MapReduceBackend(
            CONFIG,
            runtime=MapReduceRuntime(
                cluster=CLUSTER, faults=faults, executor=executor
            ),
        )
    if name == "spark":
        return SparkBackend(
            CONFIG,
            context=SparkContext(cluster=CLUSTER, faults=faults, executor=executor),
        )
    return SequentialBackend(CONFIG)


def history_tuples(history):
    return [
        (s.index, s.noise_variance, s.error, s.accuracy)
        for s in history.iterations
    ]


def kill_plan(after_iteration):
    """A plan that kills the fit during iteration ``after_iteration + 1``.

    YtXJob runs once per iteration, so killing its Nth occurrence (0-based)
    with all attempts exhausted aborts iteration N+1 before its checkpoint.
    """
    return FaultPlan(
        events=(KillTask(job="YtXJob", occurrence=after_iteration, attempts=4),)
    )


def add_retired_kernel_backend(store, value="fused"):
    """Rewrite the newest snapshot the way releases with kernel backends did.

    Those releases stored a ``kernel_backend`` key in the config; the field
    is gone, and resuming must ignore it.
    """
    newest = store.load_latest()
    store.save(
        dataclasses.replace(
            newest, config={**newest.config, "kernel_backend": value}
        )
    )


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestKillAndResume:
    def test_resume_at_every_iteration_boundary_is_bit_identical(
        self, backend_name, data
    ):
        clean_model, clean_history = SPCA(CONFIG, make_backend(backend_name)).fit(data)
        for boundary in range(1, CONFIG.max_iterations):
            hdfs = InMemoryHDFS()
            store = HDFSCheckpointStore(hdfs)
            with pytest.raises(JobFailedError):
                SPCA(CONFIG, make_backend(backend_name, kill_plan(boundary))).fit(
                    data, checkpoint=store
                )
            assert store.iterations() == list(range(1, boundary + 1))
            model, history = SPCA(CONFIG, make_backend(backend_name)).resume(
                data, store
            )
            assert np.array_equal(model.components, clean_model.components)
            assert np.array_equal(model.mean, clean_model.mean)
            assert model.noise_variance == clean_model.noise_variance
            assert history_tuples(history) == history_tuples(clean_history)
            assert history.stop_reason == clean_history.stop_reason

    def test_killed_before_any_checkpoint_raises(self, backend_name, data):
        store = HDFSCheckpointStore(InMemoryHDFS())
        plan = kill_plan(0)  # dies in iteration 1, before the first snapshot
        with pytest.raises(JobFailedError):
            SPCA(CONFIG, make_backend(backend_name, plan)).fit(data, checkpoint=store)
        assert store.iterations() == []
        with pytest.raises(CheckpointError, match="empty"):
            SPCA(CONFIG, make_backend(backend_name)).resume(data, store)

    def test_checkpointing_does_not_perturb_the_fit(self, backend_name, data):
        plain_model, plain_history = SPCA(CONFIG, make_backend(backend_name)).fit(data)
        store = HDFSCheckpointStore(InMemoryHDFS())
        ckpt_model, ckpt_history = SPCA(CONFIG, make_backend(backend_name)).fit(
            data, checkpoint=store
        )
        assert np.array_equal(ckpt_model.components, plain_model.components)
        assert ckpt_model.noise_variance == plain_model.noise_variance
        assert history_tuples(ckpt_history) == history_tuples(plain_history)


@pytest.mark.parametrize(
    "backend_name,executor_name",
    [("mapreduce", "processes"), ("mapreduce", "threads"), ("spark", "threads")],
)
class TestKillAndResumeUnderExecutors:
    """Executor x faults x checkpoint: the full recovery path, concurrent.

    A run under a concurrent executor is killed mid-fit by an unrecoverable
    fault plan, leaves the same checkpoints behind as a serial kill, and a
    concurrent resume reaches the bit-identical model of a clean serial fit.
    """

    def test_killed_concurrent_run_resumes_bit_identical(
        self, backend_name, executor_name, data
    ):
        from repro.engine.exec import make_executor

        clean_model, clean_history = SPCA(CONFIG, make_backend(backend_name)).fit(data)
        with make_executor(executor_name, workers=2) as executor:
            store = HDFSCheckpointStore(InMemoryHDFS())
            killed = make_backend(backend_name, kill_plan(2), executor=executor)
            with pytest.raises(JobFailedError):
                SPCA(CONFIG, killed).fit(data, checkpoint=store)
            assert store.iterations() == [1, 2]
            model, history = SPCA(
                CONFIG, make_backend(backend_name, executor=executor)
            ).resume(data, store)
        assert np.array_equal(model.components, clean_model.components)
        assert np.array_equal(model.mean, clean_model.mean)
        assert model.noise_variance == clean_model.noise_variance
        assert history_tuples(history) == history_tuples(clean_history)
        assert history.stop_reason == clean_history.stop_reason


class TestStores:
    def test_directory_store_round_trip(self, data, tmp_path):
        store = DirectoryCheckpointStore(tmp_path / "ckpts")
        clean_model, clean_history = SPCA(CONFIG, make_backend("mapreduce")).fit(data)
        with pytest.raises(JobFailedError):
            SPCA(CONFIG, make_backend("mapreduce", kill_plan(2))).fit(
                data, checkpoint=store
            )
        assert store.iterations() == [1, 2]
        model, history = SPCA(CONFIG, make_backend("mapreduce")).resume(data, store)
        assert np.array_equal(model.components, clean_model.components)
        assert history_tuples(history) == history_tuples(clean_history)

    def test_checkpoint_with_retired_kernel_backend_resumes(self, data, tmp_path):
        store = DirectoryCheckpointStore(tmp_path / "ckpts")
        clean_model, clean_history = SPCA(CONFIG, make_backend("mapreduce")).fit(data)
        with pytest.raises(JobFailedError):
            SPCA(CONFIG, make_backend("mapreduce", kill_plan(2))).fit(
                data, checkpoint=store
            )
        add_retired_kernel_backend(store)
        assert store.load_latest().config["kernel_backend"] == "fused"
        model, history = SPCA(CONFIG, make_backend("mapreduce")).resume(data, store)
        assert np.array_equal(model.components, clean_model.components)
        assert np.array_equal(model.mean, clean_model.mean)
        assert model.noise_variance == clean_model.noise_variance
        assert history_tuples(history) == history_tuples(clean_history)

    def test_checkpoint_every_n_iterations(self, data):
        store = HDFSCheckpointStore(InMemoryHDFS())
        policy = CheckpointPolicy(store, every=2)
        SPCA(CONFIG, make_backend("sequential")).fit(data, checkpoint=policy)
        # The stopping iteration (4) is never snapshotted: the run is over.
        assert store.iterations() == [2]

    def test_resume_can_keep_checkpointing(self, data):
        store = HDFSCheckpointStore(InMemoryHDFS())
        with pytest.raises(JobFailedError):
            SPCA(CONFIG, make_backend("mapreduce", kill_plan(1))).fit(
                data, checkpoint=store
            )
        assert store.iterations() == [1]
        SPCA(CONFIG, make_backend("mapreduce")).resume(data, store, checkpoint_every=1)
        assert store.iterations() == [1, 2, 3]

    def test_config_mismatch_refused(self, data):
        store = HDFSCheckpointStore(InMemoryHDFS())
        SPCA(CONFIG, make_backend("sequential")).fit(data, checkpoint=store)
        other = CONFIG.with_options(seed=99)
        with pytest.raises(CheckpointError, match="different configuration"):
            SPCA(other, make_backend("sequential")).resume(data, store)

    def test_invalid_policy_interval(self):
        with pytest.raises(CheckpointError):
            CheckpointPolicy(HDFSCheckpointStore(InMemoryHDFS()), every=0)

    def test_npz_round_trip_preserves_rng_state_and_history(self, tmp_path):
        rng = np.random.default_rng(77)
        rng.random(13)
        snapshot = EMCheckpoint(
            iteration=2,
            components=rng.normal(size=(6, 2)),
            noise_variance=0.25,
            mean=rng.normal(size=6),
            ss1=123.5,
            previous_error=0.125,
            rng_state=rng.bit_generator.state,
            history=(
                IterationStats(1, 0.5, None, None, 0.1, 2.0, 100),
                IterationStats(2, 0.25, 0.125, 0.875, 0.2, 4.0, 200),
            ),
            config={"n_components": 2, "seed": 0},
        )
        path = save_checkpoint(snapshot, tmp_path / "snap.npz")
        loaded = load_checkpoint(path)
        assert loaded.iteration == 2
        assert np.array_equal(loaded.components, snapshot.components)
        assert np.array_equal(loaded.mean, snapshot.mean)
        assert loaded.noise_variance == snapshot.noise_variance
        assert loaded.ss1 == snapshot.ss1
        assert loaded.previous_error == snapshot.previous_error
        assert loaded.config == snapshot.config
        assert loaded.history == snapshot.history
        restored = np.random.default_rng()
        restored.bit_generator.state = loaded.rng_state
        assert restored.random() == rng.random()

    def test_unknown_format_version_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, checkpoint_format_version=np.int64(99))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_load_latest_of_empty_stores(self, tmp_path):
        assert HDFSCheckpointStore(InMemoryHDFS()).load_latest() is None
        assert DirectoryCheckpointStore(tmp_path / "empty").load_latest() is None
