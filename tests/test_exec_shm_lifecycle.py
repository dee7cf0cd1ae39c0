"""Shared-memory lifetime on exception paths.

The leak contract: after any failure -- a worker dying mid-task, a task
raising, an attach to a vanished segment, a fill error during ``share_array``
-- executor shutdown leaves zero live segments and no orphaned ``/dev/shm``
files.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from concurrent.futures.process import BrokenProcessPool

import repro
from repro.engine.exec.processes import ProcessPoolTaskExecutor
from repro.engine.exec.shm import ShmBlockRegistry, _ATTACHED, _attach


def _shm_names() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


def _die(_payload):
    os._exit(13)  # simulates a worker killed mid-task (no cleanup runs)


def _boom(_payload):
    raise RuntimeError("task failure")


def _ok(payload):
    return float(np.asarray(payload).sum())


class TestShareArrayExceptionPath:
    def test_fill_failure_unlinks_the_segment(self, monkeypatch):
        registry = ShmBlockRegistry()
        before = _shm_names()

        class ExplodingNdarray:
            def __call__(self, *args, **kwargs):
                raise MemoryError("simulated fill failure")

        monkeypatch.setattr(
            "repro.engine.exec.shm.np.ndarray", ExplodingNdarray()
        )
        with pytest.raises(MemoryError):
            registry.share_array(np.ones((64, 64)))
        assert registry.active_segments() == []
        assert _shm_names() - before == set()

    def test_attach_failure_leaves_worker_cache_clean(self):
        with pytest.raises(FileNotFoundError):
            _attach("repro_no_such_segment")
        assert "repro_no_such_segment" not in _ATTACHED


class TestExecutorFailureLeaks:
    def test_worker_death_mid_task_leaks_nothing(self):
        before = _shm_names()
        executor = ProcessPoolTaskExecutor(workers=2, shm_threshold=0)
        payloads = [np.ones((32, 32)) for _ in range(2)]
        try:
            with pytest.raises(BrokenProcessPool):
                executor.run_tasks(_die, payloads)
        finally:
            executor.shutdown()
        assert executor.registry.active_segments() == []
        assert _shm_names() - before == set()

    def test_raising_tasks_leak_nothing(self):
        before = _shm_names()
        executor = ProcessPoolTaskExecutor(workers=2, shm_threshold=0)
        payloads = [np.ones((16, 16)) for _ in range(4)]
        try:
            with pytest.raises(RuntimeError):
                executor.run_tasks(_boom, payloads)
        finally:
            executor.shutdown()
        assert executor.registry.active_segments() == []
        assert _shm_names() - before == set()

    def test_shutdown_with_segments_from_in_flight_batch(self):
        # The batch completed but its source arrays are still alive (their
        # segments too); shutdown must reclaim every one of them.
        before = _shm_names()
        executor = ProcessPoolTaskExecutor(workers=2, shm_threshold=0)
        payloads = [np.full((32, 32), float(i)) for i in range(3)]
        results = executor.run_tasks(_ok, payloads)
        assert results == [float(np.full((32, 32), float(i)).sum()) for i in range(3)]
        assert executor.registry.active_segments() != []
        executor.shutdown()
        assert executor.registry.active_segments() == []
        assert _shm_names() - before == set()


# A dense fit whose 64 row blocks (64 KB each) all cross the shm threshold:
# every block is shipped as a segment that forked workers attach.
_DENSE_PROCESSES_FIT = """
from repro.backends.mapreduce import MapReduceBackend
from repro.core import SPCA, SPCAConfig
from repro.data.generators import sift_features
from repro.engine.mapreduce import MapReduceRuntime

config = SPCAConfig(n_components=4, max_iterations=3, seed=0)
runtime = MapReduceRuntime(executor="processes", workers=2)
try:
    SPCA(config, MapReduceBackend(config, runtime=runtime)).fit(
        sift_features(8000, 64)
    )
finally:
    runtime.executor.shutdown()
"""


def test_processes_fit_leaves_resource_tracker_quiet():
    # Forked workers share the driver's resource tracker; a worker that
    # unregistered an attached segment dropped the driver's registration,
    # and the driver's unlink then made the tracker print a KeyError
    # traceback per segment.
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    before = _shm_names()
    result = subprocess.run(
        [sys.executable, "-c", _DENSE_PROCESSES_FIT],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "resource_tracker" not in result.stderr, result.stderr
    assert "KeyError" not in result.stderr, result.stderr
    assert _shm_names() - before == set()
