"""The dynamic race detector: finds planted races, passes clean fits."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends.spark import SparkBackend
from repro.core import SPCA, SPCAConfig
from repro.engine.exec import make_executor
from repro.engine.spark.context import SparkContext
from repro.faults import PlannedFaults
from repro.faults.plan import ExecutorLoss, FaultPlan
from repro.lint.racecheck import (
    RaceChecker,
    RaceCheckExecutor,
    RaceRecorder,
    run_spca_racecheck,
)


def _small_fit_data():
    rng = np.random.default_rng(7)
    return rng.normal(size=(96, 12)) @ rng.normal(size=(12, 12))


# ---------------------------------------------------------------------------
# the recorder + happens-before analysis in isolation


class TestRecorderAnalysis:
    def test_driver_accesses_are_not_recorded(self):
        recorder = RaceRecorder()
        recorder.begin_epoch("stage")
        recorder.record("BlockManager", (0, 0), "write")  # no task active
        assert recorder.accesses == []
        assert recorder.conflicts() == []

    def test_unscoped_write_is_a_conflict(self):
        recorder = RaceRecorder()
        recorder.begin_epoch("stage")
        recorder.enter_task(3)
        recorder.record("BlockManager", (0, 0), "write")
        recorder.exit_task()
        conflicts = recorder.conflicts()
        assert [c.kind for c in conflicts] == ["unscoped-write"]
        assert conflicts[0].tasks == (3,)
        assert "stage" in conflicts[0].render()

    def test_cross_task_read_write_is_a_race(self):
        recorder = RaceRecorder()
        recorder.begin_epoch("stage")
        recorder.enter_task(0)
        recorder.record("lost_blocks", (1, 2), "write")
        recorder.exit_task()
        recorder.enter_task(1)
        recorder.record("lost_blocks", (1, 2), "read")
        recorder.exit_task()
        kinds = {c.kind for c in recorder.conflicts()}
        assert kinds == {"unscoped-write", "race"}

    def test_concurrent_reads_are_clean(self):
        recorder = RaceRecorder()
        recorder.begin_epoch("stage")
        for task in range(4):
            recorder.enter_task(task)
            recorder.record("BlockManager", (0, 0), "read")
            recorder.exit_task()
        assert recorder.conflicts() == []

    def test_epochs_order_accesses(self):
        # Same key, two different epochs: the join/dispatch barrier between
        # them orders the accesses, so the write is unscoped but no race.
        recorder = RaceRecorder()
        recorder.begin_epoch("stage1")
        recorder.enter_task(0)
        recorder.record("lost_blocks", (1, 2), "write")
        recorder.exit_task()
        recorder.begin_epoch("stage2")
        recorder.enter_task(1)
        recorder.record("lost_blocks", (1, 2), "read")
        recorder.exit_task()
        assert [c.kind for c in recorder.conflicts()] == ["unscoped-write"]

    def test_wildcard_eviction_races_with_keyed_access(self):
        recorder = RaceRecorder()
        recorder.begin_epoch("stage")
        recorder.enter_task(0)
        recorder.record("BlockManager", "*", "write")
        recorder.exit_task()
        recorder.enter_task(1)
        recorder.record("BlockManager", (0, 5), "read")
        recorder.exit_task()
        kinds = {c.kind for c in recorder.conflicts()}
        assert kinds == {"unscoped-write", "race"}


# ---------------------------------------------------------------------------
# the instrumented harness end-to-end


class TestRaceCheckerHarness:
    def test_detects_synthetic_block_manager_race(self):
        # A partition function that writes the BlockManager directly from
        # inside its (concurrently-executing) task: the canonical violation
        # of the execute/commit protocol.
        ctx = SparkContext(executor=make_executor("threads", 4))
        try:
            rdd = ctx.parallelize(list(range(32)), num_partitions=8)

            def rogue(partition):
                ctx.block_manager.put(999, partition[0], partition, 64)
                return sum(partition)

            with RaceChecker(ctx, label="synthetic") as checker:
                ctx.run_job(rdd, rogue, name="rogueStage")
            report = checker.report()
            assert not report.clean
            kinds = {c.kind for c in report.conflicts}
            assert "unscoped-write" in kinds
            assert any(c.obj == "BlockManager" for c in report.conflicts)
        finally:
            ctx.executor.shutdown()

    def test_detects_synthetic_accumulator_bypass(self):
        # Calling _apply directly (instead of add, which stages through the
        # scope) double-applies under retry; the checker flags it.
        ctx = SparkContext(executor=make_executor("threads", 4))
        try:
            rdd = ctx.parallelize(list(range(16)), num_partitions=4)
            counter = ctx.accumulator(0)

            def rogue(partition):
                counter._apply(len(partition))
                return sum(partition)

            with RaceChecker(ctx, label="synthetic") as checker:
                ctx.run_job(rdd, rogue, name="rogueStage")
            assert any(
                c.obj == "Accumulator" and c.kind == "unscoped-write"
                for c in checker.report().conflicts
            )
        finally:
            ctx.executor.shutdown()

    def test_instrumentation_is_restored_on_exit(self):
        from repro.engine.spark.memory import BlockManager

        original_put = BlockManager.put
        ctx = SparkContext(executor=make_executor("threads", 2))
        try:
            with RaceChecker(ctx):
                assert BlockManager.put is not original_put
                assert isinstance(ctx.executor, RaceCheckExecutor)
            assert BlockManager.put is original_put
            assert not isinstance(ctx.executor, RaceCheckExecutor)
            assert type(ctx._lost_blocks) is set
        finally:
            ctx.executor.shutdown()

    def test_clean_fit_with_executor_loss_recovery(self):
        # Lineage recovery under a concurrent executor was the real finding
        # this harness surfaced (tasks discarded from the shared lost-block
        # set mid-flight); this pins the fixed behaviour.
        plan = FaultPlan(events=(ExecutorLoss(job="YtXJob", executor=1, occurrence=0),))
        ctx = SparkContext(
            executor=make_executor("threads", 4), faults=PlannedFaults(plan)
        )
        config = SPCAConfig(n_components=3, max_iterations=3, seed=0)
        try:
            with RaceChecker(ctx, label="executor-loss") as checker:
                SPCA(config, SparkBackend(config, context=ctx)).fit(_small_fit_data())
            report = checker.report()
            assert report.accesses > 0
            assert report.clean, [c.render() for c in report.conflicts]
        finally:
            ctx.executor.shutdown()


# ---------------------------------------------------------------------------
# acceptance: full sPCA fits pass clean under both concurrent executors


@pytest.mark.parametrize("executor_name", ["threads", "processes"])
def test_spca_fit_racechecks_clean(executor_name):
    reports = run_spca_racecheck(executor_name=executor_name, workers=4)
    assert len(reports) == 3
    assert {report.label for report in reports} == {
        f"mapreduce/{executor_name}",
        f"mapreduce-resident/{executor_name}",
        f"spark/{executor_name}",
    }
    for report in reports:
        assert report.clean, (
            report.label,
            [conflict.render() for conflict in report.conflicts],
        )
    # The spark engine's scoped path genuinely exercises the watched state.
    spark_report = next(r for r in reports if r.label.startswith("spark/"))
    assert spark_report.accesses > 0
