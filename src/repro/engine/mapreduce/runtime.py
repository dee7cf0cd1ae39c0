"""The MapReduce job runtime: split -> map -> combine -> shuffle -> reduce.

Execution is sequential inside one Python process, but the runtime measures
the compute time of every task and reconstructs the cluster timeline with
the cost model: task times are scheduled onto the cluster's cores, map
output is spilled to local disk and fetched over the network (the disk-based
platform's signature), and the per-job fixed overhead models Hadoop job
initialization.  All byte counts are real, measured from the records that
actually flowed.
"""

from __future__ import annotations

import copy
import time
import zlib
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.engine.cluster import ClusterSpec
from repro.engine.exec import TaskExecutor, resolve_executor
from repro.engine.exec.resident import ResidentPayloadRef, resolve_payload
from repro.engine.mapreduce.api import MapReduceJob, Mapper, Reducer, TaskContext
from repro.engine.mapreduce.hdfs import InMemoryHDFS
from repro.engine.metrics import EngineMetrics, JobStats
from repro.engine.serde import sizeof_pairs
from repro.engine.simtime import (
    HADOOP_LIKE_COSTS,
    CostModel,
    apply_speculative_execution,
    schedule_tasks,
)
from repro.errors import InvalidPlanError, JobFailedError
from repro.faults import FaultInjector, FaultSite, RandomFaults
from repro.obs import EventTrace, JobTrace, PhaseTrace, TaskTrace, get_tracer

Pair = tuple[Any, Any]


class ResidentDataset:
    """An input dataset whose splits are pinned worker-resident.

    Driver-side code (metrics accounting, the ablation's latent join) sees
    the *real* splits through ``len``/iteration/indexing; the runtime ships
    the matching :class:`~repro.engine.exec.ResidentPayloadRef` to the
    executor instead, so after the pinning job the per-dispatch payload is
    O(model), not O(data).  Simulated HDFS read charges are still taken from
    the real splits -- residency is a driver-pipe optimization, not a change
    to what the modeled platform reads.
    """

    def __init__(
        self,
        splits: Sequence[Sequence[Pair]],
        refs: Sequence[ResidentPayloadRef],
    ):
        if len(splits) != len(refs):
            raise InvalidPlanError(
                f"resident dataset needs one ref per split, got "
                f"{len(splits)} splits and {len(refs)} refs"
            )
        self.splits: list[list[Pair]] = [list(split) for split in splits]
        self.refs: list[ResidentPayloadRef] = list(refs)

    def __len__(self) -> int:
        return len(self.splits)

    def __iter__(self):
        return iter(self.splits)

    def __getitem__(self, index):
        return self.splits[index]


def _partition_of(key: Any, num_partitions: int) -> int:
    """Deterministic key partitioner (Python's hash() is salted per run).

    The explicit ``& 0xFFFFFFFF`` pins the crc32 to its unsigned 32-bit
    value: pre-3.0 zlib (and C implementations reachable through shims)
    returned signed results, and a negative hash would silently flip
    partition assignments across platforms.
    """
    return (zlib.crc32(repr(key).encode()) & 0xFFFFFFFF) % num_partitions


def _partition_pairs(pairs: Sequence[Pair], num_partitions: int) -> list[list[Pair]]:
    """Bucket records by key in one pass, hashing each distinct repr once.

    Equivalent to calling :func:`_partition_of` per record, but the crc32 of
    a key's repr is computed only the first time that repr is seen -- sPCA
    shuffles carry a handful of distinct keys across thousands of records,
    so this removes the per-record hash from the shuffle's hot loop.
    """
    buckets: list[list[Pair]] = [[] for _ in range(num_partitions)]
    partition_of: dict[str, int] = {}
    for pair in pairs:
        key_repr = repr(pair[0])
        partition = partition_of.get(key_repr)
        if partition is None:
            partition = (zlib.crc32(key_repr.encode()) & 0xFFFFFFFF) % num_partitions
            partition_of[key_repr] = partition
        buckets[partition].append(pair)
    return buckets


def _instantiate(template):
    """Fresh per-task instance: classes are constructed, instances deep-copied."""
    if isinstance(template, type):
        return template()
    return copy.deepcopy(template)


# -- pure task bodies ---------------------------------------------------------
#
# Module-level so a ProcessPoolExecutor can pickle them by reference; they
# touch nothing but their arguments, which is what makes a stage's tasks
# safe to run in any order on any executor.


def _run_map_once(
    template, config: dict, job_name: str, split, task_id: int
) -> tuple[list[Pair], TaskContext]:
    mapper: Mapper = _instantiate(template)
    ctx = TaskContext(job_name, task_id, dict(config))
    mapper.setup(ctx)
    output = list(mapper.map_batch(split, ctx))
    output.extend(mapper.cleanup(ctx))
    return output, ctx


def _run_reduce_once(
    template, config: dict, job_name: str, pairs, task_id: int
) -> tuple[list[Pair], TaskContext]:
    reducer: Reducer = _instantiate(template)
    ctx = TaskContext(job_name, task_id, dict(config))
    reducer.setup(ctx)
    groups: dict[Any, list[Any]] = defaultdict(list)
    for key, value in pairs:
        groups[key].append(value)
    output: list[Pair] = []
    for key in sorted(groups, key=repr):
        output.extend(reducer.reduce(key, groups[key], ctx))
    output.extend(reducer.cleanup(ctx))
    return output, ctx


@dataclass
class _StageTaskOutcome:
    """What one task hands back for ordered commit.

    Pure data: the driver replays counters, fault accounting, and trace
    events from it in task-index order, so every executor -- serial
    included -- commits the same side effects in the same order.
    """

    ok: bool
    pairs: list[Pair] | None
    counters: dict[str, int]
    seconds: float
    retries: int
    fault_events: list[dict[str, Any]]
    failed_seconds: list[float]


def _execute_stage_task(payload) -> _StageTaskOutcome:
    """Run one task's full retry loop from a precomputed fault plan.

    ``payload`` is ``(kind, template, config, job_name, task_id, data, plan)``
    where ``plan`` comes from :meth:`FaultInjector.plan_task`.  Everything
    observable is returned, not applied: the driver commits in task order.
    """
    kind, template, config, job_name, task_id, data, plan = payload
    # Worker-resident inputs arrive as a tiny ref; everything else passes
    # through untouched.
    data = resolve_payload(data)
    total_seconds = 0.0
    fault_events: list[dict[str, Any]] = []
    failed_seconds: list[float] = []
    for attempt, (factor, label) in enumerate(plan, 1):
        started = time.perf_counter()
        run_once = _run_map_once if kind == "map" else _run_reduce_once
        result, ctx = run_once(template, config, job_name, data, task_id)
        elapsed = time.perf_counter() - started
        if factor != 1.0:
            elapsed *= factor
            fault_events.append(
                dict(fault="straggler", job=job_name, kind=kind,
                     task=task_id, attempt=attempt, factor=factor)
            )
        total_seconds += elapsed
        if label is None:
            return _StageTaskOutcome(
                ok=True, pairs=result, counters=dict(ctx.counters),
                seconds=total_seconds, retries=attempt - 1,
                fault_events=fault_events, failed_seconds=failed_seconds,
            )
        failed_seconds.append(elapsed)
        fault_events.append(
            dict(fault=label, job=job_name, kind=kind,
                 task=task_id, attempt=attempt)
        )
    return _StageTaskOutcome(
        ok=False, pairs=None, counters={}, seconds=total_seconds,
        retries=len(plan), fault_events=fault_events,
        failed_seconds=failed_seconds,
    )


class MapReduceRuntime:
    """Executes :class:`MapReduceJob` instances over a simulated cluster.

    Args:
        cluster: hardware description; its core count bounds task parallelism.
        cost_model: converts measured work into simulated seconds.
        hdfs: the simulated distributed filesystem (a fresh one by default).
        failure_rate: probability that any individual task attempt fails and
            is retried (fault-tolerance testing).  Shorthand for a
            :class:`~repro.faults.RandomFaults` injector.
        max_task_attempts: attempts before the whole job is declared failed,
            matching Hadoop's ``mapreduce.map.maxattempts`` default of 4.
        seed: seed for failure injection.
        faults: a :class:`~repro.faults.FaultInjector` consulted at every
            task attempt; overrides ``failure_rate``/``seed`` (which build
            the default ``RandomFaults(failure_rate, seed)``, bit-compatible
            with the historical inline coin flip).  Stage directives a plan
            issues for Spark-only faults (executor loss, driver memory caps)
            are ignored here: MapReduce tasks restart from durable HDFS.
        executor: a :class:`~repro.engine.exec.TaskExecutor`, an executor
            name (``serial``/``threads``/``processes``), or None for serial.
            Every executor runs the same stage path: fault plans are drawn
            for all of a stage's tasks up front, the tasks run (in parallel
            on concurrent executors), and results commit in task-index
            order, so outputs, counters, byte totals, trace events and the
            fault generator's state are identical on every executor.
        workers: worker count when ``executor`` is given by name.
    """

    def __init__(
        self,
        cluster: ClusterSpec | None = None,
        cost_model: CostModel = HADOOP_LIKE_COSTS,
        hdfs: InMemoryHDFS | None = None,
        failure_rate: float = 0.0,
        max_task_attempts: int = 4,
        seed: int = 0,
        faults: FaultInjector | None = None,
        executor: TaskExecutor | str | None = None,
        workers: int | None = None,
    ):
        if not 0.0 <= failure_rate < 1.0:
            raise InvalidPlanError(f"failure_rate must be in [0, 1), got {failure_rate}")
        self.cluster = cluster or ClusterSpec()
        self.cost_model = cost_model
        self.hdfs = hdfs or InMemoryHDFS()
        self.failure_rate = failure_rate
        self.max_task_attempts = max_task_attempts
        self.metrics = EngineMetrics()
        self.faults = faults if faults is not None else RandomFaults(failure_rate, seed)
        self.executor = resolve_executor(executor, workers)

    # -- public API ------------------------------------------------------

    def run(
        self, job: MapReduceJob, input_data: str | Sequence[Sequence[Pair]]
    ) -> list[Pair]:
        """Run one job; returns its output records and records JobStats.

        Args:
            job: the job description.
            input_data: either an HDFS path (the file is read and split one
                split per core) or an explicit list of splits, each a list of
                (key, value) records.
        """
        started = time.perf_counter()
        stats = JobStats(
            name=job.name, output_is_intermediate=job.output_is_intermediate
        )
        # Stage-level directives (executor loss, driver caps) are Spark
        # concepts; calling begin_job still advances the plan's occurrence
        # counters so cross-engine plans stay aligned.
        self.faults.begin_job("mapreduce", job.name)
        splits, refs = self._resolve_splits(input_data, stats)
        stats.n_map_tasks = len(splits)

        map_outputs, map_times, map_retries = self._map_phase(
            job, splits, stats, refs
        )
        output, reduce_times, reduce_retries = self._reduce_phase(job, map_outputs, stats)

        if job.output_path is not None:
            stats.output_bytes = self.hdfs.write(job.output_path, output)
            stats.hdfs_write_bytes += stats.output_bytes
        else:
            stats.output_bytes = sizeof_pairs(output)

        stats.wall_seconds = time.perf_counter() - started
        stats.sim_seconds = self._simulate_timeline(
            stats, map_times, reduce_times, map_retries, reduce_retries
        )
        self.metrics.record(stats)
        return output

    # -- phases ----------------------------------------------------------

    def _resolve_splits(
        self, input_data, stats: JobStats
    ) -> tuple[list[list[Pair]], "list[ResidentPayloadRef] | None"]:
        if isinstance(input_data, str):
            records = self.hdfs.read(input_data)
            stats.hdfs_read_bytes += self.hdfs.size(input_data)
            num_splits = max(1, min(self.cluster.total_cores, len(records)))
            boundaries = np.linspace(0, len(records), num_splits + 1, dtype=int)
            return [
                records[lo:hi] for lo, hi in zip(boundaries[:-1], boundaries[1:]) if hi > lo
            ], None
        refs: list[ResidentPayloadRef] | None = None
        if isinstance(input_data, ResidentDataset):
            splits = input_data.splits
            refs = input_data.refs
        else:
            splits = [list(split) for split in input_data]
        if not splits:
            raise InvalidPlanError("job has no input splits")
        # MapReduce reads its input from the distributed filesystem on every
        # job -- this re-read is the disk-based platform's defining cost.
        # Charged from the *real* splits even when refs ship instead: worker
        # residency changes driver-pipe traffic, not modeled HDFS traffic.
        stats.hdfs_read_bytes += sum(sizeof_pairs(split) for split in splits)
        return splits, refs

    def _map_phase(
        self, job, splits, stats, refs=None
    ) -> tuple[list[list[Pair]], list[float], list[int]]:
        map_outputs, map_times, map_retries = self._run_phase(
            job, "map", job.mapper, splits, stats, payload_datas=refs
        )
        stats.map_output_bytes = sum(sizeof_pairs(out) for out in map_outputs)
        if job.combiner is not None:
            combined, combine_times, combine_retries = self._run_phase(
                job, "combine", job.combiner, map_outputs, stats
            )
            for task_id, (seconds, retries) in enumerate(
                zip(combine_times, combine_retries)
            ):
                slot = min(task_id, len(map_times) - 1)
                map_times[slot] += seconds
                map_retries[slot] += retries
            map_outputs = combined
        return map_outputs, map_times, map_retries

    def _reduce_phase(
        self, job, map_outputs, stats
    ) -> tuple[list[Pair], list[float], list[int]]:
        all_pairs = [pair for output in map_outputs for pair in output]
        if job.reducer is None:
            return all_pairs, [], []
        stats.shuffle_bytes = sizeof_pairs(all_pairs)
        num_reducers = max(1, job.num_reducers)
        stats.n_reduce_tasks = num_reducers
        partitions = _partition_pairs(all_pairs, num_reducers)
        outputs, reduce_times, reduce_retries = self._run_phase(
            job, "reduce", job.reducer, partitions, stats
        )
        output = [pair for pairs in outputs for pair in pairs]
        return output, reduce_times, reduce_retries

    # -- stage execution ---------------------------------------------------

    def _run_phase(
        self, job, kind: str, template, datas, stats: JobStats,
        payload_datas=None,
    ) -> tuple[list[list[Pair]], list[float], list[int]]:
        """Run one stage's independent tasks on the executor.

        Fault-injection decisions are drawn for every task up front, in
        ascending task-index order; the pure task bodies then run on the
        executor (a left-to-right loop for ``serial``), and every side
        effect -- counters, fault accounting, trace events, the job-fatal
        raise -- is committed from the returned outcomes in task-index
        order.  A failed attempt's counters are discarded, as Hadoop
        discards the output of a killed task attempt.

        *payload_datas*, when given, is what actually ships to the executor
        in place of ``datas`` (worker-resident refs standing in for pinned
        splits); task count and index order still follow ``datas``.
        """
        plans = [
            self.faults.plan_task(
                FaultSite("mapreduce", job.name, kind, task_id, 0),
                self.max_task_attempts,
            )
            for task_id in range(len(datas))
        ]
        config = dict(job.config)
        shipped = payload_datas if payload_datas is not None else datas
        payloads = [
            (kind, template, config, job.name, task_id, shipped[task_id],
             plans[task_id])
            for task_id in range(len(datas))
        ]
        outcomes = self.executor.run_tasks(
            _execute_stage_task, payloads, label=f"{job.name}/{kind}"
        )
        outputs: list[list[Pair]] = []
        times: list[float] = []
        retries_out: list[int] = []
        tracer = get_tracer()
        scale = self.cost_model.compute_scale
        for task_id, outcome in enumerate(outcomes):
            failed_index = 0
            for event in outcome.fault_events:
                if "factor" in event:  # straggler: attempt output still commits
                    stats.count_fault("straggler")
                else:
                    stats.task_retries += 1
                    stats.count_fault(event["fault"])
                    stats.recovery_sim_seconds += (
                        outcome.failed_seconds[failed_index] * scale
                    )
                    failed_index += 1
                if tracer.enabled:
                    tracer.event("fault_injected", **event)
            if not outcome.ok:
                raise JobFailedError(
                    f"job {stats.name!r}: {kind} task {task_id} failed "
                    f"{self.max_task_attempts} times"
                )
            for counter, amount in outcome.counters.items():
                stats.counters[counter] = stats.counters.get(counter, 0) + amount
            outputs.append(outcome.pairs)
            times.append(outcome.seconds)
            retries_out.append(outcome.retries)
        return outputs, times, retries_out

    # -- simulated timeline ----------------------------------------------

    def _simulate_timeline(
        self, stats, map_times, reduce_times, map_retries=(), reduce_retries=()
    ) -> float:
        cost = self.cost_model
        cores = self.cluster.total_cores
        capped_map = apply_speculative_execution(map_times)
        capped_reduce = apply_speculative_execution(reduce_times)
        map_tasks = [
            t * cost.compute_scale + cost.per_task_overhead_s for t in capped_map
        ]
        reduce_tasks = [
            t * cost.compute_scale + cost.per_task_overhead_s for t in capped_reduce
        ]
        map_schedule = schedule_tasks(map_tasks, cores)
        reduce_schedule = schedule_tasks(reduce_tasks, cores)
        map_makespan = max((p.end for p in map_schedule), default=0.0)
        reduce_makespan = max((p.end for p in reduce_schedule), default=0.0)

        seconds = cost.per_job_overhead_s
        read_start = seconds
        seconds += cost.disk_seconds(stats.hdfs_read_bytes)
        map_start = seconds
        seconds += map_makespan
        spill_start = seconds
        # Raw map output spills to local disk before combining (this is what
        # punishes jobs whose mappers emit a partial per record); the
        # combined output is fetched over the network and written once more
        # on the reduce side before reducing.
        seconds += cost.disk_seconds(stats.map_output_bytes)
        shuffle_start = seconds
        seconds += cost.disk_seconds(stats.shuffle_bytes)
        seconds += cost.network_seconds(stats.shuffle_bytes)
        reduce_start = seconds
        seconds += reduce_makespan
        write_start = seconds
        seconds += cost.disk_seconds(stats.hdfs_write_bytes)

        tracer = get_tracer()
        if tracer.enabled:
            stats.sim_seconds = seconds
            self._record_trace(
                stats,
                read_start=read_start, map_start=map_start,
                spill_start=spill_start, shuffle_start=shuffle_start,
                reduce_start=reduce_start, write_start=write_start,
                total=seconds,
                map_schedule=map_schedule, reduce_schedule=reduce_schedule,
                map_caps=(map_times, capped_map, map_retries),
                reduce_caps=(reduce_times, capped_reduce, reduce_retries),
            )
        return seconds

    def _record_trace(
        self, stats, *, read_start, map_start, spill_start, shuffle_start,
        reduce_start, write_start, total, map_schedule, reduce_schedule,
        map_caps, reduce_caps,
    ) -> None:
        """Hand the finished job's reconstructed timeline to the tracer."""

        def tasks_for(schedule, caps):
            raw, capped, retries = caps
            return [
                TaskTrace(
                    task_id=p.task_id,
                    slot=p.slot,
                    start=p.start,
                    duration=p.duration,
                    retries=retries[p.task_id] if p.task_id < len(retries) else 0,
                    speculative_kill=capped[p.task_id] < raw[p.task_id],
                    wall_seconds=raw[p.task_id],
                )
                for p in schedule
            ]

        phases = [PhaseTrace("job init", 0.0, read_start)]
        if stats.hdfs_read_bytes:
            phases.append(
                PhaseTrace("hdfs read", read_start, map_start - read_start,
                           attrs={"bytes": stats.hdfs_read_bytes})
            )
        phases.append(
            PhaseTrace("map", map_start, spill_start - map_start,
                       tasks=tasks_for(map_schedule, map_caps))
        )
        if stats.map_output_bytes:
            phases.append(
                PhaseTrace("map spill", spill_start, shuffle_start - spill_start,
                           attrs={"bytes": stats.map_output_bytes})
            )
        if stats.shuffle_bytes:
            phases.append(
                PhaseTrace("shuffle", shuffle_start, reduce_start - shuffle_start,
                           attrs={"bytes": stats.shuffle_bytes})
            )
        if reduce_schedule:
            phases.append(
                PhaseTrace("reduce", reduce_start, write_start - reduce_start,
                           tasks=tasks_for(reduce_schedule, reduce_caps))
            )
        if stats.hdfs_write_bytes:
            phases.append(
                PhaseTrace("hdfs write", write_start, total - write_start,
                           attrs={"bytes": stats.hdfs_write_bytes})
            )
        events = []
        if stats.hdfs_read_bytes:
            events.append(
                EventTrace("hdfs_read", read_start, {"bytes": stats.hdfs_read_bytes})
            )
        if stats.shuffle_bytes:
            events.append(
                EventTrace("shuffle", shuffle_start, {"bytes": stats.shuffle_bytes})
            )
        if stats.hdfs_write_bytes:
            events.append(
                EventTrace("hdfs_write", write_start, {"bytes": stats.hdfs_write_bytes})
            )
        get_tracer().record_job(JobTrace.from_stats(stats, phases=phases, events=events))
