"""The user-facing MapReduce programming API.

Mirrors the Hadoop ``org.apache.hadoop.mapreduce`` API closely enough that
the sPCA jobs read like their Java originals: a job is a mapper, an optional
combiner, and an optional reducer, each with ``setup`` and ``cleanup`` hooks
and a :class:`TaskContext` carrying counters and job configuration.

The ``cleanup``-emits-records hook is load-bearing: sPCA's YtXJob uses a
*stateful combiner* (Section 4.1) -- the mapper accumulates partial XtX/YtX
matrices across all of its input and emits them once, from ``cleanup``.

Record path
-----------

The runtime hands each map task its whole split in one
:meth:`Mapper.map_batch` call.  The base implementation loops the
per-record :meth:`Mapper.map` hook, so a user job overrides ``map`` alone;
a job that vectorizes across its split, as the sPCA jobs do, overrides
``map_batch`` instead.  Reducers are called once per key, in the runtime's
sorted key order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence

Pair = tuple[Any, Any]


@dataclass
class TaskContext:
    """Per-task context: configuration, counters, and identity."""

    job_name: str
    task_id: int
    config: dict[str, Any] = field(default_factory=dict)
    counters: Counter[str] = field(default_factory=Counter)

    def increment(self, counter: str, amount: int = 1) -> None:
        self.counters[counter] += amount


class Mapper:
    """Base mapper: override :meth:`map`, optionally setup/cleanup."""

    def setup(self, ctx: TaskContext) -> None:
        """Called once before the first record of a task."""

    def map(self, key: Any, value: Any, ctx: TaskContext) -> Iterator[Pair]:
        """Process one record; yield zero or more (key, value) pairs."""
        yield key, value

    def map_batch(self, records: Sequence[Pair], ctx: TaskContext) -> list[Pair]:
        """Process one whole split; the default calls :meth:`map` per record.

        Override to vectorize across the split's records.
        """
        output: list[Pair] = []
        for key, value in records:
            output.extend(self.map(key, value, ctx))
        return output

    def cleanup(self, ctx: TaskContext) -> Iterable[Pair]:
        """Called once after the last record; may emit final pairs."""
        return ()


class Reducer:
    """Base reducer: override :meth:`reduce`."""

    def setup(self, ctx: TaskContext) -> None:
        """Called once before the first key of a task."""

    def reduce(self, key: Any, values: list[Any], ctx: TaskContext) -> Iterator[Pair]:
        """Process all values of one key; yield zero or more pairs."""
        yield key, values

    def cleanup(self, ctx: TaskContext) -> Iterable[Pair]:
        """Called once after the last key; may emit final pairs."""
        return ()


class Combiner(Reducer):
    """A combiner is a reducer run on map output before the shuffle."""


class IdentityMapper(Mapper):
    """Passes records through unchanged."""


class SumReducer(Reducer):
    """Sums the values of each key (works for numbers and numpy arrays)."""

    def reduce(self, key, values, ctx):
        total = values[0]
        for value in values[1:]:
            total = total + value
        yield key, total


@dataclass
class MapReduceJob:
    """A complete job description submitted to the runtime.

    Attributes:
        name: job name (appears in metrics).
        mapper: the mapper instance.
        reducer: optional reducer; a map-only job writes map output directly.
        combiner: optional combiner applied to each map task's output.
        num_reducers: reduce-task parallelism.
        config: arbitrary job configuration visible in every TaskContext
            (this stands in for Hadoop's DistributedCache: sPCA ships the
            small broadcast matrices CM/Ym/Xm here).
        output_path: when set, the runtime writes job output to this HDFS
            path (charging HDFS write bytes) instead of returning it only.
        output_is_intermediate: mark the output as intermediate data (it is
            consumed by a later job of the same computation) so it counts
            towards the paper's intermediate-data metric.
    """

    name: str
    mapper: Mapper
    reducer: Reducer | None = None
    combiner: Combiner | None = None
    num_reducers: int = 1
    config: dict[str, Any] = field(default_factory=dict)
    output_path: str | None = None
    output_is_intermediate: bool = False
