"""Resilient Distributed Datasets: lazy lineage + actions.

Transformations build a lineage graph without computing anything; actions
walk the lineage per partition.  ``cache()`` stores computed partitions in
the cluster's :class:`BlockManager` so later actions skip recomputation --
the mechanism that makes iterative algorithms cheap on Spark and that sPCA
exploits by caching the input matrix RDD (Section 4.2).

Fault tolerance is by lineage recomputation, exactly as in the Spark paper:
when the context injects a task failure, the partition is simply computed
again from its ancestry.
"""

from __future__ import annotations

import threading
import time
import zlib
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.engine.serde import sizeof
from repro.errors import InvalidPlanError
from repro.obs import get_tracer
from repro.obs.metrics import count_cache_hit, get_registry

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.engine.spark.context import SparkContext


def _hash_partition(key: Any, num_partitions: int) -> int:
    # The ``& 0xFFFFFFFF`` pins crc32 to its unsigned 32-bit value so a
    # signed implementation reachable through a shim can never flip
    # partition assignments (see the pinned regression test).
    return (zlib.crc32(repr(key).encode()) & 0xFFFFFFFF) % num_partitions


class _PartitionCache:
    """Memoized key partitioner: one crc32 per distinct key repr.

    Shuffles route thousands of records over a handful of distinct keys;
    hashing each distinct repr once turns the per-record cost into a dict
    lookup while producing exactly :func:`_hash_partition`'s assignment.
    """

    def __init__(self, num_partitions: int):
        self.num_partitions = num_partitions
        self._cache: dict[str, int] = {}

    def __call__(self, key: Any) -> int:
        key_repr = repr(key)
        partition = self._cache.get(key_repr)
        if partition is None:
            partition = (
                zlib.crc32(key_repr.encode()) & 0xFFFFFFFF
            ) % self.num_partitions
            self._cache[key_repr] = partition
        return partition


class RDD:
    """An immutable, partitioned collection with lazy transformations."""

    def __init__(
        self,
        context: SparkContext,
        num_partitions: int,
        compute: Callable[[int, Any], list],
        parents: tuple["RDD", ...] = (),
    ):
        self.context = context
        self.num_partitions = num_partitions
        self._compute = compute
        self.parents = parents
        self.rdd_id = context.new_rdd_id()
        self._cached = False

    # -- construction ------------------------------------------------------

    @classmethod
    def _from_partitions(cls, context: SparkContext, partitions: list[list]) -> "RDD":
        data = [list(p) for p in partitions]
        return cls(context, len(data), lambda split, stats: list(data[split]))

    # -- lineage evaluation -------------------------------------------------

    def _iterator(self, split: int, stats=None) -> list:
        """Materialize one partition, honouring the cache.

        Inside a job every task attempt runs under a task scope
        (``ctx._active_scope()``): cache puts are deferred into the scope
        (with a local overlay so the task sees its own puts), trace events
        are buffered for ordered commit, and the lineage-recompute clock is
        per-scope -- task attempts never touch shared driver state.  With
        no scope (driver-side evaluation outside any job, such as a size
        probe) cache hits count directly and puts land in the block
        manager.
        """
        ctx = self.context
        scope = ctx._active_scope()
        tracer = get_tracer()
        if self._cached:
            if scope is not None:
                local = scope.overlay.get((self.rdd_id, split))
                if local is not None:
                    data, nbytes = local
                    # Buffer whenever either sink is live: scope events are
                    # replayed at driver commit into the tracer AND the
                    # metrics registry (tasks never count there directly).
                    if tracer.enabled or get_registry().enabled:
                        scope.events.append((
                            "cache_hit",
                            dict(rdd_id=self.rdd_id, split=split,
                                 bytes=nbytes, on_disk=False),
                        ))
                    return data
            block = ctx.block_manager.get(self.rdd_id, split)
            if block is not None:
                if block.on_disk and stats is not None:
                    stats.hdfs_read_bytes += block.nbytes
                registry = get_registry()
                if tracer.enabled or registry.enabled:
                    attrs = dict(
                        rdd_id=self.rdd_id, split=split,
                        bytes=block.nbytes, on_disk=block.on_disk,
                    )
                    if scope is not None:
                        scope.events.append(("cache_hit", attrs))
                    else:
                        # Unscoped evaluation runs on the driver thread, so
                        # count directly; scoped events are counted at commit.
                        if tracer.enabled:
                            tracer.event("cache_hit", **attrs)
                        if registry.enabled:
                            count_cache_hit(registry, block.nbytes)
                return block.data
        if scope is None:
            data = self._compute(split, stats)
            if self._cached:
                # Cached again, so the block is no longer lost.
                ctx._lost_blocks.discard((self.rdd_id, split))
                ctx.block_manager.put(self.rdd_id, split, data, sizeof(data))
            return data
        key = (self.rdd_id, split)
        # The shared lost-block set is read-only inside a task: recomputed
        # keys are staged in the scope and discarded by the driver at
        # commit, so a sibling task never observes a mid-flight mutation.
        # The scope's own discards mask the shared set for the task's
        # retries.
        was_lost = (
            self._cached
            and key not in scope.lost_discards
            and key in ctx._lost_blocks
        )
        # Only the outermost lost block charges its recompute time: a lost
        # parent recomputed inside it is part of the same recovery work.
        charge = was_lost and scope.recompute_depth == 0
        if was_lost:
            scope.recompute_depth += 1
        started = time.perf_counter()
        try:
            data = self._compute(split, stats)
        finally:
            if was_lost:
                scope.recompute_depth -= 1
                scope.lost_discards.add(key)
        if charge:
            scope.recompute_seconds += time.perf_counter() - started
            if tracer.enabled:
                scope.events.append((
                    "lineage_recompute",
                    dict(rdd_id=self.rdd_id, split=split),
                ))
        if self._cached:
            nbytes = sizeof(data)
            scope.puts.append((self.rdd_id, split, data, nbytes))
            scope.overlay[(self.rdd_id, split)] = (data, nbytes)
        return data

    # -- transformations (lazy) ----------------------------------------------

    def map(self, fn: Callable[[Any], Any]) -> "RDD":
        return self.map_partitions(lambda items: [fn(item) for item in items])

    def flat_map(self, fn: Callable[[Any], Iterable[Any]]) -> "RDD":
        return self.map_partitions(
            lambda items: [out for item in items for out in fn(item)]
        )

    def filter(self, predicate: Callable[[Any], bool]) -> "RDD":
        return self.map_partitions(
            lambda items: [item for item in items if predicate(item)]
        )

    def map_partitions(self, fn: Callable[[list], Iterable[Any]]) -> "RDD":
        return RDD(
            self.context,
            self.num_partitions,
            lambda split, stats: list(fn(self._iterator(split, stats))),
            parents=(self,),
        )

    def map_partitions_with_index(
        self, fn: Callable[[int, list], Iterable[Any]]
    ) -> "RDD":
        return RDD(
            self.context,
            self.num_partitions,
            lambda split, stats: list(fn(split, self._iterator(split, stats))),
            parents=(self,),
        )

    def zip_partitions(self, other: "RDD", fn: Callable[[list, list], Iterable[Any]]) -> "RDD":
        """Combine co-partitioned RDDs partition-by-partition (zipPartitions)."""
        if other.context is not self.context:
            raise InvalidPlanError("cannot zip RDDs from different contexts")
        if other.num_partitions != self.num_partitions:
            raise InvalidPlanError(
                f"zip_partitions needs equal partition counts: "
                f"{self.num_partitions} vs {other.num_partitions}"
            )
        return RDD(
            self.context,
            self.num_partitions,
            lambda split, stats: list(
                fn(self._iterator(split, stats), other._iterator(split, stats))
            ),
            parents=(self, other),
        )

    def union(self, other: "RDD") -> "RDD":
        if other.context is not self.context:
            raise InvalidPlanError("cannot union RDDs from different contexts")
        mine = self.num_partitions

        def compute(split, stats):
            if split < mine:
                return self._iterator(split, stats)
            return other._iterator(split - mine, stats)

        return RDD(
            self.context, mine + other.num_partitions, compute, parents=(self, other)
        )

    def sample(self, fraction: float, seed: int = 0) -> "RDD":
        if not 0.0 < fraction <= 1.0:
            raise InvalidPlanError(f"fraction must be in (0, 1], got {fraction}")
        import numpy as np

        def sample_partition(split, items):
            rng = np.random.default_rng((seed, split))
            return [item for item in items if rng.random() < fraction]

        return self.map_partitions_with_index(sample_partition)

    def zip_with_index(self) -> "RDD":
        # Like Spark, this needs one extra pass to learn partition sizes.
        counts = self.context.run_job(self, len, name="zipWithIndex.counts")
        offsets = [0]
        for count in counts[:-1]:
            offsets.append(offsets[-1] + count)

        def attach(split, items):
            return [(item, offsets[split] + i) for i, item in enumerate(items)]

        return self.map_partitions_with_index(attach)

    # -- pair-RDD transformations ---------------------------------------------

    def map_values(self, fn: Callable[[Any], Any]) -> "RDD":
        return self.map(lambda kv: (kv[0], fn(kv[1])))

    def keys(self) -> "RDD":
        return self.map(lambda kv: kv[0])

    def values(self) -> "RDD":
        return self.map(lambda kv: kv[1])

    def reduce_by_key(
        self, fn: Callable[[Any, Any], Any], num_partitions: int | None = None
    ) -> "RDD":
        return self._shuffle(fn, num_partitions, combine_values=True)

    def group_by_key(self, num_partitions: int | None = None) -> "RDD":
        grouped = self._shuffle(None, num_partitions, combine_values=False)
        return grouped

    def _shuffle(self, fn, num_partitions, combine_values: bool) -> "RDD":
        """Hash-shuffle this pair-RDD into *num_partitions* new partitions.

        Map-side combining happens per input partition when *fn* is given
        (mirroring Spark's reduceByKey); shuffle bytes are charged on the
        stage that first materializes the shuffled RDD.
        """
        if num_partitions is None:
            num_partitions = self.num_partitions
        state: dict[str, Any] = {"partitions": None, "lock": threading.Lock()}

        def materialize(stats):
            buckets: list[dict[Any, Any]] = [dict() for _ in range(num_partitions)]
            shuffle_bytes = 0
            partition_of = _PartitionCache(num_partitions)
            for split in range(self.num_partitions):
                local: dict[Any, Any] = {}
                for key, value in self._iterator(split, stats):
                    if combine_values:
                        local[key] = fn(local[key], value) if key in local else value
                    else:
                        local.setdefault(key, []).append(value)
                shuffle_bytes += sizeof(local)
                for key, value in local.items():
                    bucket = buckets[partition_of(key)]
                    if combine_values:
                        bucket[key] = fn(bucket[key], value) if key in bucket else value
                    else:
                        bucket.setdefault(key, []).extend(value)
            if stats is not None:
                stats.shuffle_bytes += shuffle_bytes
            state["partitions"] = [
                sorted(bucket.items(), key=lambda kv: repr(kv[0])) for bucket in buckets
            ]

        def compute(split, stats):
            # Double-checked lock: the first task to get here materializes
            # the whole shuffle (charging its shuffle bytes to that task's
            # stats); the rest reuse it.
            if state["partitions"] is None:
                with state["lock"]:
                    if state["partitions"] is None:
                        materialize(stats)
            return list(state["partitions"][split])

        return RDD(self.context, num_partitions, compute, parents=(self,))

    def distinct(self, num_partitions: int | None = None) -> "RDD":
        """Deduplicate elements (hash shuffle, like Spark's distinct)."""
        paired = self.map(lambda item: (item, None))
        deduped = paired._shuffle(lambda a, b: a, num_partitions, combine_values=True)
        return deduped.keys()

    def sort_by(self, key_fn: Callable[[Any], Any], ascending: bool = True) -> "RDD":
        """Total sort (collect-based range partitioning simplification)."""
        state: dict[str, Any] = {"partitions": None, "lock": threading.Lock()}
        num_partitions = self.num_partitions

        def materialize(stats):
            everything = []
            for split in range(num_partitions):
                everything.extend(self._iterator(split, stats))
            everything.sort(key=key_fn, reverse=not ascending)
            if stats is not None:
                stats.shuffle_bytes += sizeof(everything)
            bounds = [
                (len(everything) * i) // num_partitions
                for i in range(num_partitions + 1)
            ]
            state["partitions"] = [
                everything[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])
            ]

        def compute(split, stats):
            if state["partitions"] is None:
                with state["lock"]:
                    if state["partitions"] is None:
                        materialize(stats)
            return list(state["partitions"][split])

        return RDD(self.context, num_partitions, compute, parents=(self,))

    def join(self, other: "RDD", num_partitions: int | None = None) -> "RDD":
        """Inner join of two pair-RDDs on their keys."""
        tagged = self.map_values(lambda v: ("l", v)).union(
            other.map_values(lambda v: ("r", v))
        )
        grouped = tagged.group_by_key(num_partitions or self.num_partitions)

        def emit(kv):
            key, tagged_values = kv
            left = [v for tag, v in tagged_values if tag == "l"]
            right = [v for tag, v in tagged_values if tag == "r"]
            return [(key, (lv, rv)) for lv in left for rv in right]

        return grouped.flat_map(emit)

    def glom(self) -> "RDD":
        """Each partition becomes a single list element."""
        return self.map_partitions(lambda items: [list(items)])

    def coalesce(self, num_partitions: int) -> "RDD":
        """Reduce the partition count without a shuffle."""
        if num_partitions < 1:
            raise InvalidPlanError(f"num_partitions must be >= 1, got {num_partitions}")
        num_partitions = min(num_partitions, self.num_partitions)
        groups: list[list[int]] = [[] for _ in range(num_partitions)]
        for split in range(self.num_partitions):
            groups[split % num_partitions].append(split)

        def compute(split, stats):
            merged = []
            for parent_split in groups[split]:
                merged.extend(self._iterator(parent_split, stats))
            return merged

        return RDD(self.context, num_partitions, compute, parents=(self,))

    def repartition(self, num_partitions: int) -> "RDD":
        """Change the partition count with a full shuffle."""
        if num_partitions < 1:
            raise InvalidPlanError(f"num_partitions must be >= 1, got {num_partitions}")
        indexed = self.zip_with_index().map(lambda item: (item[1], item[0]))
        shuffled = indexed._shuffle(None, num_partitions, combine_values=False)
        return shuffled.flat_map(lambda kv: kv[1])

    def to_debug_string(self) -> str:
        """Render the lineage tree, like Spark's toDebugString."""
        lines: list[str] = []

        def walk(rdd: "RDD", depth: int) -> None:
            cached = " [cached]" if rdd._cached else ""
            lines.append(
                f"{'  ' * depth}({rdd.num_partitions}) RDD#{rdd.rdd_id}{cached}"
            )
            for parent in rdd.parents:
                walk(parent, depth + 1)

        walk(self, 0)
        return "\n".join(lines)

    # -- persistence -------------------------------------------------------

    def cache(self) -> "RDD":
        """Persist computed partitions in cluster memory (spill to disk)."""
        self._cached = True
        return self

    def unpersist(self) -> "RDD":
        self._cached = False
        self.context.block_manager.evict(self.rdd_id)
        return self

    # -- actions (eager) -----------------------------------------------------

    def collect(self) -> list:
        parts = self.context.run_job(self, list, name="collect")
        return [item for part in parts for item in part]

    def count(self) -> int:
        return sum(self.context.run_job(self, len, name="count"))

    def reduce(self, fn: Callable[[Any, Any], Any]) -> Any:
        def reduce_partition(items):
            if not items:
                return None
            result = items[0]
            for item in items[1:]:
                result = fn(result, item)
            return result

        partials = [
            p
            for p in self.context.run_job(self, reduce_partition, name="reduce")
            if p is not None
        ]
        if not partials:
            raise InvalidPlanError("reduce of an empty RDD")
        result = partials[0]
        for partial in partials[1:]:
            result = fn(result, partial)
        return result

    def fold(self, zero: Any, fn: Callable[[Any, Any], Any]) -> Any:
        def fold_partition(items):
            result = zero
            for item in items:
                result = fn(result, item)
            return result

        result = zero
        for partial in self.context.run_job(self, fold_partition, name="fold"):
            result = fn(result, partial)
        return result

    def aggregate(self, zero: Any, seq_op, comb_op) -> Any:
        def aggregate_partition(items):
            result = zero
            for item in items:
                result = seq_op(result, item)
            return result

        partials = self.context.run_job(self, aggregate_partition, name="aggregate")
        result = partials[0]
        for partial in partials[1:]:
            result = comb_op(result, partial)
        return result

    def tree_aggregate(self, zero: Any, seq_op, comb_op) -> Any:
        """Provided for API parity; the simulation combines flat."""
        return self.aggregate(zero, seq_op, comb_op)

    def sum(self):
        return self.fold(0, lambda a, b: a + b)

    def take(self, count: int) -> list:
        taken: list = []
        for split in range(self.num_partitions):
            results = self.context.run_job(
                _SinglePartitionView(self, split), list, name="take"
            )
            taken.extend(results[0])
            if len(taken) >= count:
                break
        return taken[:count]

    def first(self) -> Any:
        taken = self.take(1)
        if not taken:
            raise InvalidPlanError("first() of an empty RDD")
        return taken[0]

    def foreach(self, fn: Callable[[Any], None]) -> None:
        def run_partition(items):
            for item in items:
                fn(item)
            return None

        self.context.run_job(self, run_partition, name="foreach")

    def foreach_partition(self, fn: Callable[[list], None]) -> None:
        def run_partition(items):
            fn(items)
            return None

        self.context.run_job(self, run_partition, name="foreachPartition")


class _SinglePartitionView(RDD):
    """Internal: exposes one partition of a parent RDD as its own RDD."""

    def __init__(self, parent: RDD, split: int):
        super().__init__(
            parent.context,
            1,
            lambda _, stats: parent._iterator(split, stats),
            parents=(parent,),
        )
