"""The split-at-a-time record path: dispatch, fallback, and partitioning."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.backends.mapreduce import MapReduceBackend
from repro.backends.spark import SparkBackend
from repro.core.config import SPCAConfig
from repro.engine.cluster import ClusterSpec
from repro.engine.mapreduce import MapReduceJob, MapReduceRuntime, Mapper, Reducer
from repro.engine.mapreduce.runtime import _partition_of, _partition_pairs
from repro.engine.spark.context import SparkContext
from repro.errors import InvalidPlanError, ShapeError
from repro.jobs import kernels


class RecordingBatchMapper(Mapper):
    """Counts how work arrives: one ``map_batch`` call per split."""

    def map_batch(self, records, ctx):
        ctx.increment("batch_calls")
        return [(key, value * 10) for key, value in records]


class RecordingReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.increment("reduce_calls")
        yield key, sum(values)


RECORDS = [(i % 3, i) for i in range(12)]
SPLITS = [RECORDS[:4], RECORDS[4:8], RECORDS[8:]]


def small_runtime(**kwargs):
    return MapReduceRuntime(
        cluster=ClusterSpec(num_nodes=1, cores_per_node=2), **kwargs
    )


class TestMapReduceBatchDispatch:
    def test_batch_mapper_sees_whole_splits(self):
        runtime = small_runtime()
        job = MapReduceJob(name="j", mapper=RecordingBatchMapper())
        output = runtime.run(job, SPLITS)
        stats = runtime.metrics.jobs[0]
        assert stats.counters["batch_calls"] == 3
        assert sorted(output) == sorted((k, v * 10) for k, v in RECORDS)

    def test_default_map_batch_falls_back_to_map(self):
        class Doubler(Mapper):
            def map(self, key, value, ctx):
                ctx.increment("map_calls")
                yield key, value * 2

        runtime = small_runtime()
        job = MapReduceJob(name="j", mapper=Doubler())
        output = runtime.run(job, SPLITS)
        assert output == [(k, v * 2) for k, v in RECORDS]
        assert runtime.metrics.jobs[0].counters["map_calls"] == len(RECORDS)

    def test_batch_preserves_sorted_reduce_order(self):
        runtime = small_runtime()
        job = MapReduceJob(name="j", mapper=Mapper(), reducer=RecordingReducer())
        output = runtime.run(job, SPLITS)
        assert output == [(0, 0 + 3 + 6 + 9), (1, 1 + 4 + 7 + 10), (2, 2 + 5 + 8 + 11)]
        assert runtime.metrics.jobs[0].counters["reduce_calls"] == 3


class TestShufflePartitioning:
    def test_partition_pairs_matches_per_record_partitioner(self):
        keys = ["YtX", "XtX", 0, 1, (2, "a"), None, "mean/sums"] * 5
        pairs = [(key, i) for i, key in enumerate(keys)]
        for num_partitions in (1, 2, 3, 7):
            buckets = _partition_pairs(pairs, num_partitions)
            assert sum(len(bucket) for bucket in buckets) == len(pairs)
            for partition, bucket in enumerate(buckets):
                for key, _ in bucket:
                    assert _partition_of(key, num_partitions) == partition

    def test_partition_pairs_preserves_arrival_order(self):
        pairs = [("k", i) for i in range(10)]
        buckets = _partition_pairs(pairs, 4)
        non_empty = [bucket for bucket in buckets if bucket]
        assert len(non_empty) == 1
        assert [value for _, value in non_empty[0]] == list(range(10))

    def test_spark_partition_cache_matches_hash_partition(self):
        from repro.engine.spark.rdd import _PartitionCache, _hash_partition

        cache = _PartitionCache(5)
        for key in ["a", "b", "a", 3, (1, 2), "a"]:
            assert cache(key) == _hash_partition(key, 5)


class TestStackBlocks:
    def test_single_block_returned_as_is(self):
        block = sp.random(10, 6, density=0.3, random_state=0, format="csr")
        assert kernels.stack_blocks([block]) is block
        latent = np.ones((4, 2))
        assert kernels.stack_latents([latent]) is latent

    def test_all_sparse_stays_sparse(self):
        blocks = [
            sp.random(5, 8, density=0.4, random_state=i, format="csr")
            for i in range(3)
        ]
        stacked = kernels.stack_blocks(blocks)
        assert sp.issparse(stacked) and stacked.format == "csr"
        np.testing.assert_array_equal(
            np.asarray(stacked.todense()), np.vstack([b.toarray() for b in blocks])
        )

    def test_mixed_blocks_densify(self):
        sparse = sp.random(3, 4, density=0.5, random_state=0, format="csr")
        dense = np.ones((2, 4))
        stacked = kernels.stack_blocks([sparse, dense])
        assert isinstance(stacked, np.ndarray)
        assert stacked.shape == (5, 4)

    def test_empty_stack_rejected(self):
        with pytest.raises(ShapeError):
            kernels.stack_blocks([])
        with pytest.raises(ShapeError):
            kernels.stack_latents([])


class TestRecordGranularity:
    def test_mapreduce_default_layout_is_one_record_per_split(self):
        backend = MapReduceBackend(SPCAConfig(n_components=2))
        data = np.random.default_rng(0).normal(size=(70, 5))
        splits = backend.load(data)
        assert all(len(split) == 1 for split in splits)

    def test_mapreduce_fine_granularity_groups_records(self):
        runtime = MapReduceRuntime(cluster=ClusterSpec(num_nodes=1, cores_per_node=4))
        backend = MapReduceBackend(
            SPCAConfig(n_components=2), runtime=runtime, records_per_split=8
        )
        data = np.random.default_rng(0).normal(size=(64, 5))
        splits = backend.load(data)
        assert len(splits) == 4  # one split per core
        assert sum(len(split) for split in splits) == 32  # 4 cores * 8 records
        # Records keep their global row order within and across splits.
        starts = [start for split in splits for start, _ in split]
        assert starts == sorted(starts)

    def test_mapreduce_rejects_invalid_granularity(self):
        with pytest.raises(InvalidPlanError):
            MapReduceBackend(SPCAConfig(n_components=2), records_per_split=0)

    def test_spark_fine_granularity_groups_records(self):
        sc = SparkContext(cluster=ClusterSpec(num_nodes=1, cores_per_node=4))
        backend = SparkBackend(
            SPCAConfig(n_components=2), context=sc, records_per_partition=8
        )
        data = np.random.default_rng(0).normal(size=(64, 5))
        dataset = backend.load(data)
        assert dataset.num_partitions == 4
        assert len(dataset.collect()) == 32

    def test_spark_rejects_invalid_granularity(self):
        with pytest.raises(InvalidPlanError):
            SparkBackend(SPCAConfig(n_components=2), records_per_partition=-1)
