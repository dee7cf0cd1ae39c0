"""sPCA-Spark: the backend of Algorithm 5, using broadcasts + accumulators.

The input matrix is parallelized once into a cached RDD; every job is a
single stage whose partial results flow back through accumulators,
"eliminating the need for reduce operations" (Section 4.2).  A job's small
matrices are broadcast once per job method, and each part of a job spec
gets its own accumulator, so a sparse YtX data part travels separately from
the small d-vector of latent column sums and the bytes shipped per task stay
proportional to the block's non-zeros -- the sparse-accumulator
optimization the paper credits with reducing O(D*d) to O(z*d).
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.backends.base import Backend, check_records_per
from repro.core.config import SPCAConfig
from repro.engine.serde import sizeof
from repro.engine.spark.context import Broadcast, SparkContext
from repro.jobs import specs
from repro.linalg.blocks import Matrix, partition_rows


def _values(params: dict) -> dict:
    """A job's parameters as a task sees them: broadcasts read locally."""
    return {
        name: value.value if isinstance(value, Broadcast) else value
        for name, value in params.items()
    }


def _paired(blocks: list, latents: list) -> list:
    """Join a partition's Y records to its X records (same start rows)."""
    return [
        (start, (block, latent))
        for (start, block), (_, latent) in zip(blocks, latents, strict=True)
    ]


class SparkBackend(Backend):
    """Runs each distributed sPCA job as one Spark stage."""

    def __init__(
        self,
        config: SPCAConfig,
        context: SparkContext | None = None,
        partitions_per_core: int = 1,
        records_per_partition: int = 1,
    ):
        super().__init__(config)
        self.context = context or SparkContext()
        self.partitions_per_core = partitions_per_core
        self.records_per_partition = check_records_per(
            "records_per_partition", records_per_partition
        )

    def load(self, data: Matrix):
        num_partitions = self.context.cluster.total_cores * self.partitions_per_core
        blocks = partition_rows(data, num_partitions * self.records_per_partition)
        return self.context.parallelize(
            [(block.start, block.data) for block in blocks],
            num_partitions=min(num_partitions, len(blocks)),
        ).cache()

    def column_means(self, rdd) -> np.ndarray:
        # The first() action checks the input early and caches its first
        # partition before meanJob runs.
        rdd.first()
        return super().column_means(rdd)

    # -- the lowering ------------------------------------------------------

    @property
    def _engine(self) -> SparkContext:
        return self.context

    def _ship(self, params: dict) -> dict:
        # Model matrices go out as broadcasts, so each task closure carries a
        # node-wide reference rather than a per-task copy (Section 4.3 --
        # and what DF001 enforces).
        return {
            name: self.context.broadcast(value) if isinstance(value, np.ndarray) else value
            for name, value in params.items()
        }

    def _run(self, spec, rdd, params) -> dict:
        accumulators = {
            part: self.context.accumulator(None, specs.add_part) for part in spec.parts
        }

        def run(partition):
            # One stacked map and one accumulator update per part and
            # partition: fewer, larger updates is exactly the combiner
            # economy the paper's Section 4.2 argues for.
            for part, value in specs.split_parts(spec, partition, _values(params)).items():
                accumulators[part].add(value)

        self.context.run_job(rdd, run, name=spec.name)
        parts = {
            part: accumulator.value
            for part, accumulator in accumulators.items()
            if accumulator.value is not None
        }
        self.context.driver.transient(sizeof(list(parts.values())), spec.name)
        return parts

    @contextlib.contextmanager
    def _latent(self, rdd, params):
        """Materialized-X ablation: cache X as its own RDD for one call.

        The unoptimized implementation stored X through distributed storage
        between jobs (Section 3.2), so the round trip -- one write plus two
        reads -- is charged as an extra stage rather than taken as a free
        in-memory cache.  The charge keeps two reads: in the paper's
        Figure 1 dataflow the ss3 job was the second reader.  ss3 now comes
        from YtX on the driver, but the Table 3 ablation models the paper's
        pipeline and stays comparable with it.
        """
        from repro.engine.metrics import JobStats
        from repro.obs import EventTrace, record_job_stats

        latent_rdd = rdd.map(
            lambda record: (record[0], specs.latent_rows(record[1], _values(params)))
        ).cache()
        latent_rdd.count()  # force materialization into the cache
        try:
            latent_bytes = sum(
                sizeof(latent_rdd._iterator(split))
                for split in range(latent_rdd.num_partitions)
            )
            cost = self.context.cost_model
            record_job_stats(
                self.context.metrics,
                JobStats(
                    name="XJob",
                    output_bytes=latent_bytes,
                    output_is_intermediate=True,
                    hdfs_write_bytes=latent_bytes,
                    hdfs_read_bytes=2 * latent_bytes,
                    sim_seconds=(
                        cost.per_job_overhead_s + cost.disk_seconds(3 * latent_bytes)
                    ),
                ),
                phase_name="X round trip",
                events=[
                    EventTrace("hdfs_write", 0.0, {"bytes": latent_bytes}),
                    EventTrace("hdfs_read", 0.0, {"bytes": 2 * latent_bytes}),
                ],
            )
            yield rdd.zip_partitions(latent_rdd, _paired)
        finally:
            latent_rdd.unpersist()
