"""sPCA-Spark: the backend of Algorithm 5, using broadcasts + accumulators.

The input matrix is parallelized once into a cached RDD; every job is a
single ``foreachPartition`` stage whose partial results flow back through
accumulators, "eliminating the need for reduce operations" (Section 4.2).
The YtX accumulator receives the *sparse* data part ``Y' X`` separately from
a small d-vector of latent column sums; the driver applies the dense mean
correction ``Ym (x) colsum(X)`` once, so the bytes shipped per task stay
proportional to the block's non-zeros -- the sparse-accumulator optimization
the paper credits with reducing O(D*d) to O(z*d).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.backends.base import Backend
from repro.core.config import SPCAConfig
from repro.engine.serde import sizeof
from repro.engine.spark.context import Broadcast, SparkContext
from repro.jobs import kernels
from repro.linalg import small
from repro.linalg.blocks import Matrix, partition_rows
from repro.linalg.stats import sample_rows


def _add_maybe_sparse(total: np.ndarray, update) -> np.ndarray:
    """Accumulator add-op accepting dense or sparse matrix updates."""
    if sp.issparse(update):
        return total + np.asarray(update.todense())
    return total + update


def _stacked(partition):
    """The partition's row blocks as one block (a lone block as it is)."""
    return kernels.stack_blocks([block for _, block in partition])


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
        if records_per_partition < 1:
            from repro.errors import InvalidPlanError

            raise InvalidPlanError(
                f"records_per_partition must be >= 1, got {records_per_partition}"
            )
        self.context = context or SparkContext()
        self.partitions_per_core = partitions_per_core
        self.records_per_partition = records_per_partition
        self._latent_rdd = None
        self._latent_key = None

    # -- Backend API -------------------------------------------------------

    def load(self, data: Matrix):
        num_partitions = self.context.cluster.total_cores * self.partitions_per_core
        blocks = partition_rows(data, num_partitions * self.records_per_partition)
        rdd = self.context.parallelize(
            [(block.start, block.data) for block in blocks],
            num_partitions=min(num_partitions, len(blocks)),
        )
        return rdd.cache()

    def column_means(self, rdd) -> np.ndarray:
        n_cols = rdd.first()[1].shape[1]
        sums = self.context.accumulator(np.zeros(n_cols))
        count = self.context.accumulator(0)

        def run(partition):
            # One stacked kernel call and one accumulator update per
            # partition: fewer, larger updates is exactly the combiner
            # economy the paper's Section 4.2 argues for.
            block_sums, rows = kernels.block_sums(_stacked(partition))
            sums.add(block_sums)
            count.add(rows)

        self.context.run_job(rdd, run, name="meanJob")
        return sums.value / count.value

    def frobenius_centered(self, rdd, mean: np.ndarray) -> float:
        efficient = self.config.use_efficient_frobenius
        bc_mean = self.context.broadcast(mean)
        total = self.context.accumulator(0.0)

        def run(partition):
            total.add(
                kernels.block_frobenius(_stacked(partition), bc_mean.value, efficient)
            )

        self.context.run_job(rdd, run, name="FnormJob")
        return float(total.value)

    def ytx_xtx(
        self,
        rdd,
        mean: np.ndarray,
        projector: np.ndarray,
        latent_mean: np.ndarray,
    ):
        mean_prop = self.config.use_mean_propagation
        d = projector.shape[1]
        n_cols = mean.shape[0]
        bc_projector = self.context.broadcast(projector)
        bc_mean = self.context.broadcast(mean)
        bc_latent_mean = self.context.broadcast(latent_mean)
        ytx_data = self.context.accumulator(np.zeros((n_cols, d)), _add_maybe_sparse)
        latent_colsum = self.context.accumulator(np.zeros(d))
        xtx_sum = self.context.accumulator(np.zeros((d, d)))

        latent_rdd = self._latent_for(rdd, bc_mean, bc_projector, bc_latent_mean)

        def run(partition, latent=None):
            self._accumulate_ytx(
                _stacked(partition), latent, bc_projector.value, bc_mean.value,
                bc_latent_mean.value, mean_prop, ytx_data, latent_colsum, xtx_sum,
            )

        def run_with_latent(partition, latent_partition):
            run(partition, kernels.stack_latents([x for _, x in latent_partition]))

        if latent_rdd is not None:
            zipped = rdd.zip_partitions(latent_rdd, lambda a, b: [run_with_latent(a, b)])
            self.context.run_job(zipped, list, name="YtXJob")
        else:
            self.context.run_job(rdd, run, name="YtXJob")

        ytx = ytx_data.value
        if mean_prop:
            ytx = ytx - np.outer(mean, latent_colsum.value)
        self.context.driver.transient(sizeof(ytx) + sizeof(xtx_sum.value), "YtX/XtX")
        return ytx, xtx_sum.value

    def ss3(
        self,
        rdd,
        mean: np.ndarray,
        projector: np.ndarray,
        latent_mean: np.ndarray,
        components: np.ndarray,
    ) -> float:
        mean_prop = self.config.use_mean_propagation
        bc_mean = self.context.broadcast(mean)
        bc_projector = self.context.broadcast(projector)
        bc_latent_mean = self.context.broadcast(latent_mean)
        bc_components = self.context.broadcast(components)
        total = self.context.accumulator(0.0)
        latent_rdd = self._latent_for(rdd, bc_mean, bc_projector, bc_latent_mean)

        def partial(block, latent):
            return kernels.block_ss3(
                block, bc_mean.value, bc_projector.value, bc_latent_mean.value,
                bc_components.value, mean_prop, latent=latent,
            )

        def zipped_ss3(partition, latent_partition):
            total.add(
                partial(
                    _stacked(partition),
                    kernels.stack_latents([x for _, x in latent_partition]),
                )
            )
            return (None,)

        if latent_rdd is not None:
            zipped = rdd.zip_partitions(latent_rdd, zipped_ss3)
            self.context.run_job(zipped, list, name="ss3Job")
        else:
            def run_ss3(partition):
                total.add(partial(_stacked(partition), None))

            self.context.run_job(rdd, run_ss3, name="ss3Job")
        # The per-iteration latent cache is invalid once C changes.
        self._drop_latent()
        return float(total.value)

    def reconstruction_error(
        self,
        rdd,
        mean: np.ndarray,
        components: np.ndarray,
        sample_fraction: float,
        rng,
    ) -> float:
        ls_projector = small.ls_projector(components)
        bc_components = self.context.broadcast(components)
        bc_ls_projector = self.context.broadcast(ls_projector)
        bc_mean = self.context.broadcast(mean)
        residual = self.context.accumulator(np.zeros(mean.shape[0]))
        magnitude = self.context.accumulator(np.zeros(mean.shape[0]))
        seed = int(rng.integers(2**31))
        mean_prop = self.config.use_mean_propagation

        def run(split, partition):
            if sample_fraction < 1.0:
                # Sampling is seeded per record start row, so each record is
                # sampled on its own rather than stacked.
                blocks = (
                    sample_rows(
                        block, sample_fraction, np.random.default_rng((seed, start))
                    )
                    for start, block in partition
                )
            else:
                blocks = [_stacked(partition)]
            for block in blocks:
                parts = kernels.block_error_parts(
                    block, bc_mean.value, bc_components.value,
                    bc_ls_projector.value, mean_prop,
                )
                residual.add(parts[0])
                magnitude.add(parts[1])
            return ()

        mapped = rdd.map_partitions_with_index(run)
        self.context.run_job(mapped, list, name="errorJob")
        return kernels.error_from_colsums(residual.value, magnitude.value)

    # -- internals ---------------------------------------------------------

    def _accumulate_ytx(
        self, block, latent, projector, mean, latent_mean, mean_prop,
        ytx_data, latent_colsum, xtx_sum,
    ) -> None:
        """Add one block's YtX/XtX partials; *latent* None recomputes X."""
        if mean_prop:
            if latent is None:
                latent = kernels.block_latent(
                    block, mean, projector, latent_mean, True
                )
            # Ship the sparse data product; the driver applies the dense
            # mean correction once.  Keeping the partial sparse is the
            # O(D*d) -> O(z*d) accumulator optimization of Section 4.2.
            if sp.issparse(block):
                data_product = (block.T @ sp.csr_matrix(latent)).tocsr()
                dense_bytes = data_product.shape[0] * data_product.shape[1] * 8
                if sizeof(data_product) >= dense_bytes:
                    # Saturated block (z ~ D): dense is the smaller encoding.
                    data_product = np.asarray(data_product.todense())
            else:
                data_product = block.T @ latent
            ytx_data.add(data_product)
            latent_colsum.add(np.asarray(latent.sum(axis=0)).ravel())
            xtx = latent.T @ latent
        else:
            ytx, xtx = kernels.block_ytx_xtx(
                block, mean, projector, latent_mean, False, latent=latent
            )
            ytx_data.add(ytx)
        xtx_sum.add(xtx)

    def _latent_for(
        self,
        rdd,
        bc_mean: Broadcast,
        bc_projector: Broadcast,
        bc_latent_mean: Broadcast,
    ):
        """Materialized-X ablation: cache X as its own RDD and reuse it.

        Receives the model matrices as :class:`Broadcast` handles so the map
        closure ships a node-wide reference rather than a per-task copy
        (Section 4.3 -- and what DF001 enforces).
        """
        if self.config.use_x_recomputation:
            return None
        key = bc_projector.value.tobytes()
        if self._latent_key != key:
            mean_prop = self.config.use_mean_propagation
            self._drop_latent()
            self._latent_rdd = rdd.map(
                lambda record: (
                    record[0],
                    kernels.block_latent(
                        record[1], bc_mean.value, bc_projector.value,
                        bc_latent_mean.value, mean_prop,
                    ),
                )
            ).cache()
            self._latent_rdd.count()  # force materialization into the cache
            # The unoptimized implementation stored X through distributed
            # storage between jobs (Section 3.2); charge that round trip --
            # one write plus one read per consuming job -- as an extra
            # stage, so the ablation reflects the real dataflow cost rather
            # than a free in-memory cache.
            from repro.engine.metrics import JobStats
            from repro.obs import EventTrace, record_job_stats

            latent_bytes = sum(
                sizeof(self._latent_rdd._iterator(split))
                for split in range(self._latent_rdd.num_partitions)
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
            self._latent_key = key
        return self._latent_rdd

    def _drop_latent(self) -> None:
        if self._latent_rdd is not None:
            self._latent_rdd.unpersist()
        self._latent_rdd = None
        self._latent_key = None

    # -- checkpointing -----------------------------------------------------

    def charge_checkpoint(self, nbytes: int, kind: str = "write") -> None:
        from repro.engine.metrics import JobStats
        from repro.obs import record_job_stats

        stats = JobStats(name="checkpointJob")
        if kind == "write":
            stats.hdfs_write_bytes = nbytes
        else:
            stats.hdfs_read_bytes = nbytes
        stats.sim_seconds = self.context.cost_model.disk_seconds(nbytes)
        record_job_stats(
            self.context.metrics, stats, phase_name=f"checkpoint {kind}"
        )

    # -- metrics -----------------------------------------------------------

    @property
    def simulated_seconds(self) -> float:
        # errorJob is offline instrumentation (the paper measures accuracy
        # outside the algorithm's running time), so it is excluded.
        return sum(
            job.sim_seconds
            for job in self.context.metrics.jobs
            if job.name != "errorJob"
        )

    @property
    def intermediate_bytes(self) -> int:
        return sum(
            job.intermediate_bytes
            for job in self.context.metrics.jobs
            if job.name != "errorJob"
        )

    def reset_metrics(self) -> None:
        self.context.metrics.reset()
