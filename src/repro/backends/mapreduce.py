"""sPCA-MapReduce: the backend running Algorithm 4's jobs on the MR engine."""

from __future__ import annotations

import itertools

import numpy as np
import scipy.sparse as sp

from repro.backends.base import Backend
from repro.core.config import SPCAConfig
from repro.engine.mapreduce.api import MapReduceJob
from repro.engine.mapreduce.runtime import MapReduceRuntime, ResidentDataset
from repro.jobs import mapreduce_jobs as mr
from repro.linalg import small
from repro.linalg.blocks import Matrix, partition_rows


class MapReduceBackend(Backend):
    """Runs each distributed sPCA job as one MapReduce job.

    The engine models the disk-based platform: every job re-reads its input
    from (simulated) HDFS, pays a multi-second job-submission overhead, and
    spills its shuffle through disk.  The optimization flags of the config
    select the optimized or ablated job variants.

    Args:
        config: the run configuration (including ablation switches).
        runtime: the MapReduce engine; a default 8x8-core one is created
            when omitted.
        blocks_per_core: input splits per cluster core (more splits = finer
            scheduling granularity).
        records_per_split: row-block records per input split.  The default 1
            keeps the historical coarse layout (one block per split);
            larger values model the paper's real record granularity -- an
            HDFS split holds many row records -- and are what the batched
            ``map_batch`` pipeline is built to chew through.
        worker_resident: pin each input split in the executor's resident
            store at ``load`` time, so every job of every EM iteration ships
            a tiny ref to workers instead of the split itself (see
            :mod:`repro.engine.exec.resident`).  A no-op on the serial
            executor, which has no driver-worker pipe to save.
    """

    _pin_sequence = itertools.count(1)

    def __init__(
        self,
        config: SPCAConfig,
        runtime: MapReduceRuntime | None = None,
        blocks_per_core: int = 1,
        records_per_split: int = 1,
        worker_resident: bool = False,
    ):
        super().__init__(config)
        if records_per_split < 1:
            from repro.errors import InvalidPlanError

            raise InvalidPlanError(
                f"records_per_split must be >= 1, got {records_per_split}"
            )
        self.runtime = runtime or MapReduceRuntime()
        self.blocks_per_core = blocks_per_core
        self.records_per_split = records_per_split
        self.worker_resident = worker_resident
        self._pinned_keys: list[str] = []
        self._iteration = 0
        self._materialized_iteration = -1

    # -- Backend API -------------------------------------------------------

    def load(self, data: Matrix) -> list[list]:
        num_splits = self.runtime.cluster.total_cores * self.blocks_per_core
        blocks = partition_rows(data, num_splits * self.records_per_split)
        records = [(block.start, block.data) for block in blocks]
        if self.records_per_split == 1:
            splits = [[record] for record in records]
        else:
            groups = np.array_split(
                np.arange(len(records)), min(num_splits, len(records))
            )
            splits = [
                [records[i] for i in group] for group in groups if len(group) > 0
            ]
        return self._pin_splits(splits)

    def _pin_splits(self, splits: list[list]) -> "list[list] | ResidentDataset":
        """Pin the loaded splits worker-resident when configured to.

        The serial executor resolves payloads in the driver itself, so there
        is nothing to save and the plain splits are returned unchanged.
        """
        executor = self.runtime.executor
        if not self.worker_resident or executor.serial:
            return splits
        self._unpin_resident()
        prefix = f"mr-input-{next(self._pin_sequence)}"
        refs = []
        for index, split in enumerate(splits):
            key = f"{prefix}/{index}"
            refs.append(executor.pin_payload(key, split))
            self._pinned_keys.append(key)
        return ResidentDataset(splits, refs)

    def _unpin_resident(self) -> None:
        """Release this backend's pins (re-load, tests)."""
        executor = self.runtime.executor
        for key in self._pinned_keys:
            executor.unpin_payload(key)
        self._pinned_keys = []

    def column_means(self, dataset) -> np.ndarray:
        job = MapReduceJob(
            name="meanJob",
            mapper=mr.MeanMapper(),
            reducer=mr.MatrixSumReducer(),
        )
        output = dict(self.runtime.run(job, dataset))
        return output[mr.KEY_SUMS] / output[mr.KEY_COUNT]

    def frobenius_centered(self, dataset, mean) -> float:
        job = MapReduceJob(
            name="FnormJob",
            mapper=mr.FnormMapper(),
            reducer=mr.MatrixSumReducer(),
            config={
                "mean": mean,
                "efficient": self.config.use_efficient_frobenius,
            },
        )
        output = dict(self.runtime.run(job, dataset))
        return float(output[mr.KEY_FNORM])

    def ytx_xtx(self, dataset, mean, projector, latent_mean):
        self._iteration += 1
        job_input = dataset
        if not self.config.use_x_recomputation:
            job_input = self._materialize_latent(dataset, mean, projector, latent_mean)
        config = {
            "mean": mean,
            "projector": projector,
            "latent_mean": latent_mean,
            "mean_propagation": self.config.use_mean_propagation,
        }
        job = MapReduceJob(
            name="YtXJob",
            mapper=mr.YtXMapper(),
            reducer=mr.MatrixSumReducer(),
            combiner=mr.MatrixSumReducer(),
            num_reducers=2,
            config=config,
        )
        output = dict(self.runtime.run(job, job_input))
        if mr.KEY_YTX_DATA in output:
            # Sparse-partial protocol: apply the mean correction once here.
            data_product = output[mr.KEY_YTX_DATA]
            if sp.issparse(data_product):
                data_product = data_product.todense()
            data_product = np.asarray(data_product)
            xsum = np.asarray(output[mr.KEY_XSUM]).ravel()
            ytx = data_product - np.outer(mean, xsum)
        else:
            ytx = output[mr.KEY_YTX]
        return ytx, output[mr.KEY_XTX]

    def ss3(self, dataset, mean, projector, latent_mean, components) -> float:
        job_input = dataset
        if not self.config.use_x_recomputation:
            job_input = self._materialize_latent(dataset, mean, projector, latent_mean)
        job = MapReduceJob(
            name="ss3Job",
            mapper=mr.SS3Mapper(),
            reducer=mr.MatrixSumReducer(),
            config={
                "mean": mean,
                "projector": projector,
                "latent_mean": latent_mean,
                "components": components,
                "mean_propagation": self.config.use_mean_propagation,
            },
        )
        output = dict(self.runtime.run(job, job_input))
        return float(output[mr.KEY_SS3])

    def reconstruction_error(self, dataset, mean, components, sample_fraction, rng) -> float:
        ls_projector = small.ls_projector(components)
        job = MapReduceJob(
            name="errorJob",
            mapper=mr.ErrorMapper(),
            reducer=mr.MatrixSumReducer(),
            config={
                "mean": mean,
                "components": components,
                "ls_projector": ls_projector,
                "sample_fraction": sample_fraction,
                "seed": int(rng.integers(2**31)),
                "mean_propagation": self.config.use_mean_propagation,
            },
        )
        output = dict(self.runtime.run(job, dataset))
        from repro.jobs.kernels import error_from_colsums

        return error_from_colsums(output[mr.KEY_RESIDUAL], output[mr.KEY_MAGNITUDE])

    # -- ablation: materialized X -----------------------------------------

    def _materialize_latent(self, dataset, mean, projector, latent_mean):
        """Run XJob: write X to HDFS as intermediate data, then join it.

        This reproduces the naive dataflow of Figure 1 where X is a real
        intermediate dataset consumed by the downstream jobs: X is written
        *once* per iteration (by the first consumer that needs it) and then
        read -- with its full HDFS read charge -- by every consumer.
        """
        path = f"tmp/X-{self._iteration}"
        if self._materialized_iteration != self._iteration:
            job = MapReduceJob(
                name="XJob",
                mapper=mr.XMaterializeMapper(),
                output_path=path,
                output_is_intermediate=True,
                config={
                    "mean": mean,
                    "projector": projector,
                    "latent_mean": latent_mean,
                    "mean_propagation": self.config.use_mean_propagation,
                },
            )
            self.runtime.run(job, dataset)
            self._materialized_iteration = self._iteration
        latent_by_start = dict(self.runtime.hdfs.read(path))
        return [
            [(start, (block, latent_by_start[start])) for start, block in split]
            for split in dataset
        ]

    # -- checkpointing -----------------------------------------------------

    def charge_checkpoint(self, nbytes: int, kind: str = "write") -> None:
        from repro.engine.metrics import JobStats
        from repro.obs import record_job_stats

        stats = JobStats(name="checkpointJob")
        if kind == "write":
            stats.hdfs_write_bytes = nbytes
        else:
            stats.hdfs_read_bytes = nbytes
        stats.sim_seconds = self.runtime.cost_model.disk_seconds(nbytes)
        record_job_stats(
            self.runtime.metrics, stats, phase_name=f"checkpoint {kind}"
        )

    # -- metrics -----------------------------------------------------------

    @property
    def simulated_seconds(self) -> float:
        # errorJob is offline instrumentation (the paper measures accuracy
        # outside the algorithm's running time), so it is excluded.
        return sum(
            job.sim_seconds
            for job in self.runtime.metrics.jobs
            if job.name != "errorJob"
        )

    @property
    def intermediate_bytes(self) -> int:
        return sum(
            job.intermediate_bytes
            for job in self.runtime.metrics.jobs
            if job.name != "errorJob"
        )

    def reset_metrics(self) -> None:
        self.runtime.metrics.reset()
