"""sPCA-MapReduce: the backend running Algorithm 4's jobs on the MR engine."""

from __future__ import annotations

import contextlib
import itertools

import numpy as np

from repro.backends.base import Backend, check_records_per
from repro.core.config import SPCAConfig
from repro.engine.mapreduce.api import MapReduceJob
from repro.engine.mapreduce.runtime import MapReduceRuntime, ResidentDataset
from repro.jobs import mapreduce_jobs as mr
from repro.linalg.blocks import Matrix, partition_rows

# Where XJob writes X; each ytx_xtx call deletes it before returning.
_LATENT_PATH = "tmp/X"


class MapReduceBackend(Backend):
    """Runs each distributed sPCA job as one MapReduce job.

    The engine models the disk-based platform: every job re-reads its input
    from (simulated) HDFS, pays a multi-second job-submission overhead, and
    spills its shuffle through disk.  Each job spec runs through
    :func:`repro.jobs.mapreduce_jobs.run_spec`.

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
        self.runtime = runtime or MapReduceRuntime()
        self.blocks_per_core = blocks_per_core
        self.records_per_split = check_records_per("records_per_split", records_per_split)
        self.worker_resident = worker_resident
        self._pinned_keys: list[str] = []

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

    # -- the lowering ------------------------------------------------------

    @property
    def _engine(self) -> MapReduceRuntime:
        return self.runtime

    def _run(self, spec, dataset, params) -> dict:
        return mr.run_spec(self.runtime, spec, dataset, params)

    @contextlib.contextmanager
    def _latent(self, dataset, params):
        """Run XJob: write X to HDFS as intermediate data, then join it.

        This reproduces the naive dataflow of Figure 1 where X is a real
        intermediate dataset: XJob writes it, and each YtXJob pass reads it
        back with its full HDFS read charge.
        """
        job = MapReduceJob(
            name="XJob",
            mapper=mr.LatentMapper(),
            output_path=_LATENT_PATH,
            output_is_intermediate=True,
            config=params,
        )
        self.runtime.run(job, dataset)
        try:
            latent_by_start = dict(self.runtime.hdfs.read(_LATENT_PATH))
            yield [
                [(start, (block, latent_by_start[start])) for start, block in split]
                for split in dataset
            ]
        finally:
            self.runtime.hdfs.delete(_LATENT_PATH)
