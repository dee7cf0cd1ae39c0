"""Mahout-PCA analog: stochastic SVD with mean propagation on MapReduce.

Section 2.3: Mahout computes PCA by running SSVD with a ``--pca`` option
that stores the column mean separately from the sparse input and propagates
it through the SSVD products.  This implementation chains the same jobs
Mahout runs -- sketch (Q-job), Bt-job, power-iteration jobs -- on the
simulated MapReduce engine, materializing the same N x (d+p) intermediate
matrices to HDFS between jobs.  Those materializations, plus the Bt job's
per-record dense partials, are exactly the communication bottleneck the
paper measures (961 GB of intermediate data on Tweets vs sPCA's 131 MB).

Accuracy refinement: each power iteration improves the subspace estimate,
so the fit records an (accumulated-time, accuracy) point after the initial
pass and after every power iteration -- the Mahout-PCA curves of
Figures 4-6.
"""

from __future__ import annotations

import time

import numpy as np

from repro.baselines.result import BaselineResult
from repro.core.model import PCAModel
from repro.engine.mapreduce.api import MapReduceJob
from repro.engine.mapreduce.runtime import MapReduceRuntime
from repro.engine.metrics import JobStats
from repro.errors import ShapeError
from repro.jobs import mapreduce_jobs as mr
from repro.jobs import specs, ssvd_jobs
from repro.linalg import small
from repro.linalg.blocks import Matrix, partition_rows
from repro.obs import EventTrace, record_job_stats


class SSVDPCAMapReduce:
    """PCA via stochastic SVD on the MapReduce engine (Mahout-PCA).

    Args:
        n_components: number of principal components d.
        oversampling: extra sketch columns p (Mahout's default is small).
        power_iterations: subspace-iteration refinements q; accuracy is
            recorded after each.
        runtime: the MapReduce engine (fresh default cluster if omitted).
        mean_propagation: the Mahout ``--pca`` option; disabling it centers
            each block densely inside the mappers.
        seed: seed for the Gaussian test matrix.
        error_sample_fraction: row-sampling rate for accuracy measurement.
    """

    def __init__(
        self,
        n_components: int,
        oversampling: int = 10,
        power_iterations: int = 3,
        runtime: MapReduceRuntime | None = None,
        mean_propagation: bool = True,
        seed: int = 0,
        error_sample_fraction: float = 1.0,
    ):
        if n_components < 1:
            raise ShapeError(f"n_components must be >= 1, got {n_components}")
        self.n_components = n_components
        self.oversampling = max(0, oversampling)
        self.power_iterations = max(0, power_iterations)
        self.runtime = runtime or MapReduceRuntime()
        self.mean_propagation = mean_propagation
        self.seed = seed
        self.error_sample_fraction = error_sample_fraction

    def fit(self, data: Matrix, compute_accuracy: bool = True) -> BaselineResult:
        """Run the SSVD-PCA job chain; returns the model plus measurements."""
        n_rows, n_cols = data.shape
        sketch_size = min(self.n_components + self.oversampling, min(n_rows, n_cols))
        if self.n_components > sketch_size:
            raise ShapeError(
                f"n_components={self.n_components} exceeds min(N, D)={sketch_size}"
            )
        started = time.perf_counter()
        jobs_start = len(self.runtime.metrics.jobs)

        splits = self._splits(data)
        data_mean = self._mean_job(splits)
        # With the PCA option the mean is propagated through the job chain;
        # without it, the inputs are centered densely up front (sparsity is
        # lost -- the cost Section 2.3 warns about).
        mean = data_mean if self.mean_propagation else None
        if not self.mean_propagation:
            splits = self._densely_centered(splits, data_mean)
        rng = np.random.default_rng(self.seed)
        test_matrix = rng.normal(size=(n_cols, sketch_size))

        sketch_blocks = self._sketch_job(splits, test_matrix, mean)
        basis_blocks = self._driver_qr(sketch_blocks, iteration=0)

        timeline: list[tuple[float, float]] = []
        small = self._bt_job(splits, basis_blocks, mean)
        if compute_accuracy:
            timeline.append(self._accuracy_point(splits, small, mean, jobs_start))
        for iteration in range(1, self.power_iterations + 1):
            projected = self._project_job(splits, small, mean, iteration)
            basis_blocks = self._driver_qr(projected, iteration)
            small = self._bt_job(splits, basis_blocks, mean)
            if compute_accuracy:
                timeline.append(self._accuracy_point(splits, small, mean, jobs_start))

        model = self._model_from_b(small, data, data_mean, n_rows,
                                   centered_input=not self.mean_propagation)
        run_jobs = self.runtime.metrics.jobs[jobs_start:]
        return BaselineResult(
            model=model,
            simulated_seconds=self._algorithm_seconds(run_jobs),
            wall_seconds=time.perf_counter() - started,
            intermediate_bytes=sum(
                job.intermediate_bytes for job in specs.algorithm_jobs(run_jobs)
            ),
            accuracy_timeline=timeline,
        )

    # -- job chain ---------------------------------------------------------

    def _splits(self, data: Matrix) -> list[list]:
        blocks = partition_rows(data, self.runtime.cluster.total_cores)
        return [[(block.start, block.data)] for block in blocks]

    def _mean_job(self, splits) -> np.ndarray:
        return specs.MEAN.finish(mr.run_spec(self.runtime, specs.MEAN, splits, {}), {})

    def _sketch_job(self, splits, test_matrix, mean) -> list[tuple[int, np.ndarray]]:
        job = MapReduceJob(
            name="YJob",
            mapper=ssvd_jobs.SketchMapper(),
            output_path="ssvd/Y",
            output_is_intermediate=True,
            config={"test_matrix": test_matrix, "mean": mean},
        )
        self.runtime.run(job, splits)
        return self.runtime.hdfs.read("ssvd/Y")

    def _driver_qr(self, blocks, iteration: int) -> list[tuple[int, np.ndarray]]:
        """QR of the stacked sketch; Q goes back to HDFS as intermediate data.

        Mahout distributes this QR; stacking on the driver is a
        simplification that preserves the communication volume (the full
        N x k' matrix still round-trips through the distributed store).
        """
        ordered = sorted(blocks, key=lambda item: item[0])
        stacked = np.vstack([block for _, block in ordered])
        started = time.perf_counter()
        basis, _ = np.linalg.qr(stacked)
        qr_seconds = time.perf_counter() - started
        out_blocks = []
        offset = 0
        for start, block in ordered:
            out_blocks.append((start, basis[offset : offset + block.shape[0]]))
            offset += block.shape[0]
        path = f"ssvd/Q-{iteration}"
        nbytes = self.runtime.hdfs.write(path, out_blocks)
        stats = JobStats(
            name="QJob",
            output_bytes=nbytes,
            output_is_intermediate=True,
            hdfs_write_bytes=nbytes,
            wall_seconds=qr_seconds,
            sim_seconds=(
                self.runtime.cost_model.per_job_overhead_s
                + qr_seconds * self.runtime.cost_model.compute_scale
                + self.runtime.cost_model.disk_seconds(nbytes)
            ),
        )
        record_job_stats(
            self.runtime.metrics,
            stats,
            phase_name="driver QR",
            events=[EventTrace("hdfs_write", 0.0, {"bytes": nbytes, "path": path})],
        )
        return out_blocks

    def _bt_job(self, splits, basis_blocks, mean) -> np.ndarray:
        basis_by_start = dict(basis_blocks)
        joined = [
            [(start, (basis_by_start[start], block)) for start, block in split]
            for split in self._raw_splits(splits)
        ]
        job = MapReduceJob(
            name="BtJob",
            mapper=ssvd_jobs.BtMapper(),
            reducer=mr.MatrixSumReducer(),
            combiner=mr.MatrixSumReducer(),
            config={"mean": mean},
        )
        output = dict(self.runtime.run(job, joined))
        small = output[ssvd_jobs.KEY_B]
        if hasattr(small, "todense"):
            small = small.todense()
        return np.asarray(small)

    def _project_job(self, splits, small, mean, iteration: int):
        job = MapReduceJob(
            name="ZJob",
            mapper=ssvd_jobs.ProjectMapper(),
            output_path=f"ssvd/Z-{iteration}",
            output_is_intermediate=True,
            config={"bt": small.T, "mean": mean},
        )
        self.runtime.run(job, splits)
        return self.runtime.hdfs.read(f"ssvd/Z-{iteration}")

    @staticmethod
    def _densely_centered(splits, mean):
        """Without the PCA option the mappers receive densely centered blocks."""
        return [
            [
                (
                    start,
                    np.asarray(
                        block.todense() if hasattr(block, "todense") else block
                    )
                    - mean,
                )
                for start, block in split
            ]
            for split in splits
        ]

    def _raw_splits(self, splits):
        return [[(start, block) for start, block in split] for split in splits]

    def _model_from_b(self, small, data, mean, n_rows, centered_input=False) -> PCAModel:
        _, singular_values, vt = np.linalg.svd(small, full_matrices=False)
        components = vt[: self.n_components].T
        total_variance = float(np.sum(singular_values**2)) / n_rows
        kept_variance = float(np.sum(singular_values[: self.n_components] ** 2)) / n_rows
        n_cols = data.shape[1]
        residual_dims = max(n_cols - self.n_components, 1)
        noise = max((total_variance - kept_variance) / residual_dims, 0.0)
        if centered_input:
            # The chain already centered the data; the model's mean is still
            # the original data mean so transforms/reconstructions line up.
            pass
        return PCAModel(
            components=components, mean=mean, noise_variance=noise, n_samples=n_rows
        )

    def _accuracy_point(self, splits, small, mean, jobs_start) -> tuple[float, float]:
        _, _, vt = np.linalg.svd(small, full_matrices=False)
        components = vt[: self.n_components].T
        # Centered-input runs (mean_propagation=False) score against the
        # already-centered splits with a zero mean; propagated runs score
        # against the raw splits with the real mean.
        error = self._error_job(splits, components, mean)
        run_jobs = self.runtime.metrics.jobs[jobs_start:]
        return self._algorithm_seconds(run_jobs), 1.0 - error

    def _error_job(self, splits, components, mean) -> float:
        if mean is None:
            mean = np.zeros(components.shape[0])
        params = {
            "mean": mean,
            "components": components,
            "ls_projector": small.ls_projector(components),
            "sample_fraction": self.error_sample_fraction,
            "seed": self.seed,
            "mean_propagation": True,
        }
        return specs.ERROR.finish(
            mr.run_spec(self.runtime, specs.ERROR, splits, params), params
        )

    @staticmethod
    def _algorithm_seconds(jobs) -> float:
        return sum(job.sim_seconds for job in specs.algorithm_jobs(jobs))
