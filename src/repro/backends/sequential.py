"""Single-process backend: the correctness reference for the engine backends."""

from __future__ import annotations

import numpy as np

from repro.backends.base import Backend
from repro.core.config import SPCAConfig
from repro.jobs import kernels
from repro.linalg import small
from repro.linalg.blocks import Matrix, RowBlock, partition_rows
from repro.linalg.stats import sample_rows


class SequentialBackend(Backend):
    """Runs every job locally over row blocks, with no engine in between.

    The blocks still go through the same shared kernels as the distributed
    backends, so the sequential backend exercises the identical arithmetic --
    including the ablation code paths -- while adding no simulation overhead.
    """

    def __init__(self, config: SPCAConfig, num_blocks: int = 4):
        super().__init__(config)
        self.num_blocks = num_blocks
        self._intermediate_bytes = 0

    def load(self, data: Matrix) -> list[RowBlock]:
        return partition_rows(data, self.num_blocks)

    def column_means(self, dataset: list[RowBlock]) -> np.ndarray:
        total = None
        count = 0
        for block in dataset:
            sums, rows = kernels.block_sums(block.data)
            total = sums if total is None else total + sums
            count += rows
        return total / count

    def frobenius_centered(self, dataset: list[RowBlock], mean: np.ndarray) -> float:
        efficient = self.config.use_efficient_frobenius
        return sum(
            kernels.block_frobenius(block.data, mean, efficient)
            for block in dataset
        )

    def ytx_xtx(self, dataset, mean, projector, latent_mean):
        mean_prop = self.config.use_mean_propagation
        latents = [None] * len(dataset)
        if not self.config.use_x_recomputation:
            latents = self._materialize_latent(dataset, mean, projector, latent_mean)
        ytx_total = None
        xtx_total = None
        for block, latent in zip(dataset, latents, strict=True):
            ytx, xtx = kernels.block_ytx_xtx(
                block.data, mean, projector, latent_mean, mean_prop, latent=latent
            )
            ytx_total = ytx if ytx_total is None else ytx_total + ytx
            xtx_total = xtx if xtx_total is None else xtx_total + xtx
        return ytx_total, xtx_total

    def reconstruction_error(self, dataset, mean, components, sample_fraction, rng) -> float:
        ls_projector = small.ls_projector(components)
        residual = np.zeros(mean.shape[0])
        magnitude = np.zeros(mean.shape[0])
        mean_prop = self.config.use_mean_propagation
        for block in dataset:
            data = block.data
            if sample_fraction < 1.0:
                data = sample_rows(data, sample_fraction, rng)
            parts = kernels.block_error_parts(
                data, mean, components, ls_projector, mean_prop
            )
            residual += parts[0]
            magnitude += parts[1]
        return kernels.error_from_colsums(residual, magnitude)

    # -- internals -------------------------------------------------------

    def _materialize_latent(self, dataset, mean, projector, latent_mean) -> list:
        """The use_x_recomputation=False ablation: X as intermediate data."""
        mean_prop = self.config.use_mean_propagation
        latents = [
            kernels.block_latent(block.data, mean, projector, latent_mean, mean_prop)
            for block in dataset
        ]
        self._intermediate_bytes += sum(latent.nbytes for latent in latents)
        return latents

    @property
    def intermediate_bytes(self) -> int:
        return self._intermediate_bytes

    def reset_metrics(self) -> None:
        self._intermediate_bytes = 0
