"""Single-process backend: the correctness reference for the engine backends."""

from __future__ import annotations

import contextlib

from repro.backends.base import Backend
from repro.core.config import SPCAConfig
from repro.jobs import specs
from repro.linalg.blocks import Matrix, partition_rows


class SequentialBackend(Backend):
    """Runs every job locally over row blocks, with no engine in between.

    The blocks go through the same job specs as the distributed backends,
    so the sequential backend exercises the identical arithmetic --
    including the ablation code paths -- while adding no simulation overhead.
    """

    def __init__(self, config: SPCAConfig, num_blocks: int = 4):
        super().__init__(config)
        self.num_blocks = num_blocks
        self._intermediate_bytes = 0

    def load(self, data: Matrix) -> list[tuple]:
        return [(block.start, block.data) for block in partition_rows(data, self.num_blocks)]

    def _run(self, spec, dataset, params) -> dict:
        total: dict = {}
        for record in dataset:
            for part, value in specs.split_parts(spec, [record], params).items():
                total[part] = specs.add_part(total.get(part), value)
        return total

    @contextlib.contextmanager
    def _latent(self, dataset, params):
        joined = [
            (start, (block, specs.latent_rows(block, params))) for start, block in dataset
        ]
        self._intermediate_bytes += sum(latent.nbytes for _, (_, latent) in joined)
        yield joined

    @property
    def intermediate_bytes(self) -> int:
        return self._intermediate_bytes

    def reset_metrics(self) -> None:
        self._intermediate_bytes = 0
