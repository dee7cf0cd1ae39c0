"""Distributed sPCA jobs.

:mod:`repro.jobs.kernels` holds the per-block math shared by every backend;
the sibling modules wrap those kernels as MapReduce jobs and Spark closures.
Keeping the arithmetic in one place guarantees that all backends compute the
same numbers -- the engines only differ in how partial results move around.
"""

from repro.jobs.kernels import (
    block_error_parts,
    block_frobenius,
    block_latent,
    block_sums,
    block_ytx_xtx,
)

__all__ = [
    "block_error_parts",
    "block_frobenius",
    "block_latent",
    "block_sums",
    "block_ytx_xtx",
]
