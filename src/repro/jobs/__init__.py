"""Distributed sPCA jobs.

:mod:`repro.jobs.kernels` holds the per-block math shared by every backend.
:mod:`repro.jobs.specs` writes each sPCA data job once, as a spec over those
kernels; :mod:`repro.jobs.mapreduce_jobs` is the specs' MapReduce lowering,
and :class:`repro.backends.base.Backend` runs them on every engine.  Keeping
the arithmetic in one place guarantees that all backends compute the same
numbers -- the engines only differ in how partial results move around.
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
