"""Per-block kernels shared by all sPCA backends.

Each function computes one worker's share of a distributed job from a single
row block.  Partial results combine by addition (matrices and scalars alike),
which is what makes them expressible as MapReduce combiners and Spark
accumulators.

Every kernel takes a ``mean_propagation`` flag.  When True (the sPCA way,
Section 3.1) the block stays sparse and the mean is folded into the algebra;
when False (the ablation) the block is densified and centered explicitly,
which is numerically identical but destroys sparsity -- the cost difference
is what Table 3 measures.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import ShapeError
from repro.linalg.blocks import Matrix, is_sparse
from repro.linalg.centered import centered_times, centered_transpose_times
from repro.linalg.frobenius import frobenius_simple, frobenius_sparse
from repro.lint.contracts import contract


def _densify(block: Matrix) -> np.ndarray:
    return (
        np.asarray(block.todense())
        if is_sparse(block)
        else np.asarray(block, dtype=np.float64)
    )


def _centered(block: Matrix, mean: np.ndarray) -> np.ndarray:
    """The ablation's dense centered copy ``Yc = Y - 1*Ym'``.

    Built once per kernel call and shared only within that call: as in
    Section 3.2, nothing derived from the data outlives the job using it.
    """
    return _densify(block) - mean


def stack_blocks(blocks: list[Matrix]) -> Matrix:
    """Vertically stack row blocks into one block for a single kernel call.

    Every sPCA mapper and Spark partition closure stacks its whole split
    once and runs each per-block kernel a single time, instead of N small
    scipy/numpy dispatches (each dominated by fixed overhead at paper-style
    record granularity).  A single block is returned as-is, so the default
    one-block splits and partitions run their kernels on the block itself.
    All-sparse inputs stay sparse (CSR); any dense block densifies the
    stack, mirroring how the kernels treat dense input.
    """
    if not blocks:
        raise ShapeError("cannot stack an empty list of blocks")
    if len(blocks) == 1:
        return blocks[0]
    if all(is_sparse(block) for block in blocks):
        return sp.vstack(blocks, format="csr")
    return np.vstack(
        [
            np.asarray(block.todense()) if is_sparse(block) else
            np.asarray(block, dtype=np.float64)
            for block in blocks
        ]
    )


def stack_latents(latents: list[np.ndarray]) -> np.ndarray:
    """Stack pre-materialized X blocks alongside their Y blocks."""
    if not latents:
        raise ShapeError("cannot stack an empty list of latent blocks")
    if len(latents) == 1:
        return latents[0]
    return np.vstack(latents)


@contract(block="matrix (b, D)", ret=("dense (D,)", "int"))
def block_sums(block: Matrix) -> tuple[np.ndarray, int]:
    """meanJob map side: (column sums, row count) for one block."""
    sums = np.asarray(block.sum(axis=0), dtype=np.float64).ravel()
    return sums, block.shape[0]


@contract(block="matrix (b, D)", mean="dense (D,)", ret="scalar")
def block_frobenius(block: Matrix, mean: np.ndarray, efficient: bool) -> float:
    """FnormJob map side: this block's share of ``||Yc||_F^2``.

    ``efficient=True`` uses Algorithm 3 (sparse-aware); ``False`` uses
    Algorithm 2 (row-at-a-time dense scratch row).
    """
    if efficient:
        return frobenius_sparse(block, mean)
    return frobenius_simple(block, mean)


@contract(
    block="matrix (b, D)",
    mean="dense (D,)",
    projector="dense (D, d)",
    latent_mean="dense (d,)",
    ret="dense (b, d)",
)
def block_latent(
    block: Matrix,
    mean: np.ndarray,
    projector: np.ndarray,
    latent_mean: np.ndarray,
    mean_propagation: bool,
) -> np.ndarray:
    """Recompute this block's rows of X: ``X = Yc * CM = Y*CM - Xm``.

    This is the on-demand X generation of Section 3.2: X is never stored,
    each job regenerates the rows it needs from the (sparse) input block and
    the small broadcast matrix CM.
    """
    if mean_propagation:
        return np.asarray(block @ projector) - latent_mean
    return _centered(block, mean) @ projector


@contract(
    block="matrix (b, D)",
    mean="dense (D,)",
    projector="dense (D, d)",
    latent_mean="dense (d,)",
    latent="dense (b, d)",
    ret=("dense (D, d)", "dense (d, d)"),
)
def block_ytx_xtx(
    block: Matrix,
    mean: np.ndarray,
    projector: np.ndarray,
    latent_mean: np.ndarray,
    mean_propagation: bool,
    latent: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Consolidated YtXJob: one block's partial (YtX, XtX).

    ``YtX_part = Yc_blk' * X_blk`` and ``XtX_part = X_blk' * X_blk``.  The
    optional *latent* argument supplies a pre-materialized X block (the
    ``use_x_recomputation=False`` ablation); otherwise X is recomputed here.
    """
    if mean_propagation:
        if latent is None:
            latent = block_latent(block, mean, projector, latent_mean, True)
        ytx = centered_transpose_times(block, mean, latent)
    else:
        centered = _centered(block, mean)
        if latent is None:
            latent = centered @ projector
        ytx = centered.T @ latent
    xtx = latent.T @ latent
    return ytx, xtx


@contract(
    block="matrix (b, D)",
    mean="dense (D,)",
    components="dense (D, d)",
    ls_projector="dense (D, d)",
    ret=("dense (D,)", "dense (D,)"),
)
def block_error_parts(
    block: Matrix,
    mean: np.ndarray,
    components: np.ndarray,
    ls_projector: np.ndarray,
    mean_propagation: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Reconstruction-error job: per-column absolute sums for one block.

    The paper's error is the (induced) matrix 1-norm ratio
    ``e = ||Yr - Yhat||_1 / ||Yr||_1`` where ``||A||_1`` is the maximum
    absolute column sum.  Column sums are additive across row blocks, so
    each block contributes two length-D vectors -- (column sums of
    |Y - Yhat|, column sums of |Y|) -- that combiners/accumulators add; the
    driver takes the ratio of the maxima.  ``Yhat = Xr * C' + Ym`` with
    ``Xr = Yc * C (C'C)^-1`` the least-squares projection.
    """
    dense = _densify(block)
    if mean_propagation:
        latent = centered_times(block, mean, ls_projector)
    else:
        latent = (dense - mean) @ ls_projector
    reconstruction = latent @ components.T + mean
    residual_colsums = np.abs(dense - reconstruction).sum(axis=0)
    magnitude_colsums = np.abs(dense).sum(axis=0)
    return residual_colsums, magnitude_colsums


@contract(residual_colsums="dense (D,)", magnitude_colsums="dense (D,)", ret="scalar")
def error_from_colsums(residual_colsums: np.ndarray, magnitude_colsums: np.ndarray) -> float:
    """Final induced-1-norm error from the summed per-column vectors."""
    return float(residual_colsums.max()) / max(float(magnitude_colsums.max()), 1e-300)
