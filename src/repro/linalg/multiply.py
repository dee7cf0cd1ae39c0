"""Efficient matrix multiplication patterns (paper Section 3.3).

Two patterns appear throughout sPCA:

1. **Broadcast multiply** (:func:`broadcast_times`): ``A * B`` where ``A`` is
   distributed row-wise and the small ``B`` fits in every worker's memory.
   Each worker computes ``A_i * B`` for its rows -- no transpose, no shuffle.

2. **Row-wise transpose-product accumulation**
   (:func:`transpose_times_accumulate`): ``A' * B = sum_r A_r' * B_r``
   (Equation 2).  Each worker accumulates a partial ``D x d`` sum over its
   rows; partials are combined with addition, which maps directly onto
   MapReduce combiners and Spark accumulators.

The paper's third pattern, the associativity trick of Equation 3 for the
ss3 term, has no user: ss3 is ``sum(C * YtX)`` on the driver (see
:meth:`repro.backends.base.Backend.ss3`), so no job evaluates
``X_i * C' * Y_i'`` per row.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.linalg.blocks import Matrix
from repro.lint.contracts import contract


@contract(block="matrix (b, D)", small="dense (D, d)", ret="dense (b, d)")
def broadcast_times(block: Matrix, small: np.ndarray) -> np.ndarray:
    """Multiply a distributed row block by a broadcast in-memory matrix.

    Args:
        block: rows of the distributed matrix ``A``, shape ``(n, D)``.
        small: the broadcast matrix ``B``, shape ``(D, d)``.

    Returns:
        Dense ``(n, d)`` product.
    """
    small = np.asarray(small, dtype=np.float64)
    if block.shape[1] != small.shape[0]:
        raise ShapeError(
            f"inner dimensions disagree: block is {block.shape}, small is {small.shape}"
        )
    return np.asarray(block @ small)


def transpose_times_accumulate(blocks, right_blocks) -> np.ndarray:
    """Compute ``A' * B`` as a sum of per-block partial products (Eq. 2).

    Args:
        blocks: iterable of row blocks of ``A`` (sparse or dense), each
            shape ``(n_i, D)``.
        right_blocks: iterable of the matching dense blocks of ``B``, each
            shape ``(n_i, d)``.

    Returns:
        Dense ``(D, d)`` product.

    Raises:
        ShapeError: on mismatched block row counts or an empty input.
    """
    total = None
    for left, right in zip(blocks, right_blocks, strict=True):
        right = np.asarray(right, dtype=np.float64)
        if left.shape[0] != right.shape[0]:
            raise ShapeError(
                f"block row counts disagree: {left.shape[0]} vs {right.shape[0]}"
            )
        partial = np.asarray(left.T @ right)
        total = partial if total is None else total + partial
    if total is None:
        raise ShapeError("cannot multiply zero blocks")
    return total
