"""Matrix substrate for sPCA: sparse blocks, mean propagation, norms.

The modules in this package implement the primitive matrix operations that
Section 3 of the paper optimizes:

- :mod:`repro.linalg.blocks` -- row-partitioned matrix blocks, the unit of
  distribution for both simulated engines.
- :mod:`repro.linalg.centered` -- mean-propagated operations that compute on
  the *centered* matrix ``Yc = Y - Ym`` without ever materializing it
  (Section 3.1).
- :mod:`repro.linalg.multiply` -- the efficient multiplication patterns of
  Section 3.3 (broadcast in-memory multiply, row-wise ``A' * B``
  accumulation, and the associativity trick of Equation 3).
- :mod:`repro.linalg.frobenius` -- Algorithms 2 and 3 for the Frobenius norm
  of the centered matrix (Section 3.4).
- :mod:`repro.linalg.stats` -- column means/sums, row sampling and the
  input finiteness check.
- :mod:`repro.linalg.small` -- the driver-side ``d x d`` algebra: the one
  guarded inverse behind every moment inverse, least-squares projector and
  PPCA log-density, plus the per-step EM finite-state check.
"""

from repro.linalg.blocks import RowBlock, block_nbytes, iter_blocks, partition_rows, stack_blocks
from repro.linalg.centered import (
    centered_gram,
    centered_row,
    centered_times,
    centered_transpose_times,
)
from repro.linalg.frobenius import (
    frobenius_centered_dense,
    frobenius_simple,
    frobenius_sparse,
)
from repro.linalg.operators import CenteredOperator
from repro.linalg.multiply import (
    broadcast_times,
    transpose_times_accumulate,
    xcy_associative,
)
from repro.linalg.stats import column_means, column_sums, sample_rows

__all__ = [
    "CenteredOperator",
    "RowBlock",
    "block_nbytes",
    "broadcast_times",
    "centered_gram",
    "centered_row",
    "centered_times",
    "centered_transpose_times",
    "column_means",
    "column_sums",
    "frobenius_centered_dense",
    "frobenius_simple",
    "frobenius_sparse",
    "iter_blocks",
    "partition_rows",
    "sample_rows",
    "stack_blocks",
    "transpose_times_accumulate",
    "xcy_associative",
]
