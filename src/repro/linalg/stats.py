"""Column statistics, row sampling and the input finiteness check."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import DataError, ShapeError
from repro.linalg.blocks import Matrix
from repro.lint.contracts import contract


@contract(matrix="matrix (b, D)", ret="dense (D,)")
def column_sums(matrix: Matrix) -> np.ndarray:
    """Column sums of a sparse or dense matrix as a dense float vector."""
    sums = matrix.sum(axis=0)
    return np.asarray(sums, dtype=np.float64).ravel()


@contract(matrix="matrix (b, D)", ret="dense (D,)")
def column_means(matrix: Matrix) -> np.ndarray:
    """Column means ``Ym`` of the input matrix.

    This is the quantity the paper's ``meanJob`` computes once before the EM
    loop starts (Algorithm 4, line 3).
    """
    n_rows = matrix.shape[0]
    if n_rows == 0:
        raise ShapeError("cannot take column means of a matrix with zero rows")
    return column_sums(matrix) / n_rows


@contract(matrix="matrix (b, D)", fraction="scalar", ret="matrix")
def sample_rows(matrix: Matrix, fraction: float, rng: np.random.Generator) -> Matrix:
    """Select a uniform random subset of rows (without replacement).

    Used both by the reconstruction-error estimator (Section 5, which samples
    rows to avoid iterating the full dense reconstruction) and by the
    smart-guess initializer (sPCA-SG, Section 5.2).

    Args:
        matrix: the input matrix.
        fraction: fraction of rows to keep, in (0, 1]; at least one row is
            always returned.
        rng: NumPy random generator (callers own seeding for determinism).
    """
    if not 0.0 < fraction <= 1.0:
        raise ShapeError(f"fraction must be in (0, 1], got {fraction}")
    n_rows = matrix.shape[0]
    count = max(1, int(round(n_rows * fraction)))
    index = rng.choice(n_rows, size=min(count, n_rows), replace=False)
    index.sort()
    if sp.issparse(matrix):
        return matrix.tocsr()[index]
    return np.asarray(matrix)[index]


def check_finite(data: Matrix, row_offset: int = 0) -> None:
    """Raise :class:`DataError` at the first NaN or inf entry of *data*.

    The common case is one reduction over the stored values (``data.data``
    for sparse input) with no N x D temporary; entries are scanned only when
    that total is not finite, so a sum that overflows over finite entries
    passes.  The reported row is offset by *row_offset*, so a stream chunk
    names its row in the whole stream.
    """
    if sp.issparse(data):
        data = data.tocsr()
        values = data.data
    else:
        values = np.asarray(data)
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(values.sum()):
            return
    if sp.issparse(data):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            index = int(bad[0])
            row = int(np.searchsorted(data.indptr, index, side="right")) - 1
            _raise_non_finite(values[index], row_offset + row, int(data.indices[index]))
        return
    rows_per_chunk = max(1, 2**20 // max(1, values.shape[1]))
    for start in range(0, values.shape[0], rows_per_chunk):
        bad = np.argwhere(~np.isfinite(values[start:start + rows_per_chunk]))
        if bad.size:
            row, col = (int(i) for i in bad[0])
            _raise_non_finite(values[start + row, col], row_offset + start + row, col)


def _raise_non_finite(value, row: int, col: int) -> None:
    raise DataError(
        f"input holds a non-finite value ({value}) at row {row}, column {col}; "
        "remove or impute it before fitting"
    )
