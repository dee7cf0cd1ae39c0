"""The paper's accuracy metric: sampled relative 1-norm reconstruction error.

Section 5 defines ``e = ||Yr - Xr*C^-1||_1 / ||Yr||_1`` over a random row
subset Yr, where ``||A||_1`` is the matrix 1-norm (maximum absolute column
sum) and ``C^-1`` denotes mapping the latent rows back to data space; we use
the least-squares projection ``Xr = Yc_r C (C'C)^-1`` and reconstruction
``Xr C' + Ym``, matching the released sPCA code.  Accuracy is ``1 - e`` and
is reported as a percentage of the *ideal* accuracy, the accuracy an exact
rank-d PCA achieves on the same data.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.linalg import small
from repro.linalg.blocks import Matrix, is_sparse
from repro.linalg.centered import centered_times
from repro.linalg.operators import CenteredOperator
from repro.linalg.stats import column_means, sample_rows


def reconstruction_error(
    data: Matrix,
    components: np.ndarray,
    mean: np.ndarray | None = None,
    sample_fraction: float = 1.0,
    rng: np.random.Generator | None = None,
) -> float:
    """Relative matrix-1-norm reconstruction error on sampled rows.

    Args:
        data: the input matrix Y (rows are observations).
        components: D x d transformation matrix C.
        mean: column means; computed from *data* when omitted.
        sample_fraction: fraction of rows to score (1.0 = all rows).
        rng: generator for the row sample; required when sampling.

    Returns:
        ``||Yr - Yhat||_1 / ||Yr||_1`` over the sampled rows, where
        ``||A||_1`` is the induced matrix 1-norm (max absolute column sum).
    """
    components = np.asarray(components, dtype=np.float64)
    if components.ndim != 2 or components.shape[0] != data.shape[1]:
        raise ShapeError(
            f"components shape {components.shape} does not match data with "
            f"{data.shape[1]} columns"
        )
    if mean is None:
        mean = column_means(data)
    rows = data
    if sample_fraction < 1.0:
        if rng is None:
            raise ShapeError("sampling requires an rng")
        rows = sample_rows(data, sample_fraction, rng)
    ls_projector = small.ls_projector(components)
    latent = centered_times(rows, mean, ls_projector)
    reconstruction = latent @ components.T + mean
    dense = np.asarray(rows.todense()) if is_sparse(rows) else np.asarray(rows, dtype=np.float64)
    residual_colsums = np.abs(dense - reconstruction).sum(axis=0)
    magnitude_colsums = np.abs(dense).sum(axis=0)
    return float(residual_colsums.max()) / max(float(magnitude_colsums.max()), 1e-300)


def accuracy_from_error(error: float) -> float:
    """Accuracy as the paper plots it: ``1 - e``."""
    return 1.0 - error


def ideal_accuracy(
    data: Matrix,
    n_components: int,
    mean: np.ndarray | None = None,
    sample_fraction: float = 1.0,
    rng: np.random.Generator | None = None,
) -> float:
    """Accuracy of an exact rank-d PCA on the same data.

    Computes the top-d singular subspace of the *centered* matrix without
    densifying it, using a mean-propagated LinearOperator -- the same trick
    sPCA uses, applied to exact SVD.
    """
    if mean is None:
        mean = column_means(data)
    n_rows, n_cols = data.shape
    rank_budget = min(n_rows, n_cols) - 1
    if n_components > rank_budget:
        raise ShapeError(
            f"n_components={n_components} needs min(N, D) > {n_components}"
        )
    mean = np.asarray(mean, dtype=np.float64)
    operator = CenteredOperator(data, mean)
    _, _, vt = operator.top_singular_subspace(n_components)
    exact_components = vt.T
    return accuracy_from_error(
        reconstruction_error(data, exact_components, mean, sample_fraction, rng)
    )


def percent_of_ideal(accuracy: float, ideal: float) -> float:
    """Accuracy as a percentage of the ideal (the y-axis of Figures 4-5)."""
    if ideal <= 0.0:
        raise ShapeError(f"ideal accuracy must be positive, got {ideal}")
    return 100.0 * accuracy / ideal
