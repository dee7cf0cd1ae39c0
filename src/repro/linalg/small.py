"""Driver-side small-matrix algebra: the d x d inverses of every EM loop.

Each EM iteration of Algorithm 4 reduces the data to ``d x d`` and ``D x d``
matrices, and the driver then inverts two ``d x d`` moments: ``M = C'C +
ss*I`` for the E-step projector and the expected latent second moment for
the M-step.  This module is the only place such a moment is inverted, so
the fits, the streaming recursion, the extensions and the serving
projectors all share one arithmetic and one guard against singularity.

The guard never changes a well-posed fit: below :data:`CONDITION_LIMIT`
:func:`inverse` returns exactly ``np.linalg.inv``.  Past it (constant data,
data whose rank is below ``n_components``) the pseudo-inverse takes over,
so a rank-deficient ``C`` projects onto what it spans and the fit finishes
under its ordinary stop rules instead of raising ``LinAlgError``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DataError

# 1-norm condition number past which a moment counts as singular.  Its
# reciprocal is also the pseudo-inverse's relative singular-value cutoff.
CONDITION_LIMIT = 1e12


def inverse(a: np.ndarray) -> np.ndarray:
    """Guarded inverse of a symmetric positive semi-definite ``d x d`` matrix.

    Returns ``np.linalg.inv(a)`` when ``||a||_1 ||a^-1||_1`` is at most
    :data:`CONDITION_LIMIT`, and otherwise the pseudo-inverse with singular
    values below ``max / CONDITION_LIMIT`` dropped.  A non-finite *a* has no
    inverse: the result is all NaN, and :func:`check_em_state` reports the
    cause at the end of the EM step.
    """
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        pass
    else:
        if np.linalg.norm(a, 1) * np.linalg.norm(inv, 1) <= CONDITION_LIMIT:
            return inv
    if not np.isfinite(a).all():
        return np.full(a.shape, np.nan)
    return np.linalg.pinv(a, rcond=1.0 / CONDITION_LIMIT)


def _moment(components: np.ndarray, noise_variance: float) -> np.ndarray:
    return components.T @ components + noise_variance * np.eye(components.shape[1])


def moment_inverse(components: np.ndarray, noise_variance: float) -> np.ndarray:
    """``M^-1 = (C'C + ss*I)^-1``, the E-step's posterior moment inverse."""
    return inverse(_moment(components, noise_variance))


def ls_projector(components: np.ndarray) -> np.ndarray:
    """Least-squares projector ``C (C'C)^-1``: ``Yc P C'`` projects onto span(C).

    A rank-deficient ``C`` yields ``C (C'C)^+``, so ``P C'`` is still the
    orthogonal projector onto the subspace ``C`` spans.
    """
    return components @ inverse(components.T @ components)


def ppca_log_density(
    square_norms: np.ndarray,
    projected: np.ndarray,
    components: np.ndarray,
    noise_variance: float,
) -> np.ndarray:
    """Per-row PPCA log-density ``log N(y; mu, C C' + ss I)``.

    Takes each row's ``||y - mu||^2`` and ``(y - mu) C`` and evaluates the
    Gaussian through the Woodbury identity, so only ``d x d`` systems are
    inverted even for large D:
    ``(CC' + ss I)^-1 = (I - C M^-1 C') / ss`` and
    ``|CC' + ss I| = ss^(D-d) |M|``.
    """
    n_cols = components.shape[0]
    moment = _moment(components, noise_variance)
    moment_inv = inverse(moment)
    mahalanobis = (
        square_norms - np.einsum("ij,jl,il->i", projected, moment_inv, projected)
    ) / noise_variance
    sign, logdet_m = np.linalg.slogdet(moment / noise_variance)
    log_det = n_cols * np.log(noise_variance) + sign * logdet_m
    return -0.5 * (n_cols * np.log(2.0 * np.pi) + log_det + mahalanobis)


def check_em_state(
    iteration: int, components: np.ndarray, noise_variance: float
) -> None:
    """Raise :class:`DataError` when an EM step left a non-finite ``ss`` or ``C``.

    Finite input can still overflow float64 inside the moments (values near
    1e160 square past the largest double), and EM would otherwise carry the
    NaNs to ``max_iterations`` without a word.
    """
    if not np.isfinite(noise_variance):
        raise DataError(
            f"EM iteration {iteration} produced a non-finite noise variance "
            f"ss={noise_variance}; the input's scale overflows float64, "
            "rescale it before fitting"
        )
    if not np.isfinite(components).all():
        raise DataError(
            f"EM iteration {iteration} produced non-finite components C; "
            "the input's scale overflows float64, rescale it before fitting"
        )
