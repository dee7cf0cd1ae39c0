"""The fitted PCA model returned by PPCA / sPCA."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ShapeError
from repro.linalg.blocks import Matrix
from repro.linalg.centered import centered_times
from repro.linalg.small import ls_projector, moment_inverse, ppca_log_density


@dataclass
class PCAModel:
    """Result of a PPCA/sPCA fit.

    PPCA recovers the principal *subspace*: the columns of ``components``
    span the same space as the top-d eigenvectors of the sample covariance,
    up to an arbitrary rotation (Tipping & Bishop).  :attr:`basis` gives an
    orthonormal basis of that subspace; :meth:`principal_directions` rotates
    it into the actual eigenvector directions using the data.

    Attributes:
        components: the ``D x d`` transformation matrix C.
        mean: the column mean ``Ym`` of the training data, length D.
        noise_variance: the fitted residual variance ``ss``.
        n_samples: number of training rows N.
    """

    components: np.ndarray
    mean: np.ndarray
    noise_variance: float
    n_samples: int
    _basis: np.ndarray | None = field(default=None, repr=False)
    _posterior_projector: np.ndarray | None = field(default=None, repr=False)
    _subspace_projector: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.components = np.asarray(self.components, dtype=np.float64)
        self.mean = np.asarray(self.mean, dtype=np.float64).ravel()
        if self.components.ndim != 2:
            raise ShapeError("components must be a 2-D (D x d) array")
        if self.mean.shape[0] != self.components.shape[0]:
            raise ShapeError(
                f"mean has length {self.mean.shape[0]} but components have "
                f"{self.components.shape[0]} rows"
            )

    @property
    def n_features(self) -> int:
        return self.components.shape[0]

    @property
    def n_components(self) -> int:
        return self.components.shape[1]

    @property
    def basis(self) -> np.ndarray:
        """Orthonormal ``D x d`` basis of the recovered principal subspace."""
        if self._basis is None:
            u, _, _ = np.linalg.svd(self.components, full_matrices=False)
            self._basis = u
        return self._basis

    @property
    def posterior_projector(self) -> np.ndarray:
        """Cached ``D x d`` posterior-mean projector ``C * M^-1``.

        ``M = C'C + ss*I`` is inverted by :func:`repro.linalg.small.moment_inverse`,
        the same guarded inverse the fit's E-step uses: when the moment is
        singular (``noise_variance == 0`` on rank-deficient components, the
        zero-variance-data collapse) the pseudo-inverse takes over, matching
        :meth:`project`.  Computed once per model -- the serving hot path
        calls :meth:`transform` per request and must not re-invert a
        ``d x d`` moment every time.  Like ``_basis`` the cache assumes the
        fitted arrays are never mutated in place.
        """
        if self._posterior_projector is None:
            self._posterior_projector = np.ascontiguousarray(
                self.components @ moment_inverse(self.components, self.noise_variance)
            )
        return self._posterior_projector

    @property
    def subspace_projector(self) -> np.ndarray:
        """Cached ``D x d`` least-squares projector ``C * (C'C)^-1``.

        Built by :func:`repro.linalg.small.ls_projector`, the projector the
        fit's error job uses.  Its guarded inverse falls back to the
        pseudo-inverse past a fixed condition threshold, so degenerate
        models (zero-variance data collapse C to rank-deficiency) still
        project cleanly onto what is spanned.
        """
        if self._subspace_projector is None:
            self._subspace_projector = np.ascontiguousarray(
                ls_projector(self.components)
            )
        return self._subspace_projector

    def transform(self, data: Matrix) -> np.ndarray:
        """Posterior-mean latent coordinates ``X = Yc * C * M^-1``.

        This is the PPCA E-step projection; it shrinks towards zero when the
        noise variance is large.
        """
        return centered_times(data, self.mean, self.posterior_projector)

    def project(self, data: Matrix) -> np.ndarray:
        """Least-squares latent coordinates ``X = Yc * C * (C'C)^-1``.

        Unlike :meth:`transform` this does not shrink, so ``X * C'`` is the
        orthogonal projection of ``Yc`` onto the subspace.  The paper's
        reconstruction-error metric uses this projection.
        """
        return centered_times(data, self.mean, self.subspace_projector)

    def inverse_transform(self, latent: np.ndarray) -> np.ndarray:
        """Map latent coordinates back to data space: ``X * C' + Ym``.

        Accepts a single length-d vector (the obvious single-request shape)
        as well as an ``n x d`` matrix; a 1-D input comes back as a 1-D
        length-D row.
        """
        latent = np.asarray(latent, dtype=np.float64)
        single = latent.ndim == 1
        latent = np.atleast_2d(latent)
        if latent.ndim != 2:
            raise ShapeError(
                f"latent must be a vector or 2-D matrix, got {latent.ndim} dimensions"
            )
        if latent.shape[1] != self.n_components:
            raise ShapeError(
                f"latent has {latent.shape[1]} columns, expected {self.n_components}"
            )
        result = latent @ self.components.T + self.mean
        return result[0] if single else result

    def reconstruct(self, data: Matrix) -> np.ndarray:
        """Project onto the subspace and map back (dense result)."""
        return self.inverse_transform(self.project(data))

    def log_likelihood(self, data: Matrix) -> float:
        """Total PPCA log-likelihood of *data* under this model.

        Evaluates ``sum_n log N(y_n; mean, C C' + ss I)`` using the Woodbury
        identity, so only d x d systems are solved even for large D.
        """
        n_cols = data.shape[1]
        if n_cols != self.n_features:
            raise ShapeError(
                f"data has {n_cols} columns but the model has {self.n_features} features"
            )
        log_density = ppca_log_density(
            self._centered_square_norms(data),
            centered_times(data, self.mean, self.components),
            self.components,
            max(self.noise_variance, 1e-300),
        )
        return float(np.sum(log_density))

    def _centered_square_norms(self, data: Matrix) -> np.ndarray:
        """Per-row ||y - mean||^2 without densifying sparse input."""
        import scipy.sparse as sp

        if sp.issparse(data):
            csr = data.tocsr()
            row_sq = np.asarray(csr.multiply(csr).sum(axis=1)).ravel()
            cross = np.asarray(csr @ self.mean).ravel()
            return row_sq - 2.0 * cross + float(self.mean @ self.mean)
        dense = np.asarray(data, dtype=np.float64) - self.mean
        return np.einsum("ij,ij->i", dense, dense)

    def principal_directions(self, data: Matrix) -> tuple[np.ndarray, np.ndarray]:
        """Rotate the subspace basis into eigenvector directions.

        Projects the (centered) data onto :attr:`basis`, eigendecomposes the
        small ``d x d`` projected covariance, and returns the rotated basis
        together with the per-direction explained variances, sorted
        descending.

        Returns:
            (directions, variances): ``D x d`` orthonormal directions and a
            length-d variance vector.
        """
        projected = centered_times(data, self.mean, self.basis)
        small_cov = projected.T @ projected / max(1, data.shape[0] - 1)
        variances, rotation = np.linalg.eigh(small_cov)
        order = np.argsort(variances)[::-1]
        return self.basis @ rotation[:, order], variances[order]
