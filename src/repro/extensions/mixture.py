"""Mixtures of probabilistic principal component analysers.

Tipping & Bishop (1999), the second PPCA property Section 2.4 highlights:
several local PPCA models combined as a probabilistic mixture.  Each
component k has a weight pi_k, mean mu_k, loading matrix C_k and noise
variance ss_k; responsibilities are computed under the Gaussian marginal
``N(y; mu_k, C_k C_k' + ss_k I)`` whose inverse and determinant are
evaluated through the Woodbury identity so only d x d solves are needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConvergenceError, ShapeError
from repro.linalg.small import inverse, moment_inverse, ppca_log_density


@dataclass
class MixtureOfPPCA:
    """A K-component mixture of PPCA models fitted with EM.

    Args:
        n_components: latent dimensionality d of each local model.
        n_clusters: number of mixture components K.
        max_iterations: EM budget.
        tolerance: relative log-likelihood improvement threshold.
        seed: initialization seed (k-means++-style mean seeding).
    """

    n_components: int
    n_clusters: int
    max_iterations: int = 100
    tolerance: float = 1e-6
    seed: int = 0
    weights_: np.ndarray = field(init=False, repr=False, default=None)
    means_: np.ndarray = field(init=False, repr=False, default=None)
    loadings_: list = field(init=False, repr=False, default=None)
    noise_: np.ndarray = field(init=False, repr=False, default=None)
    log_likelihood_: float = field(init=False, default=float("-inf"))

    def fit(self, data: np.ndarray) -> "MixtureOfPPCA":
        """Run EM until the log-likelihood stabilizes."""
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise ShapeError("data must be 2-D")
        n_rows, n_cols = data.shape
        d, k = self.n_components, self.n_clusters
        if k < 1 or d < 1:
            raise ShapeError("n_clusters and n_components must be >= 1")
        if d >= n_cols:
            raise ShapeError(f"n_components={d} must be < D={n_cols}")
        if k > n_rows:
            raise ShapeError(f"n_clusters={k} exceeds the number of rows")

        rng = np.random.default_rng(self.seed)
        self.weights_ = np.full(k, 1.0 / k)
        seeds = rng.choice(n_rows, size=k, replace=False)
        self.means_ = data[seeds].copy()
        self.loadings_ = [rng.normal(scale=0.1, size=(n_cols, d)) for _ in range(k)]
        self.noise_ = np.full(k, float(np.var(data)) / 2.0 + 1e-3)

        previous = None
        for _ in range(self.max_iterations):
            log_resp = self._log_responsibilities(data)
            log_norm = _logsumexp(log_resp, axis=1)
            self.log_likelihood_ = float(log_norm.sum())
            responsibilities = np.exp(log_resp - log_norm[:, None])
            self._m_step(data, responsibilities)
            if previous is not None:
                improvement = self.log_likelihood_ - previous
                if improvement < self.tolerance * abs(previous):
                    break
            previous = self.log_likelihood_
        return self

    def predict(self, data: np.ndarray) -> np.ndarray:
        """Most responsible component index per row."""
        self._check_fitted()
        return np.argmax(self._log_responsibilities(np.asarray(data)), axis=1)

    def score(self, data: np.ndarray) -> float:
        """Total log-likelihood of *data* under the mixture."""
        self._check_fitted()
        return float(_logsumexp(self._log_responsibilities(np.asarray(data)), axis=1).sum())

    # -- internals ---------------------------------------------------------

    def _check_fitted(self) -> None:
        if self.means_ is None:
            raise ConvergenceError("fit must be called first")

    def _log_responsibilities(self, data: np.ndarray) -> np.ndarray:
        out = np.empty((data.shape[0], self.n_clusters))
        for k in range(self.n_clusters):
            loadings = self.loadings_[k]
            centered = data - self.means_[k]
            out[:, k] = np.log(self.weights_[k] + 1e-300) + ppca_log_density(
                np.einsum("ij,ij->i", centered, centered),
                centered @ loadings,
                loadings,
                self.noise_[k],
            )
        return out

    def _m_step(self, data: np.ndarray, responsibilities: np.ndarray) -> None:
        n_rows, n_cols = data.shape
        for k in range(self.n_clusters):
            weights = responsibilities[:, k]
            total = max(weights.sum(), 1e-12)
            self.weights_[k] = total / n_rows
            mean = (weights[:, None] * data).sum(axis=0) / total
            self.means_[k] = mean
            centered = data - mean

            # One EM sub-step on the weighted local PPCA.
            loadings = self.loadings_[k]
            noise = self.noise_[k]
            moment_inv = moment_inverse(loadings, noise)
            latent = centered @ loadings @ moment_inv
            weighted_latent_gram = (
                (weights[:, None] * latent).T @ latent + total * noise * moment_inv
            )
            cross = (weights[:, None] * centered).T @ latent
            new_loadings = cross @ inverse(weighted_latent_gram)
            ss2 = float(np.trace(weighted_latent_gram @ new_loadings.T @ new_loadings))
            # cross already carries the weights, so ss3 = sum(C * cross).
            ss3 = float(np.sum(new_loadings * cross))
            ss1 = float(np.sum(weights[:, None] * centered * centered))
            self.loadings_[k] = new_loadings
            self.noise_[k] = max((ss1 + ss2 - 2.0 * ss3) / (total * n_cols), 1e-9)


def _logsumexp(values: np.ndarray, axis: int) -> np.ndarray:
    peak = values.max(axis=axis, keepdims=True)
    return (peak + np.log(np.exp(values - peak).sum(axis=axis, keepdims=True))).squeeze(axis)
