"""PPCA over incomplete data: EM with per-row observed subsets.

Because PPCA is a proper latent-variable model, the E-step conditions each
row's latent posterior only on that row's *observed* entries, and the
M-step accumulates per-feature normal equations over the rows that observe
each feature (the Ilin & Raiko formulation).  No imputation is needed
during fitting; :meth:`MissingValuePPCA.impute` afterwards fills the gaps
with the model's posterior reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.model import PCAModel
from repro.errors import ConvergenceError, ShapeError
from repro.linalg.small import moment_inverse


@dataclass
class MissingValuePPCA:
    """PPCA fitted to a dense matrix with NaN-marked missing entries.

    Args:
        n_components: latent dimensionality d.
        max_iterations: EM iteration budget.
        tolerance: relative change of ss below which the loop stops.
        seed: seed for the random initialization.
    """

    n_components: int
    max_iterations: int = 100
    tolerance: float = 1e-6
    seed: int = 0

    def fit(self, data: np.ndarray) -> PCAModel:
        """Run EM and return the fitted model.

        Args:
            data: dense (N, D) array; missing entries are NaN.  Every row
                and every column must have at least one observed entry.
        """
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise ShapeError("data must be a 2-D array")
        observed = ~np.isnan(data)
        if not observed.any():
            raise ShapeError("all entries are missing")
        if not observed.any(axis=1).all():
            raise ShapeError("every row needs at least one observed entry")
        if not observed.any(axis=0).all():
            raise ShapeError("every column needs at least one observed entry")

        n_rows, n_cols = data.shape
        d = self.n_components
        if d > min(n_rows, n_cols):
            raise ShapeError(
                f"n_components={d} exceeds min(N, D)={min(n_rows, n_cols)}"
            )
        rng = np.random.default_rng(self.seed)

        # Observed column means; centered data with NaNs kept as NaN.
        col_sums = np.where(observed, data, 0.0).sum(axis=0)
        col_counts = observed.sum(axis=0)
        mean = col_sums / col_counts
        centered = np.where(observed, data - mean, 0.0)

        components = rng.normal(size=(n_cols, d))
        ss = 1.0
        previous_ss = None
        identity = np.eye(d)
        n_observed = int(observed.sum())

        for _ in range(self.max_iterations):
            # E-step: per-row posterior over the observed coordinates only.
            latent = np.zeros((n_rows, d))
            second_moments = np.zeros((n_rows, d, d))
            for i in range(n_rows):
                obs = observed[i]
                c_obs = components[obs]
                moment_inv = moment_inverse(c_obs, ss)
                latent[i] = moment_inv @ (c_obs.T @ centered[i, obs])
                second_moments[i] = ss * moment_inv + np.outer(latent[i], latent[i])

            # M-step, per feature j over the rows observing j.
            new_components = np.empty_like(components)
            for j in range(n_cols):
                rows = observed[:, j]
                normal_matrix = second_moments[rows].sum(axis=0)
                rhs = latent[rows].T @ centered[rows, j]
                new_components[j] = np.linalg.solve(
                    normal_matrix + 1e-12 * identity, rhs
                )
            components = new_components

            # Noise variance over observed entries.
            total = 0.0
            for i in range(n_rows):
                obs = observed[i]
                c_obs = components[obs]
                residual = centered[i, obs] - c_obs @ latent[i]
                total += float(residual @ residual)
                total += float(
                    np.trace(c_obs @ (second_moments[i] - np.outer(latent[i], latent[i])) @ c_obs.T)
                )
            ss = max(total / n_observed, 1e-12)

            if previous_ss is not None and abs(previous_ss - ss) <= self.tolerance * previous_ss:
                break
            previous_ss = ss
        else:
            if self.tolerance > 0 and self.max_iterations >= 100:
                raise ConvergenceError(
                    f"missing-value PPCA did not converge in {self.max_iterations} iterations"
                )

        self.model_ = PCAModel(
            components=components, mean=mean, noise_variance=ss, n_samples=n_rows
        )
        return self.model_

    def impute(self, data: np.ndarray) -> np.ndarray:
        """Fill the NaN entries of *data* with the model's reconstruction."""
        if not hasattr(self, "model_"):
            raise ConvergenceError("fit must be called before impute")
        data = np.asarray(data, dtype=np.float64)
        model = self.model_
        observed = ~np.isnan(data)
        result = data.copy()
        identity = np.eye(model.n_components)
        for i in range(data.shape[0]):
            obs = observed[i]
            if obs.all():
                continue
            c_obs = model.components[obs]
            moment = c_obs.T @ c_obs + model.noise_variance * identity
            latent = np.linalg.solve(moment, c_obs.T @ (data[i, obs] - model.mean[obs]))
            reconstruction = model.components @ latent + model.mean
            result[i, ~obs] = reconstruction[~obs]
        return result
