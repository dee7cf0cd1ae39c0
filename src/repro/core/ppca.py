"""Reference sequential PPCA (Algorithm 1, Tipping & Bishop EM).

This is the unoptimized, centralized starting point that Section 3 of the
paper transforms into sPCA.  It materializes the centered matrix and the
latent matrix X, so it is only usable on data that fits in one machine's
memory -- exactly the limitation that motivates sPCA.  It exists here as the
ground truth that every distributed variant must match.

Note on Algorithm 1, line 8: the paper's pseudocode reads
``XtX = X'X + ss * M^-1`` but the EM M-step requires the expected second
moment ``sum_n E[x_n x_n'] = X'X + N * ss * M^-1`` (the released sPCA code
multiplies by N as well).  We implement the correct form; DESIGN.md records
the discrepancy.
"""

from __future__ import annotations

import numpy as np

from repro.core.initialization import random_initialization
from repro.core.model import PCAModel
from repro.errors import ShapeError
from repro.linalg.blocks import Matrix, is_sparse
from repro.linalg.small import check_em_state, inverse, moment_inverse
from repro.linalg.stats import column_means
from repro.obs import get_tracer
from repro.obs.metrics import get_registry


def fit_ppca(
    data: Matrix,
    n_components: int,
    max_iterations: int = 50,
    tolerance: float = 1e-6,
    seed: int = 0,
    initial: tuple[np.ndarray, float] | None = None,
) -> PCAModel:
    """Fit PPCA with the plain EM of Algorithm 1.

    Args:
        data: input matrix Y, shape (N, D); sparse input is densified (this
            is the centralized baseline).
        n_components: number of principal components d.
        max_iterations: EM iteration budget.
        tolerance: relative-change threshold on the noise variance; the loop
            stops early once ss stabilizes.
        seed: seed for the random initialization.
        initial: optional (C, ss) warm start overriding the random init.

    Returns:
        The fitted :class:`PCAModel`.
    """
    n_samples, n_features = data.shape
    if n_components > min(n_samples, n_features):
        raise ShapeError(
            f"n_components={n_components} exceeds min(N, D)="
            f"{min(n_samples, n_features)}"
        )
    dense = np.asarray(data.todense()) if is_sparse(data) else np.asarray(data, dtype=np.float64)
    mean = column_means(dense)
    centered = dense - mean

    rng = np.random.default_rng(seed)
    if initial is None:
        components, noise_variance = random_initialization(n_features, n_components, rng)
    else:
        components, noise_variance = initial
        components = np.asarray(components, dtype=np.float64).copy()

    frobenius = float(np.sum(centered * centered))
    tracer = get_tracer()
    with tracer.span(
        "run",
        f"ppca.fit[N={n_samples},D={n_features},d={n_components}]",
        n_samples=n_samples,
        n_features=n_features,
        n_components=n_components,
    ):
        components, noise_variance = _em_loop(
            centered, components, noise_variance, frobenius,
            n_samples, n_features, max_iterations, tolerance, tracer,
        )

    return PCAModel(
        components=components,
        mean=mean,
        noise_variance=noise_variance,
        n_samples=n_samples,
    )


def _em_loop(
    centered: np.ndarray,
    components: np.ndarray,
    noise_variance: float,
    frobenius: float,
    n_samples: int,
    n_features: int,
    max_iterations: int,
    tolerance: float,
    tracer,
) -> tuple[np.ndarray, float]:
    previous_ss = None
    for iteration in range(1, max_iterations + 1):
        with tracer.span(
            "iteration", f"ppca.iteration[{iteration}]", index=iteration
        ) as iter_span:
            moment_inv = moment_inverse(components, noise_variance)
            latent = centered @ components @ moment_inv
            latent_gram = latent.T @ latent + n_samples * noise_variance * moment_inv
            cross = centered.T @ latent
            components = cross @ inverse(latent_gram)
            ss2 = float(np.trace(latent_gram @ components.T @ components))
            # sum_n X_n C' Yc_n' = sum(C * Yc'X): no N x D x d product.
            ss3 = float(np.sum(components * cross))
            noise_variance = (frobenius + ss2 - 2.0 * ss3) / (n_samples * n_features)
            noise_variance = max(noise_variance, 1e-12)
            check_em_state(iteration, components, noise_variance)
            if tracer.enabled:
                iter_span.set(
                    objective=noise_variance,
                    convergence_delta=(
                        None
                        if previous_ss is None
                        else abs(previous_ss - noise_variance)
                    ),
                )
            registry = get_registry()
            if registry.enabled:
                registry.counter("spca_em_iterations_total", loop="ppca").inc()
                registry.gauge("spca_em_objective", loop="ppca").set(noise_variance)
            if (previous_ss is not None
                    and abs(previous_ss - noise_variance) <= tolerance * previous_ss):
                break
            previous_ss = noise_variance
    return components, noise_variance
