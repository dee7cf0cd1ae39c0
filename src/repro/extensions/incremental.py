"""Incremental (mini-batch) PPCA and the shared stochastic-EM step.

A natural extension of sPCA's design (its per-iteration state is only the
small ``(C, ss)`` pair, independent of N): instead of full-data EM passes,
process the rows in mini-batches and blend each batch's sufficient
statistics into running averages with a decaying step size.  This fits
datasets that stream in or do not fit in memory, at the cost of stochastic
rather than monotone convergence.

The update is stochastic EM (sEM): for batch t with step size
``eta_t = (t + 2)^(-kappa)``, the running moments are

    S_yx <- (1 - eta) * S_yx + eta * (Yc_t' X_t / |batch|)
    S_xx <- (1 - eta) * S_xx + eta * (X_t' X_t / |batch| + ss * M^-1)

and the M-step solves ``C = S_yx S_xx^-1`` exactly as in full EM.

The recursion is factored into two halves so that the distributed stream
runner (:mod:`repro.stream`) and the in-process entry points below share one
reference implementation:

- :func:`sem_batch_statistics` touches the rows once and reduces them to
  d-sized sufficient statistics (:class:`SEMBatchStats`).  This is the part
  an engine job computes worker-side.
- :func:`sem_blend` folds those statistics into the carried
  :class:`SEMState` using only small-matrix arithmetic, so the driver can
  apply it without ever seeing the rows.

In trace mode even the residual-variance update runs on d x d matrices:
``||Yc - X C'||_F^2 = ||Yc||^2 - 2 tr(C' Yc'X) + tr((X'X + n ss M^-1) C'C)``
with ``tr(C' Yc'X) = sum(C * (Yc'X))`` elementwise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np
import scipy.sparse as sp

from repro.core.model import PCAModel
from repro.errors import ShapeError
from repro.linalg.blocks import Matrix
from repro.linalg.centered import centered_times, centered_transpose_times
from repro.linalg.frobenius import frobenius_sparse
from repro.linalg.small import check_em_state, inverse, moment_inverse
from repro.linalg.stats import column_means

RESIDUAL_MODES = ("auto", "dense", "trace")

# Below this many columns the dense residual (materialize Yc once per batch)
# is cheaper than the three extra small products of the trace identity.
DENSE_RESIDUAL_MAX_COLS = 512


@dataclass(frozen=True)
class SEMState:
    """Everything the stochastic-EM recursion carries between batches.

    The state is intentionally small -- ``O(D d)`` like the paper's ``(C, ss)``
    pair -- so a stream driver can broadcast it per window and checkpoint it
    cheaply.  ``moment_yx`` / ``moment_xx`` are ``None`` before the first
    batch (the first batch initializes the running moments directly).
    """

    components: np.ndarray
    noise_variance: float
    mean: np.ndarray
    moment_yx: np.ndarray | None = None
    moment_xx: np.ndarray | None = None
    step_index: int = 0
    rows_seen: int = 0

    @property
    def n_components(self) -> int:
        return self.components.shape[1]

    @property
    def n_cols(self) -> int:
        return self.components.shape[0]

    def to_model(self, n_samples: int | None = None) -> PCAModel:
        """Freeze the state into a :class:`PCAModel`."""
        return PCAModel(
            components=self.components,
            mean=self.mean,
            noise_variance=self.noise_variance,
            n_samples=self.rows_seen if n_samples is None else n_samples,
        )


def initial_sem_state(
    n_components: int,
    n_cols: int,
    seed: int,
    mean: np.ndarray | None = None,
) -> SEMState:
    """Seeded random-orientation start of the sEM recursion.

    When *mean* is omitted the column means start at zero and are estimated
    online (streaming average) by :func:`sem_batch_statistics`.
    """
    if n_components > n_cols:
        raise ShapeError(
            f"n_components={n_components} exceeds the column count {n_cols}"
        )
    rng = np.random.default_rng(seed)
    components = rng.normal(size=(n_cols, n_components))
    if mean is None:
        mean = np.zeros(n_cols)
    else:
        mean = np.asarray(mean, dtype=np.float64)
        if mean.shape != (n_cols,):
            raise ShapeError(f"mean has shape {mean.shape}, expected ({n_cols},)")
    return SEMState(components=components, noise_variance=1.0, mean=mean)


@dataclass(frozen=True)
class SEMBatchStats:
    """Sufficient statistics of one mini-batch against a given state.

    All fields except the optional dense-residual pair are d-sized, which is
    what lets an engine reduce a whole window of rows to a record small
    enough to ship back to the driver.
    """

    size: int
    mean: np.ndarray
    batch_yx: np.ndarray
    latent_gram: np.ndarray
    moment_inv: np.ndarray
    ss1: float
    residual: np.ndarray | None = None
    latent: np.ndarray | None = None

    def as_payload(self) -> tuple:
        """Small-field tuple for shipping through an engine job."""
        if self.residual is not None or self.latent is not None:
            raise ShapeError("dense-residual statistics cannot be shipped")
        return (
            self.size,
            self.mean,
            self.batch_yx,
            self.latent_gram,
            self.moment_inv,
            self.ss1,
        )

    @staticmethod
    def from_payload(payload: tuple) -> "SEMBatchStats":
        size, mean, batch_yx, latent_gram, moment_inv, ss1 = payload
        return SEMBatchStats(
            size=int(size),
            mean=mean,
            batch_yx=batch_yx,
            latent_gram=latent_gram,
            moment_inv=moment_inv,
            ss1=float(ss1),
        )


def sem_batch_statistics(
    batch: Matrix,
    state: SEMState,
    *,
    update_mean: bool,
    residual: str = "trace",
) -> SEMBatchStats:
    """E-step over one batch: reduce the rows to sufficient statistics.

    Args:
        batch: ``(n, D)`` dense or CSR rows, ``n >= 1``.
        state: the carried recursion state.
        update_mean: blend the batch's column means into the streaming mean
            estimate (the ``partial_fit_stream`` / stream-runner behaviour);
            when False the state's mean is used as-is (the ``fit``
            behaviour, where means are computed up front).
        residual: ``"trace"`` keeps every statistic d-sized via the trace
            identity; ``"dense"`` carries the centered rows for the direct
            residual; ``"auto"`` picks dense for narrow data
            (D <= ``DENSE_RESIDUAL_MAX_COLS``).
    """
    size = batch.shape[0]
    if size == 0:
        raise ShapeError("cannot compute batch statistics of an empty batch")
    if residual not in RESIDUAL_MODES:
        raise ShapeError(f"residual must be one of {RESIDUAL_MODES}, got {residual!r}")
    n_cols = batch.shape[1]
    if n_cols != state.n_cols:
        raise ShapeError(f"batch has {n_cols} columns, expected {state.n_cols}")

    mean = state.mean
    if update_mean:
        batch_mean = column_means(batch)
        mean = (state.rows_seen * mean + size * batch_mean) / (state.rows_seen + size)

    components = state.components
    moment_inv = moment_inverse(components, state.noise_variance)
    latent = centered_times(batch, mean, components @ moment_inv)
    batch_yx = centered_transpose_times(batch, mean, latent) / size
    latent_gram = latent.T @ latent

    use_dense = residual == "dense" or (
        residual == "auto" and n_cols <= DENSE_RESIDUAL_MAX_COLS
    )
    if use_dense:
        # Center the rows directly -- the old code routed this through
        # centered_times(batch, mean, eye(D)), materializing a D x D
        # identity and paying an (n, D) @ (D, D) product for a no-op.
        dense = (
            np.asarray(batch.todense(), dtype=np.float64)
            if sp.issparse(batch)
            else np.asarray(batch, dtype=np.float64)
        )
        return SEMBatchStats(
            size=size,
            mean=mean,
            batch_yx=batch_yx,
            latent_gram=latent_gram,
            moment_inv=moment_inv,
            ss1=float("nan"),
            residual=dense - mean,
            latent=latent,
        )
    ss1 = frobenius_sparse(batch, mean)
    return SEMBatchStats(
        size=size,
        mean=mean,
        batch_yx=batch_yx,
        latent_gram=latent_gram,
        moment_inv=moment_inv,
        ss1=ss1,
    )


def sem_blend(state: SEMState, stats: SEMBatchStats, *, step_decay: float) -> SEMState:
    """M-step: fold one batch's statistics into the state.

    Only small matrices are touched, so this always runs driver-side -- even
    the residual-variance update in trace mode uses the identity
    ``tr(C' Yc'X) = sum(C * (Yc'X))`` to stay on d-sized operands.
    """
    size = stats.size
    batch_xx = stats.latent_gram / size + state.noise_variance * stats.moment_inv
    eta = (state.step_index + 2.0) ** (-step_decay)
    moment_yx = (
        stats.batch_yx
        if state.moment_yx is None
        else (1 - eta) * state.moment_yx + eta * stats.batch_yx
    )
    moment_xx = (
        batch_xx
        if state.moment_xx is None
        else (1 - eta) * state.moment_xx + eta * batch_xx
    )
    components = moment_yx @ inverse(moment_xx)

    n_cols = components.shape[0]
    if stats.residual is not None and stats.latent is not None:
        # Expected complete-data residual, like the trace path (and the
        # paper's ss3 job): the plug-in ||Yc - X C'||^2 plus the posterior
        # covariance term n*ss*tr(M^-1 C'C).  The historical dense path
        # omitted the correction, so the two residual modes disagreed by
        # O(ss * tr(M^-1 C'C) / D).
        reconstruction = stats.latent @ components.T
        correction = (
            size
            * state.noise_variance
            * float(np.trace(stats.moment_inv @ components.T @ components))
        )
        batch_ss = (
            float(np.sum((stats.residual - reconstruction) ** 2)) + correction
        ) / (size * n_cols)
    else:
        ss3 = float(np.sum(components * stats.batch_yx)) * size
        ss2 = float(
            np.trace(
                (stats.latent_gram + size * state.noise_variance * stats.moment_inv)
                @ components.T
                @ components
            )
        )
        batch_ss = (stats.ss1 + ss2 - 2 * ss3) / (size * n_cols)
    noise_variance = max((1 - eta) * state.noise_variance + eta * batch_ss, 1e-12)
    check_em_state(state.step_index + 1, components, noise_variance)
    return replace(
        state,
        components=components,
        noise_variance=noise_variance,
        mean=stats.mean,
        moment_yx=moment_yx,
        moment_xx=moment_xx,
        step_index=state.step_index + 1,
        rows_seen=state.rows_seen + size,
    )


def sem_step(
    state: SEMState,
    batch: Matrix,
    *,
    step_decay: float,
    update_mean: bool = True,
    residual: str = "trace",
) -> SEMState:
    """One full sEM update (E-step + M-step) on one batch."""
    stats = sem_batch_statistics(
        batch, state, update_mean=update_mean, residual=residual
    )
    return sem_blend(state, stats, step_decay=step_decay)


@dataclass
class IncrementalPPCA:
    """Mini-batch PPCA with stochastic EM updates.

    Args:
        n_components: latent dimensionality d.
        batch_size: rows per mini-batch.
        n_epochs: passes over the data.
        step_decay: kappa in ``eta_t = (t + 2)^-kappa``; 0.5 < kappa <= 1
            satisfies the Robbins-Monro conditions.
        seed: seed for initialization and row shuffling.
        shuffle: permute the row order each epoch in :meth:`fit`.  Disable to
            make ``fit`` a batch-sliced replay comparable to
            :meth:`partial_fit_stream`.
        residual: residual-variance path for :meth:`fit` -- ``"auto"``
            (dense for D <= 512, trace otherwise), ``"dense"``, or
            ``"trace"``.  :meth:`partial_fit_stream` always uses the trace
            identity, as the stream runner does.
    """

    n_components: int
    batch_size: int = 256
    n_epochs: int = 5
    step_decay: float = 0.7
    seed: int = 0
    shuffle: bool = True
    residual: str = "auto"

    def _validate(self) -> None:
        if self.batch_size < 1:
            raise ShapeError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.5 < self.step_decay <= 1.0:
            raise ShapeError(
                f"step_decay must be in (0.5, 1], got {self.step_decay}"
            )
        if self.residual not in RESIDUAL_MODES:
            raise ShapeError(
                f"residual must be one of {RESIDUAL_MODES}, got {self.residual!r}"
            )

    def fit(self, data: Matrix) -> PCAModel:
        """Stream over *data* in shuffled mini-batches; returns the model."""
        n_rows, n_cols = data.shape
        d = self.n_components
        if d > min(n_rows, n_cols):
            raise ShapeError(f"n_components={d} exceeds min(N, D)")
        self._validate()
        mean = column_means(data)
        state = initial_sem_state(d, n_cols, self.seed, mean=mean)
        rng = np.random.default_rng(self.seed)
        # Reproduce the historical draw order: the component init above used
        # a fresh generator, and this one re-draws it before shuffling.
        rng.normal(size=(n_cols, d))
        for _ in range(self.n_epochs):
            order = rng.permutation(n_rows) if self.shuffle else np.arange(n_rows)
            for start in range(0, n_rows, self.batch_size):
                rows = np.sort(order[start : start + self.batch_size])
                state = sem_step(
                    state,
                    data[rows],
                    step_decay=self.step_decay,
                    update_mean=False,
                    residual=self.residual,
                )
        self.model_ = state.to_model(n_samples=n_rows)
        return self.model_

    def partial_fit_stream(
        self,
        batches: Iterable[Matrix],
        n_cols: int,
        mean: np.ndarray | None = None,
    ) -> PCAModel:
        """Fit from an iterable of row batches without materializing them.

        This is the sequential reference implementation that the distributed
        stream runner (:mod:`repro.stream`) is property-tested against,
        bitwise.

        Args:
            batches: iterable of (n_i, D) dense or sparse row blocks.  Empty
                (zero-row) batches are skipped.
            n_cols: the number of columns D.
            mean: optional fixed column means.  When omitted (the default)
                the means are estimated online (streaming average).

        Returns:
            The fitted model (also stored as ``self.model_``).
        """
        self._validate()
        state = initial_sem_state(self.n_components, n_cols, self.seed, mean=mean)
        update_mean = mean is None
        for batch in batches:
            if batch.shape[1] != n_cols:
                raise ShapeError(
                    f"batch has {batch.shape[1]} columns, expected {n_cols}"
                )
            if batch.shape[0] == 0:
                continue
            state = sem_step(
                state,
                batch,
                step_decay=self.step_decay,
                update_mean=update_mean,
                residual="trace",
            )
        if state.rows_seen == 0:
            raise ShapeError("the batch stream was empty")
        self.model_ = state.to_model()
        return self.model_
