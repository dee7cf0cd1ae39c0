"""The Backend interface that the sPCA driver (Algorithm 4) programs against."""

from __future__ import annotations

import abc
from typing import Any

import numpy as np

from repro.core.config import SPCAConfig
from repro.linalg.blocks import Matrix


class Backend(abc.ABC):
    """Executes the distributed jobs of Algorithm 4.

    Line 13's ss3 job does not run here: :meth:`ss3` derives ss3 on the
    driver from the YtX of the same iteration.

    The driver first calls :meth:`load` once to distribute the input matrix
    (HDFS splits / a cached RDD); every job method then receives the handle
    that ``load`` returned.  Backends honour the optimization switches in the
    :class:`SPCAConfig` they were constructed with, which lets the Table 3
    ablation harness measure each optimization in isolation.
    """

    def __init__(self, config: SPCAConfig):
        self.config = config

    @abc.abstractmethod
    def load(self, data: Matrix) -> Any:
        """Distribute the input matrix; returns an opaque dataset handle."""

    @abc.abstractmethod
    def column_means(self, dataset: Any) -> np.ndarray:
        """meanJob: the column-mean vector Ym (Algorithm 4, line 3)."""

    @abc.abstractmethod
    def frobenius_centered(self, dataset: Any, mean: np.ndarray) -> float:
        """FnormJob: ``ss1 = ||Yc||_F^2`` (Algorithm 4, line 4)."""

    @abc.abstractmethod
    def ytx_xtx(
        self,
        dataset: Any,
        mean: np.ndarray,
        projector: np.ndarray,
        latent_mean: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """YtXJob: the consolidated job computing both YtX and XtX.

        Args:
            dataset: handle from :meth:`load`.
            mean: Ym, length D.
            projector: the broadcast matrix ``CM = C * M^-1`` (D x d).
            latent_mean: ``Xm = Ym * CM`` (length d), the mean's image in
                latent space, used to center X without centering Y.

        Returns:
            (YtX, XtX): ``Yc' * X`` of shape (D, d) and ``X' * X`` of shape
            (d, d), where ``X = Yc * CM``.
        """

    def ss3(self, components: np.ndarray, ytx: np.ndarray) -> float:
        """``ss3 = sum_n X_n * C' * Yc_n'`` (Algorithm 4, line 13), no job.

        The sum equals ``sum_ij C_ij (Yc' X)_ij``, and *ytx* is the
        ``Yc' X`` the M-step has just consumed, so ss3 costs D*d flops on
        the driver instead of the paper's ss3 job, a second pass over Y.
        The driver calls this once per EM iteration, right after the
        M-step, with the iteration's new components.
        """
        return float(np.sum(components * ytx))

    @abc.abstractmethod
    def reconstruction_error(
        self,
        dataset: Any,
        mean: np.ndarray,
        components: np.ndarray,
        sample_fraction: float,
        rng: np.random.Generator,
    ) -> float:
        """Sampled relative 1-norm reconstruction error (Section 5).

        Computes ``||Yr - Xr*C' - Ym|| / ||Yr||`` over a random subset of
        rows Yr, where Xr is the least-squares projection of the centered
        rows onto the subspace spanned by C.
        """

    # -- checkpointing ---------------------------------------------------

    def charge_checkpoint(self, nbytes: int, kind: str = "write") -> None:
        """Charge one checkpoint round trip to the platform's accounting.

        *kind* is ``"write"`` (periodic snapshot) or ``"restore"`` (resume
        reading the newest snapshot back).  Local backends store state for
        free; distributed backends charge the HDFS traffic and disk time.
        """

    # -- metrics ---------------------------------------------------------

    @property
    def simulated_seconds(self) -> float:
        """Cumulative simulated cluster seconds (0 for local backends)."""
        return 0.0

    @property
    def intermediate_bytes(self) -> int:
        """Cumulative intermediate data produced by all jobs so far."""
        return 0

    def reset_metrics(self) -> None:
        """Zero the cumulative counters (between benchmark runs)."""
