"""The Backend interface that the sPCA driver (Algorithm 4) programs against."""

from __future__ import annotations

import abc
import contextlib
from typing import Any, ContextManager

import numpy as np

from repro.core.config import SPCAConfig
from repro.errors import InvalidPlanError
from repro.jobs import specs
from repro.linalg import small
from repro.linalg.blocks import Matrix


class Backend(abc.ABC):
    """Executes the distributed jobs of Algorithm 4.

    Each job is a :class:`~repro.jobs.specs.JobSpec`; the job methods below
    are written once, over the engine's lowering (:meth:`_run` and
    :meth:`_latent`).  Line 13's ss3 job does not run here: :meth:`ss3`
    derives ss3 on the driver from the YtX of the same iteration.

    The driver first calls :meth:`load` once to distribute the input matrix
    (HDFS splits / a cached RDD); every job method then receives the handle
    that ``load`` returned.  This class is the one reader of the four
    Section 3 switches of the :class:`SPCAConfig`, which lets the Table 3
    ablation harness measure each optimization in isolation.
    """

    def __init__(self, config: SPCAConfig):
        self.config = config

    @abc.abstractmethod
    def load(self, data: Matrix) -> Any:
        """Distribute the input matrix; returns an opaque dataset handle."""

    # -- the engine's lowering ---------------------------------------------

    @abc.abstractmethod
    def _run(self, spec: specs.JobSpec, dataset: Any, params: dict) -> dict:
        """Run *spec* as one job over *dataset*; its summed parts by name.

        *params* is what :meth:`_ship` returned for the job's parameters.
        """

    @abc.abstractmethod
    def _latent(self, dataset: Any, params: dict) -> ContextManager[Any]:
        """XJob, the materialized-X ablation: write X once, and yield a
        dataset whose records pair each Y block with its X block.  X is
        released when the context exits."""

    def _ship(self, params: dict) -> dict:
        """Ship a job's parameters to the workers (Spark broadcasts them)."""
        return params

    @property
    def _engine(self) -> Any:
        """The runtime or context charged for the jobs; None when local."""
        return None

    def _job(self, spec: specs.JobSpec, dataset: Any, params: dict) -> Any:
        return spec.finish(self._run(spec, dataset, self._ship(params)), params)

    # -- the jobs of Algorithm 4 ----------------------------------------------

    def column_means(self, dataset: Any) -> np.ndarray:
        """meanJob: the column-mean vector Ym (Algorithm 4, line 3)."""
        return self._job(specs.MEAN, dataset, {})

    def frobenius_centered(self, dataset: Any, mean: np.ndarray) -> float:
        """FnormJob: ``ss1 = ||Yc||_F^2`` (Algorithm 4, line 4)."""
        return self._job(
            specs.FNORM, dataset,
            {"mean": mean, "efficient": self.config.use_efficient_frobenius},
        )

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

        With ``use_job_consolidation=False`` YtX and XtX take a pass each
        (Figure 2 before the consolidation of Figure 3); with
        ``use_x_recomputation=False`` X is written once and both passes
        read it back.
        """
        config = self.config
        params = {
            "projector": projector,
            "mean": mean,
            "latent_mean": latent_mean,
            "mean_propagation": config.use_mean_propagation,
        }
        shipped = self._ship(params)
        source = (
            contextlib.nullcontext(dataset)
            if config.use_x_recomputation
            else self._latent(dataset, shipped)
        )
        with source as records:
            for _ in range(1 if config.use_job_consolidation else 2):
                parts = self._run(specs.YTX, records, shipped)
        return specs.YTX.finish(parts, params)

    def ss3(self, components: np.ndarray, ytx: np.ndarray) -> float:
        """``ss3 = sum_n X_n * C' * Yc_n'`` (Algorithm 4, line 13), no job.

        The sum equals ``sum_ij C_ij (Yc' X)_ij``, and *ytx* is the
        ``Yc' X`` the M-step has just consumed, so ss3 costs D*d flops on
        the driver instead of the paper's ss3 job, a second pass over Y.
        The driver calls this once per EM iteration, right after the
        M-step, with the iteration's new components.
        """
        return float(np.sum(components * ytx))

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
        rows onto the subspace spanned by C.  *rng* is drawn once, for the
        seed every record samples its rows with.
        """
        return self._job(
            specs.ERROR,
            dataset,
            {
                "components": components,
                "ls_projector": small.ls_projector(components),
                "mean": mean,
                "sample_fraction": sample_fraction,
                "seed": int(rng.integers(2**31)),
                "mean_propagation": self.config.use_mean_propagation,
            },
        )

    # -- checkpointing ---------------------------------------------------

    def charge_checkpoint(self, nbytes: int, kind: str = "write") -> None:
        """Charge one checkpoint round trip to the platform's accounting.

        *kind* is ``"write"`` (periodic snapshot) or ``"restore"`` (resume
        reading the newest snapshot back).  Local backends store state for
        free; distributed backends charge the HDFS traffic and disk time.
        """
        engine = self._engine
        if engine is None:
            return
        from repro.engine.metrics import JobStats
        from repro.obs import record_job_stats

        stats = JobStats(name="checkpointJob")
        if kind == "write":
            stats.hdfs_write_bytes = nbytes
        else:
            stats.hdfs_read_bytes = nbytes
        stats.sim_seconds = engine.cost_model.disk_seconds(nbytes)
        record_job_stats(engine.metrics, stats, phase_name=f"checkpoint {kind}")

    # -- metrics ---------------------------------------------------------

    @property
    def simulated_seconds(self) -> float:
        """Cumulative simulated cluster seconds (0 for local backends)."""
        engine = self._engine
        if engine is None:
            return 0.0
        return sum(job.sim_seconds for job in specs.algorithm_jobs(engine.metrics.jobs))

    @property
    def intermediate_bytes(self) -> int:
        """Cumulative intermediate data produced by all jobs so far."""
        engine = self._engine
        if engine is None:
            return 0
        return sum(
            job.intermediate_bytes for job in specs.algorithm_jobs(engine.metrics.jobs)
        )

    def reset_metrics(self) -> None:
        """Zero the cumulative counters (between benchmark runs)."""
        if self._engine is not None:
            self._engine.metrics.reset()


def check_records_per(name: str, value: int) -> int:
    """Validate a records-per-split (or per-partition) setting."""
    if value < 1:
        raise InvalidPlanError(f"{name} must be >= 1, got {value}")
    return value
