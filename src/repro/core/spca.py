"""The sPCA driver: Algorithm 4 of the paper.

One driver program implements the EM control flow and executes every small
(d x d or D x d) operation locally; the data-sized computations -- meanJob
+ FnormJob (once, before the loop) and the consolidated YtXJob (each
iteration) -- are dispatched to a :class:`Backend`.  The paper's ss3 job
(Algorithm 4, line 13) is a second pass over Y per iteration; here ss3 is
``sum(C * YtX)`` on the driver (see :meth:`Backend.ss3`), so each iteration
reads the data once.  Swapping the backend switches between
sPCA-Sequential, sPCA-MapReduce and sPCA-Spark without touching this file,
which is the paper's claim that "the design is general and can be
implemented on different platforms".
"""

from __future__ import annotations

import time
from dataclasses import asdict
from typing import TYPE_CHECKING

import numpy as np

from repro.core.config import SPCAConfig, stored_config

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (backends need core)
    from repro.backends.base import Backend
from repro.core.checkpoint import (
    CheckpointPolicy,
    CheckpointStore,
    EMCheckpoint,
)
from repro.core.convergence import ConvergenceTracker, IterationStats, TrainingHistory
from repro.core.initialization import random_initialization, smart_guess_initialization
from repro.core.model import PCAModel
from repro.core.ppca import fit_ppca
from repro.errors import CheckpointError, ConfigError, ShapeError
from repro.linalg.blocks import Matrix
from repro.linalg.small import check_em_state, inverse, moment_inverse
from repro.linalg.stats import check_finite
from repro.obs import get_tracer
from repro.obs.metrics import get_registry


class SPCA:
    """Scalable PCA.

    Example:
        >>> import numpy as np
        >>> from repro.core import SPCA, SPCAConfig
        >>> rng = np.random.default_rng(0)
        >>> data = rng.normal(size=(200, 20)) @ rng.normal(size=(20, 20))
        >>> model, history = SPCA(SPCAConfig(n_components=3)).fit(data)
        >>> model.components.shape
        (20, 3)
    """

    def __init__(self, config: SPCAConfig, backend: Backend | None = None):
        from repro.backends.base import Backend
        from repro.backends.sequential import SequentialBackend

        if backend is None:
            backend = SequentialBackend(config)
        elif not isinstance(backend, Backend):
            raise ConfigError(
                "backend must be a Backend instance such as "
                f"MapReduceBackend(config), got {type(backend).__name__}: "
                f"{backend!r}"
            )
        self.config = config
        self.backend = backend

    def fit(
        self,
        data: Matrix,
        checkpoint: CheckpointPolicy | CheckpointStore | None = None,
    ) -> tuple[PCAModel, TrainingHistory]:
        """Run the EM loop of Algorithm 4 and return the model + history.

        Args:
            data: the N x D input matrix (dense or sparse).
            checkpoint: when given, model state is snapshotted to the store
                after every N-th iteration (a bare store means every
                iteration); a killed run can then continue via
                :meth:`resume` and produce the bit-identical final model.
        """
        config = self.config
        n_samples, n_features = data.shape
        self._validate_shape(n_samples, n_features)
        check_finite(data)
        tracer = get_tracer()
        with tracer.span(
            "run",
            f"spca.fit[N={n_samples},D={n_features},d={config.n_components}]",
            n_samples=n_samples,
            n_features=n_features,
            n_components=config.n_components,
            backend=type(self.backend).__name__,
        ) as run_span:
            model, history = self._fit_traced(
                data, tracer, checkpoint=self._as_policy(checkpoint)
            )
            run_span.set(
                stop_reason=history.stop_reason,
                n_iterations=history.n_iterations,
            )
        return model, history

    def resume(
        self,
        data: Matrix,
        store: CheckpointStore,
        checkpoint_every: int | None = None,
    ) -> tuple[PCAModel, TrainingHistory]:
        """Continue a checkpointed fit from the newest snapshot in *store*.

        The snapshot carries the EM rng state, the convergence tracker's
        memory, and the recorded history, so the resumed run finishes with
        exactly the model the uninterrupted run would have produced.

        Args:
            data: the same input matrix the original fit ran on.
            store: the store the original fit checkpointed into.
            checkpoint_every: continue snapshotting into *store* at this
                interval (None disables further checkpoints).

        Raises:
            CheckpointError: if the store is empty or was written under a
                different :class:`SPCAConfig`.
        """
        config = self.config
        ckpt = store.load_latest()
        if ckpt is None:
            raise CheckpointError("checkpoint store is empty; nothing to resume")
        if stored_config(ckpt.config) != asdict(config):
            raise CheckpointError(
                "checkpoint was written under a different configuration: "
                f"stored {ckpt.config!r} vs current {asdict(config)!r}"
            )
        n_samples, n_features = data.shape
        self._validate_shape(n_samples, n_features)
        check_finite(data)
        checkpoint = (
            CheckpointPolicy(store, checkpoint_every)
            if checkpoint_every is not None
            else None
        )
        tracer = get_tracer()
        with tracer.span(
            "run",
            f"spca.resume[N={n_samples},D={n_features},"
            f"d={config.n_components},from={ckpt.iteration}]",
            n_samples=n_samples,
            n_features=n_features,
            n_components=config.n_components,
            backend=type(self.backend).__name__,
            resumed_from_iteration=ckpt.iteration,
        ) as run_span:
            model, history = self._fit_traced(
                data, tracer, checkpoint=checkpoint, resume_from=ckpt
            )
            run_span.set(
                stop_reason=history.stop_reason,
                n_iterations=history.n_iterations,
            )
        return model, history

    def _validate_shape(self, n_samples: int, n_features: int) -> None:
        if self.config.n_components > min(n_samples, n_features):
            raise ShapeError(
                f"n_components={self.config.n_components} exceeds "
                f"min(N, D)={min(n_samples, n_features)}"
            )

    @staticmethod
    def _as_policy(
        checkpoint: CheckpointPolicy | CheckpointStore | None,
    ) -> CheckpointPolicy | None:
        if checkpoint is None or isinstance(checkpoint, CheckpointPolicy):
            return checkpoint
        return CheckpointPolicy(checkpoint, every=1)

    def _fit_traced(
        self,
        data: Matrix,
        tracer,
        checkpoint: CheckpointPolicy | None = None,
        resume_from: EMCheckpoint | None = None,
    ) -> tuple[PCAModel, TrainingHistory]:
        config = self.config
        n_samples, n_features = data.shape
        rng = np.random.default_rng(config.seed)
        started = time.perf_counter()
        sim_start = self.backend.simulated_seconds
        bytes_start = self.backend.intermediate_bytes

        history = TrainingHistory()
        tracker = ConvergenceTracker(
            max_iterations=config.max_iterations,
            tolerance=config.tolerance,
            target_accuracy=config.target_accuracy,
            ideal_accuracy=config.ideal_accuracy,
        )
        if resume_from is None:
            components, noise_variance = self._initialize(data, rng)
            dataset = self.backend.load(data)
            mean = self.backend.column_means(dataset)            # meanJob
            ss1 = self.backend.frobenius_centered(dataset, mean)  # FnormJob
            start_iteration = 1
            previous_ss = None
        else:
            # The data-independent preamble (initialization, meanJob,
            # FnormJob) is skipped entirely: its results and the rng draws
            # it consumed are all part of the snapshot.
            components = np.array(resume_from.components, copy=True)
            noise_variance = float(resume_from.noise_variance)
            mean = np.array(resume_from.mean, copy=True)
            ss1 = float(resume_from.ss1)
            rng = np.random.default_rng()
            rng.bit_generator.state = resume_from.rng_state
            for stats in resume_from.history:
                history.append(stats)
            tracker.restore(resume_from.iteration, resume_from.previous_error)
            dataset = self.backend.load(data)
            self.backend.charge_checkpoint(resume_from.nbytes, kind="restore")
            if tracer.enabled:
                tracer.event(
                    "checkpoint_restore",
                    iteration=resume_from.iteration,
                    bytes=resume_from.nbytes,
                )
            start_iteration = resume_from.iteration + 1
            previous_ss = noise_variance

        # Cumulative sim seconds at the previous iteration's close; the
        # per-iteration histogram records successive differences.
        previous_sim = 0.0
        for iteration in range(start_iteration, config.max_iterations + 1):
            with tracer.span(
                "iteration", f"iteration[{iteration}]", index=iteration
            ) as iter_span:
                moment_inv = moment_inverse(components, noise_variance)
                projector = components @ moment_inv           # CM = C * M^-1
                latent_mean = mean @ projector                # Xm = Ym * CM
                previous_components = components

                if config.use_job_consolidation:
                    ytx, xtx = self.backend.ytx_xtx(
                        dataset, mean, projector, latent_mean
                    )
                else:
                    # Ablation: two separate distributed passes (Figure 2
                    # before the consolidation of Figure 3).
                    _, xtx = self.backend.ytx_xtx(dataset, mean, projector, latent_mean)
                    ytx, _ = self.backend.ytx_xtx(dataset, mean, projector, latent_mean)
                xtx = xtx + n_samples * noise_variance * moment_inv
                components = ytx @ inverse(xtx)               # C = YtX / XtX
                ss2 = float(np.trace(xtx @ components.T @ components))
                ss3 = self.backend.ss3(components=components, ytx=ytx)
                noise_variance = max(
                    (ss1 + ss2 - 2.0 * ss3) / (n_samples * n_features), 1e-12
                )
                check_em_state(iteration, components, noise_variance)

                error = None
                if config.compute_error_every_iteration:
                    error = self.backend.reconstruction_error(
                        dataset, mean, components, config.error_sample_fraction, rng
                    )
                stats = IterationStats(
                    index=iteration,
                    noise_variance=noise_variance,
                    error=error,
                    accuracy=None if error is None else 1.0 - error,
                    elapsed_seconds=time.perf_counter() - started,
                    simulated_seconds=self.backend.simulated_seconds - sim_start,
                    intermediate_bytes=self.backend.intermediate_bytes - bytes_start,
                )
                history.append(stats)
                convergence_delta = (
                    None if previous_ss is None else abs(previous_ss - noise_variance)
                )
                if tracer.enabled:
                    denom = float(np.linalg.norm(previous_components))
                    subspace_delta = (
                        float(np.linalg.norm(components - previous_components)) / denom
                        if denom > 0.0
                        else float("inf")
                    )
                    iter_span.set(
                        objective=noise_variance,
                        convergence_delta=convergence_delta,
                        subspace_delta=subspace_delta,
                        error=error,
                        accuracy=stats.accuracy,
                        intermediate_bytes=stats.intermediate_bytes,
                    )
                registry = get_registry()
                if registry.enabled:
                    registry.counter("spca_em_iterations_total").inc()
                    registry.histogram("spca_iteration_sim_seconds").observe(
                        stats.simulated_seconds - previous_sim
                    )
                    registry.gauge("spca_em_iteration").set(iteration)
                    registry.gauge("spca_em_objective").set(noise_variance)
                    if convergence_delta is not None:
                        registry.gauge("spca_em_convergence_delta").set(
                            convergence_delta
                        )
                    if stats.accuracy is not None:
                        registry.gauge("spca_em_accuracy").set(stats.accuracy)
                previous_sim = stats.simulated_seconds
                previous_ss = noise_variance
                should_stop = tracker.update(error)
                if (
                    checkpoint is not None
                    and not should_stop
                    and checkpoint.due(iteration)
                ):
                    # The rng state is captured after this iteration's draws
                    # and previous_error after the tracker update, so the
                    # resumed loop replays the remaining iterations exactly.
                    snapshot = EMCheckpoint(
                        iteration=iteration,
                        components=np.array(components, copy=True),
                        noise_variance=noise_variance,
                        mean=np.array(mean, copy=True),
                        ss1=ss1,
                        previous_error=tracker.previous_error,
                        rng_state=rng.bit_generator.state,
                        history=tuple(history.iterations),
                        config=asdict(config),
                    )
                    nbytes = checkpoint.store.save(snapshot)
                    self.backend.charge_checkpoint(nbytes, kind="write")
                    if tracer.enabled:
                        tracer.event(
                            "checkpoint_write", iteration=iteration, bytes=nbytes
                        )
                if should_stop:
                    break
        history.stop_reason = tracker.stop_reason or "max_iterations"

        model = PCAModel(
            components=components,
            mean=mean,
            noise_variance=noise_variance,
            n_samples=n_samples,
        )
        return model, history

    def _initialize(
        self, data: Matrix, rng: np.random.Generator
    ) -> tuple[np.ndarray, float]:
        config = self.config
        if not config.smart_init:
            return random_initialization(data.shape[1], config.n_components, rng)

        def fit_sample(sample):
            model = fit_ppca(
                sample,
                config.n_components,
                max_iterations=config.smart_init_iterations,
                seed=config.seed,
            )
            return model.components, model.noise_variance

        return smart_guess_initialization(
            data, fit_sample, config.smart_init_fraction, rng
        )
