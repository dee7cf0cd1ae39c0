"""Configuration for sPCA runs, including per-optimization switches."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ShapeError


@dataclass(frozen=True)
class SPCAConfig:
    """All tunables of an sPCA run.

    The four ``use_*`` flags correspond one-to-one to the optimizations of
    Section 3 of the paper; disabling one reproduces the unoptimized variant
    measured in Table 3.  Disabling an optimization never changes the result
    (the paper: "our optimization ideas do not change any theoretical
    properties of PPCA"), only how much work and intermediate data the
    distributed execution produces.

    Attributes:
        n_components: number of principal components d (paper uses 50; the
            scaled-down experiments here default to 10).
        max_iterations: EM iteration budget; the paper's evaluation caps this
            at 10.
        tolerance: relative-change stop threshold on the reconstruction
            error; 0 disables it.
        target_accuracy: stop once accuracy reaches this fraction of
            ``ideal_accuracy`` (the paper uses 0.95).  Ignored when
            ``ideal_accuracy`` is None.
        ideal_accuracy: accuracy of an exact rank-d PCA on the same data; when
            provided, progress is reported as a percentage of this ideal.
        error_sample_fraction: fraction of rows sampled when estimating the
            reconstruction error (Section 5: "measuring the error only on a
            random subset of the rows").
        seed: seed for initialization and row sampling.
        use_mean_propagation: Section 3.1 -- keep Y sparse, propagate Ym.
        use_job_consolidation: Section 3.2 -- compute YtX and XtX in one job.
        use_x_recomputation: Section 3.2 -- recompute X on demand instead of
            materializing it as intermediate data.
        use_efficient_frobenius: Section 3.4 -- Algorithm 3 instead of
            Algorithm 2.
        smart_init: sPCA-SG (Section 5.2) -- warm-start C and ss by first
            fitting on a small random sample of rows.
        smart_init_fraction: fraction of rows in the warm-start sample.
        smart_init_iterations: EM iterations to spend on the sample.
        compute_error_every_iteration: set False to skip per-iteration error
            estimation (cheaper when only the final model matters).
    """

    n_components: int
    max_iterations: int = 10
    tolerance: float = 1e-3
    target_accuracy: float = 0.95
    ideal_accuracy: float | None = None
    error_sample_fraction: float = 1.0
    seed: int = 0
    use_mean_propagation: bool = True
    use_job_consolidation: bool = True
    use_x_recomputation: bool = True
    use_efficient_frobenius: bool = True
    smart_init: bool = False
    smart_init_fraction: float = 0.05
    smart_init_iterations: int = 5
    compute_error_every_iteration: bool = True

    def __post_init__(self) -> None:
        if self.n_components < 1:
            raise ShapeError(f"n_components must be >= 1, got {self.n_components}")
        if self.max_iterations < 1:
            raise ShapeError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not 0.0 < self.error_sample_fraction <= 1.0:
            raise ShapeError(
                f"error_sample_fraction must be in (0, 1], got {self.error_sample_fraction}"
            )
        if not 0.0 < self.smart_init_fraction <= 1.0:
            raise ShapeError(
                f"smart_init_fraction must be in (0, 1], got {self.smart_init_fraction}"
            )
        if self.tolerance < 0.0:
            raise ShapeError(f"tolerance must be >= 0, got {self.tolerance}")

    def unoptimized(self) -> "SPCAConfig":
        """Return a copy with every Section 3 optimization disabled."""
        return replace(
            self,
            use_mean_propagation=False,
            use_job_consolidation=False,
            use_x_recomputation=False,
            use_efficient_frobenius=False,
        )

    def with_options(self, **kwargs) -> "SPCAConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


def stored_config(stored: dict) -> dict:
    """A checkpoint's stored config, minus fields older releases wrote.

    Checkpoints written while the kernel-backend option existed carry a key
    that selected an implementation, not different math; dropping it keeps
    them resumable both through :meth:`SPCA.resume` and the CLI.
    """
    return {key: value for key, value in stored.items() if key != "kernel_backend"}


# Field names of the ablatable optimizations, for the Table 3 harness.
OPTIMIZATION_FLAGS: tuple[str, ...] = (
    "use_mean_propagation",
    "use_job_consolidation",
    "use_x_recomputation",
    "use_efficient_frobenius",
)
