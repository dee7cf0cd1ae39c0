"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
letting programming errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ShapeError(ReproError, ValueError):
    """An array or matrix argument has an incompatible shape."""


class DataError(ReproError, ValueError):
    """Input data holds a value the algorithm cannot fit (NaN or inf).

    The message names the row and column of the first offending entry.
    """


class ConfigError(ReproError, ValueError):
    """A configuration value is invalid (the message names valid choices)."""


class ConvergenceError(ReproError, RuntimeError):
    """An iterative solver failed to converge within its iteration budget."""


class ContractViolationError(ShapeError):
    """A runtime shape/dtype contract on a kernel was violated.

    Subclasses :class:`ShapeError` so callers that guard kernel calls with
    ``except ShapeError`` keep working whether the contract layer or the
    kernel's own validation trips first.
    """


class CombinerAlgebraError(ReproError, AssertionError):
    """A registered combiner failed its commutativity/associativity check."""


class CheckpointError(ReproError, RuntimeError):
    """An EM checkpoint could not be saved, loaded, or resumed from."""


class PersistenceError(ReproError, RuntimeError):
    """A model archive on disk is corrupt or unreadable.

    Raised by :func:`repro.core.persistence.load_model` when the ``.npz``
    file cannot be decoded (a truncated write, a bad disk, a non-archive
    file); the message names the offending path.  Missing *fields* inside a
    well-formed archive still raise :class:`ShapeError`.
    """


class RegistryError(ReproError, RuntimeError):
    """A model-registry operation failed."""


class ModelNotFoundError(RegistryError, LookupError):
    """No registered model matches the requested name/version/tag."""


class ModelIntegrityError(RegistryError):
    """A registry artifact's content hash does not match its manifest."""


class ServeError(ReproError, RuntimeError):
    """Base class for serving-layer failures."""


class QueueFullError(ServeError):
    """The micro-batcher's request queue is at capacity (backpressure)."""


class DeadlineExceededError(ServeError):
    """A request's deadline expired before its batch was dispatched."""


class ServiceClosedError(ServeError):
    """The serving front-end has shut down and rejects new requests."""


class EngineError(ReproError, RuntimeError):
    """Base class for distributed-engine failures."""


class JobFailedError(EngineError):
    """A distributed job exhausted its task retries and was aborted."""


class DriverOutOfMemoryError(EngineError, MemoryError):
    """A driver-side allocation exceeded the configured driver memory.

    This is the failure mode the paper reports for MLlib-PCA: the D x D
    covariance matrix must fit in the memory of a single machine, and the
    algorithm fails once D exceeds a few thousand columns (Section 5.3).
    """

    def __init__(self, requested_bytes: int, limit_bytes: int, what: str = "allocation"):
        self.requested_bytes = requested_bytes
        self.limit_bytes = limit_bytes
        self.what = what
        super().__init__(
            f"driver out of memory: {what} needs {requested_bytes} bytes "
            f"but only {limit_bytes} bytes of driver memory are configured"
        )


class FileSystemError(EngineError, IOError):
    """A simulated distributed file-system operation failed."""


class InvalidPlanError(EngineError, ValueError):
    """A job or RDD lineage graph is structurally invalid."""
