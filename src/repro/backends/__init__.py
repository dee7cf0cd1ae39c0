"""Execution backends for the sPCA driver.

A backend owns the distributed (or local) execution of the handful of jobs
Algorithm 4 marks in bold: ``meanJob``, ``FnormJob``, the consolidated
``YtXJob``, and the sampled reconstruction-error job.  Algorithm 4's
ss3 job is not run: ``Backend.ss3`` takes ss3 from the iteration's YtX
on the driver.  Three implementations are provided:

- :class:`repro.backends.sequential.SequentialBackend` -- plain NumPy/SciPy,
  the correctness reference and the right choice for data that fits in
  memory.
- :class:`repro.backends.mapreduce.MapReduceBackend` -- runs each job on the
  simulated Hadoop/MapReduce engine (sPCA-MapReduce in the paper).
- :class:`repro.backends.spark.SparkBackend` -- runs each job on the
  simulated Spark engine using broadcasts and accumulators (sPCA-Spark).
"""

from repro.backends.base import Backend
from repro.backends.sequential import SequentialBackend

__all__ = ["Backend", "SequentialBackend"]


def __getattr__(name: str):
    # Lazy imports keep `repro.backends` importable without pulling in the
    # engine packages for sequential-only users.
    if name == "MapReduceBackend":
        from repro.backends.mapreduce import MapReduceBackend

        return MapReduceBackend
    if name == "SparkBackend":
        from repro.backends.spark import SparkBackend

        return SparkBackend
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
