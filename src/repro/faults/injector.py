"""Pluggable fault injectors the engines consult at their failure points.

Both engine simulators already had one failure point each: a coin flip per
task attempt.  The :class:`FaultInjector` protocol generalizes it into three
hooks the engines call:

- :meth:`FaultInjector.begin_job` as a job/stage starts -- returns
  stage-level directives (executor losses, driver-memory caps);
- :meth:`FaultInjector.time_factor` after an attempt ran -- a straggler
  multiplier applied to the attempt's measured compute time;
- :meth:`FaultInjector.fail` after an attempt ran -- ``None`` to commit the
  attempt, or a short fault label to discard it and retry.

:class:`RandomFaults` reproduces the historical ``failure_rate``/``seed``
behaviour bit-for-bit: it draws exactly one ``random()`` from a
``numpy`` PCG64 generator per ``fail`` call, in the same order the old
inline code drew it, so a pre-existing seed replays the exact same failure
sequence.  :class:`PlannedFaults` replays a :class:`~repro.faults.plan.FaultPlan`
deterministically with no randomness at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase

import numpy as np

from repro.errors import InvalidPlanError
from repro.faults.plan import (
    DriverMemoryCap,
    ExecutorLoss,
    FaultPlan,
    FetchFailure,
    KillTask,
    Straggler,
)


@dataclass(frozen=True)
class FaultSite:
    """Coordinates of one task attempt, as seen by an engine's retry loop.

    Attributes:
        engine: ``"mapreduce"`` or ``"spark"``.
        job: the running job/stage name.
        kind: ``"map"``/``"combine"``/``"reduce"`` on MapReduce, ``"task"``
            on Spark.
        task_id: task (partition) index within the job.
        attempt: 1-based attempt number.
    """

    engine: str
    job: str
    kind: str
    task_id: int
    attempt: int


@dataclass(frozen=True)
class StageDirectives:
    """Stage-level faults an injector requests as a job begins."""

    executor_losses: tuple[int, ...] = ()
    driver_memory_cap: int | None = None


NO_DIRECTIVES = StageDirectives()


class FaultInjector:
    """Base injector: never fails anything."""

    def begin_job(self, engine: str, job: str) -> StageDirectives:
        """Called once per job/stage start; returns stage-level directives."""
        return NO_DIRECTIVES

    def fail(self, site: FaultSite) -> str | None:
        """Label of the fault striking this attempt, or None to succeed."""
        return None

    def time_factor(self, site: FaultSite) -> float:
        """Multiplier applied to the attempt's measured compute seconds."""
        return 1.0

    def plan_task(
        self, site: FaultSite, max_attempts: int
    ) -> list[tuple[float, str | None]]:
        """Precompute this task's injection decisions for every attempt.

        Returns one ``(time_factor, fail_label)`` entry per attempt, ending
        either with the first successful attempt (label ``None``) or after
        ``max_attempts`` failures.  The hooks are consulted in a fixed
        order -- ``time_factor`` then ``fail``, attempt by attempt, and the
        engines plan all of a stage's tasks in ascending task-index order
        before running any -- so :class:`RandomFaults` consumes the
        identical generator stream and every executor replays the identical
        fault sequence.  (:class:`PlannedFaults` is stateless inside a job,
        so its plans are order-independent outright.)

        ``site.attempt`` is ignored; the per-attempt sites are derived here.
        """
        plan: list[tuple[float, str | None]] = []
        for attempt in range(1, max_attempts + 1):
            attempt_site = FaultSite(
                site.engine, site.job, site.kind, site.task_id, attempt
            )
            factor = self.time_factor(attempt_site)
            label = self.fail(attempt_site)
            plan.append((factor, label))
            if label is None:
                break
        return plan


class RandomFaults(FaultInjector):
    """The historical i.i.d. coin-flip failure model, now as a plan.

    Bit-compatible with the pre-plan engines: one generator draw per
    ``fail`` call (even at rate 0, exactly as the inline code drew), no
    draws anywhere else.
    """

    def __init__(self, rate: float = 0.0, seed: int = 0):
        if not 0.0 <= rate < 1.0:
            raise InvalidPlanError(f"failure_rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def fail(self, site: FaultSite) -> str | None:
        if self._rng.random() >= self.rate:
            return None
        return "random"


class PlannedFaults(FaultInjector):
    """Deterministic replay of a :class:`FaultPlan`.

    Each event keeps its own occurrence counter: the Nth job whose name
    matches the event's pattern is the event's occurrence N (0-based), so
    "kill YtXJob's second run" is expressible regardless of what other jobs
    execute around it.
    """

    def __init__(self, plan: FaultPlan):
        plan.validate()
        self.plan = plan
        self._match_counts: dict[int, int] = {}
        self._active: tuple = ()

    def begin_job(self, engine: str, job: str) -> StageDirectives:
        active = []
        losses: list[int] = []
        cap: int | None = None
        for index, event in enumerate(self.plan.events):
            if not fnmatchcase(job, event.job):
                continue
            seen = self._match_counts.get(index, 0)
            self._match_counts[index] = seen + 1
            if event.occurrence is not None and event.occurrence != seen:
                continue
            if isinstance(event, ExecutorLoss):
                if engine == "spark":
                    losses.append(event.executor)
            elif isinstance(event, DriverMemoryCap):
                if engine == "spark":
                    cap = event.limit_bytes if cap is None else min(cap, event.limit_bytes)
            else:
                active.append(event)
        self._active = tuple(active)
        return StageDirectives(tuple(losses), cap)

    def fail(self, site: FaultSite) -> str | None:
        for event in self._active:
            if isinstance(event, KillTask):
                if self._matches_task(event, site) and site.attempt <= event.attempts:
                    return "kill_task"
            elif isinstance(event, FetchFailure):
                if self._matches_fetch(event, site) and site.attempt <= event.attempts:
                    return "fetch_failure"
        return None

    def time_factor(self, site: FaultSite) -> float:
        factor = 1.0
        for event in self._active:
            if isinstance(event, Straggler) and self._matches_task(event, site):
                factor *= event.factor
        return factor

    @staticmethod
    def _matches_task(event, site: FaultSite) -> bool:
        if event.kind is not None and event.kind != site.kind:
            return False
        return event.task is None or event.task == site.task_id

    @staticmethod
    def _matches_fetch(event: FetchFailure, site: FaultSite) -> bool:
        # A fetch failure strikes the consumer of remote data: the reduce
        # side on MapReduce, any task on Spark (which reads shuffle/cache
        # blocks remotely).
        if site.engine == "mapreduce" and site.kind != "reduce":
            return False
        return event.task is None or event.task == site.task_id
