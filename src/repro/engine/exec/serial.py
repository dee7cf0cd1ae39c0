"""The serial executor: the task path as a plain loop on the calling thread."""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.engine.exec.base import TaskExecutor


class SerialExecutor(TaskExecutor):
    """Runs tasks in a plain left-to-right loop on the calling thread.

    The engines drive it through the same plan/run/commit path as every
    other executor; it only differs in running the tasks one after another
    here and in emitting no ``executor_*`` events.
    """

    name = "serial"
    serial = True

    def __init__(self, workers: int = 1):
        super().__init__(workers=1)

    def run_tasks(
        self,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        label: str = "tasks",
    ) -> list[Any]:
        return [fn(payload) for payload in payloads]
