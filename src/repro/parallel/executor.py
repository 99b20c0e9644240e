"""The ``fan_out`` contract and its two executors.

An :class:`Executor` runs a *stage*: a list of independent thunks
("legs"), one per shard group / replica / server.  Every executor runs
the legs the same way — on the caller's thread, one after another, in
submission order — and differs only in how it *prices* the stage.  The
contract:

* **Ordering** — legs run, and their results come back, in submission
  order, so the sequence of mechanism draws is the same under every
  executor.
* **Per-task fault capture** — a leg that raises is recorded in its
  :class:`TaskResult` instead of aborting sibling legs, so the caller
  can fail over leg-by-leg (the cluster's replica failover needs the
  healthy shards' answers even when one shard is exhausted).
* **Per-task timing** — each result carries the leg's measured
  wall-clock milliseconds.
* **Stage cost** — :meth:`Executor.stage_cost` turns per-leg costs into
  the stage's accounted cost: a serial stage is the *sum* of its legs,
  a parallel stage is the *max* over its legs plus a fixed dispatch
  overhead — what the stage would cost with every leg on its own
  server, racing the others.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

Task = Callable[[], Any]


@dataclass
class TaskResult:
    """One leg's outcome: a value or a captured exception, plus timing.

    Attributes:
        index: the leg's position in the submitted stage.
        value: what the task returned (``None`` if it raised).
        error: the exception the task raised, if any.
        elapsed_ms: measured wall-clock duration of the task body.
    """

    index: int
    value: Any = None
    error: BaseException | None = None
    elapsed_ms: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether the leg completed without raising."""
        return self.error is None

    def unwrap(self) -> Any:
        """The task's value, re-raising its exception if it failed."""
        if self.error is not None:
            raise self.error
        return self.value


def _run_task(index: int, task: Task) -> TaskResult:
    started = time.perf_counter()
    try:
        value = task()
    except Exception as exc:  # noqa: BLE001 — per-task capture is the contract
        return TaskResult(
            index=index, error=exc,
            elapsed_ms=(time.perf_counter() - started) * 1000.0,
        )
    return TaskResult(
        index=index, value=value,
        elapsed_ms=(time.perf_counter() - started) * 1000.0,
    )


class Executor(abc.ABC):
    """How a stage of independent legs executes and is accounted.

    Attributes:
        name: the spelling ``resolve_executor`` accepts and reports show.
        concurrent: whether stage cost overlaps (max) or serializes (sum).
        dispatch_overhead_ms: fixed per-stage cost a concurrent executor
            adds on top of its slowest leg (coordination is not free).
    """

    name: str = "executor"
    concurrent: bool = False
    dispatch_overhead_ms: float = 0.0

    @abc.abstractmethod
    def fan_out(self, tasks: Sequence[Task]) -> list[TaskResult]:
        """Run every task in submission order; one result per task."""

    def stage_cost(self, leg_costs: Sequence[float]) -> float:
        """Accounted cost of one stage given its per-leg costs.

        The unit is the caller's (op-units or milliseconds); the
        combination rule is the executor's: sum for serial execution,
        ``max + dispatch_overhead_ms`` for overlapped legs.
        """
        legs = [float(cost) for cost in leg_costs]
        for cost in legs:
            if cost < 0:
                raise ValueError(f"leg cost must be non-negative, got {cost}")
        if not legs:
            return 0.0
        if self.concurrent and len(legs) > 1:
            return max(legs) + self.dispatch_overhead_ms
        return sum(legs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class SerialExecutor(Executor):
    """One leg after another, priced as the sum of the legs — the
    baseline every other pricing is compared with."""

    name = "serial"
    concurrent = False

    def fan_out(self, tasks: Sequence[Task]) -> list[TaskResult]:
        return [_run_task(index, task) for index, task in enumerate(tasks)]


class ParallelExecutor(SerialExecutor):
    """The same in-order run, priced as racing legs: a stage costs its
    slowest leg plus ``dispatch_overhead_ms``.

    Execution is bit-identical to :class:`SerialExecutor` (same order,
    same draws, same budgets); only :meth:`stage_cost` differs, modelling
    a deployment whose legs reach separate servers at once.
    """

    name = "parallel"
    concurrent = True

    def __init__(self, dispatch_overhead_ms: float = 0.0) -> None:
        if dispatch_overhead_ms < 0:
            raise ValueError(
                f"dispatch overhead must be non-negative, "
                f"got {dispatch_overhead_ms}"
            )
        self.dispatch_overhead_ms = dispatch_overhead_ms


_EXECUTORS: dict[str, Callable[[], Executor]] = {
    "serial": SerialExecutor,
    "parallel": ParallelExecutor,
}


def resolve_executor(executor: Executor | str | None) -> Executor:
    """Map a name (``serial``/``parallel``) to an executor.

    ``None`` keeps the serial default; an :class:`Executor` instance
    passes through unchanged.
    """
    if executor is None:
        return SerialExecutor()
    if isinstance(executor, Executor):
        return executor
    try:
        factory = _EXECUTORS[executor.strip().lower()]
    except (KeyError, AttributeError):
        known = ", ".join(sorted(_EXECUTORS))
        raise ValueError(
            f"unknown executor {executor!r}; expected one of {known} "
            "or an Executor instance"
        ) from None
    return factory()
