"""Tracing :class:`~repro.parallel.executor.Executor` wrapper.

Wraps any executor so each fanned-out leg gets its own span, while
preserving the executor contract exactly: results in submission order,
per-leg fault capture, ``stage_cost`` delegated to the inner policy.

Leg spans are pre-created in submission order (so their ids are fixed
before any leg runs), then activated while the leg runs so spans opened
inside it — e.g. a storage server's batch events — parent beneath it.
Each leg span is stamped with its timing and error once the stage
returns.  Serial and parallel executors therefore emit identical trees;
only the ``wall_ms`` timing fields differ.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from repro.obs.tracer import Span, Tracer
from repro.parallel.executor import Executor, TaskResult

__all__ = ["TracingExecutor"]


class TracingExecutor(Executor):
    """Delegating executor that wraps each leg in a span.

    ``fan_out`` accepts two extra keyword arguments over the base
    contract: ``name`` (the leg spans' name, default ``"leg"``) and
    ``leg_labels`` (one label mapping per task, e.g.
    ``[{"shard": 0}, {"shard": 2}]``).  With the tracer disabled the
    wrapper short-circuits straight to the inner executor.
    """

    def __init__(
        self,
        inner: Executor,
        tracer: Tracer,
        *,
        leg_name: str = "leg",
    ) -> None:
        self._inner = inner
        self._tracer = tracer
        self._leg_name = leg_name
        self.name = inner.name
        self.concurrent = inner.concurrent
        self.dispatch_overhead_ms = inner.dispatch_overhead_ms

    @property
    def inner(self) -> Executor:
        return self._inner

    def fan_out(
        self,
        tasks: Sequence[Callable[[], Any]],
        *,
        name: str | None = None,
        leg_labels: Sequence[Mapping[str, Any]] | None = None,
    ) -> list[TaskResult]:
        tracer = self._tracer
        if not tracer.enabled or not tasks:
            return self._inner.fan_out(tasks)
        if leg_labels is not None and len(leg_labels) != len(tasks):
            raise ValueError(
                f"got {len(leg_labels)} leg label sets for "
                f"{len(tasks)} tasks"
            )
        parent = tracer.current_span()
        spans: list[Span] = []
        for position in range(len(tasks)):
            labels = (
                dict(leg_labels[position]) if leg_labels is not None
                else {"leg": position}
            )
            spans.append(tracer.start_span(
                name if name is not None else self._leg_name,
                parent=parent,
                **labels,
            ))
        results = self._inner.fan_out([
            self._bind(task, span) for task, span in zip(tasks, spans)
        ])
        for span, result in zip(spans, results):
            span.wall_ms = result.elapsed_ms
            if result.error is not None and span.error is None:
                span.error = type(result.error).__name__
        return results

    def _bind(
        self, task: Callable[[], Any], span: Span
    ) -> Callable[[], Any]:
        tracer = self._tracer

        def traced() -> Any:
            with tracer.activate(span):
                return task()

        return traced

    def stage_cost(self, leg_costs: Sequence[float]) -> float:
        return self._inner.stage_cost(leg_costs)
