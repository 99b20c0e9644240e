"""Deterministic span tracer for the serving/cluster/parallel stack.

Spans form a tree: the cluster entry point opens a root span, one
child per shard leg, and storage servers attach batch events beneath
whichever leg is active.  Two design rules keep traces *deterministic*
(two seeded runs produce identical JSON, and the serial and parallel
executors produce identical span trees):

* **Ids come from counters, not clocks.** A span's id is its parent's
  id plus a per-parent child counter (``"0"``, ``"0.2"``, ``"0.2.1"``),
  allocated in *submission* order — never from ``time.time()`` or
  ``uuid``.  Spans opened inside a leg get ids beneath that leg's span,
  and :meth:`Tracer.export` sorts spans by parsed id.  Every executor
  runs a stage's legs on the caller's thread in submission order, so
  one list is the whole active-span stack.
* **Wall-clock is data, not identity.** Spans carry the simulator's
  deterministic clock in ``sim_start_ms``/``sim_end_ms`` where one
  exists, plus monotonic wall deltas measured at the edges in
  ``wall_ms``.  Determinism comparisons strip the wall fields
  (:func:`canonical_trace`); everything else is bit-stable.

The default is a shared :class:`NullTracer` whose ``span()`` returns a
singleton no-op context manager, so an uninstrumented hot path pays a
single attribute check.
"""

from __future__ import annotations

import itertools
import time
from typing import Any

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "canonical_trace",
]

#: Label values must be scalars — never pad sets, keys or plaintext
#: blocks (the ``trace-hygiene`` rule in ``tests/source_rules.py``
#: polices call sites; this guards the API itself).
_SCALAR = (bool, int, float, str, type(None))

#: Fields stripped by :func:`canonical_trace`: real elapsed time is the
#: one run-to-run nondeterministic quantity a span carries.
WALL_CLOCK_FIELDS = ("wall_ms",)


def _check_labels(labels: dict[str, Any]) -> dict[str, Any]:
    for key, value in labels.items():
        if not isinstance(value, _SCALAR):
            raise TypeError(
                f"span label {key!r} must be a scalar "
                f"(got {type(value).__name__}); trace labels carry "
                "sizes, ids and timing — never secret-derived values"
            )
    return labels


class Span:
    """One node of the trace tree.

    Mutable while open (``annotate``/``set_sim``), exported as a plain
    dict.  Child ids are allocated from the span's own counter, in the
    order the children open: legs run one after another on the caller's
    thread, so a subtree's ids depend only on the work inside it.
    """

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "labels",
        "sim_start_ms",
        "sim_end_ms",
        "wall_ms",
        "error",
        "_children",
    )

    def __init__(
        self,
        span_id: str,
        parent_id: str | None,
        name: str,
        labels: dict[str, Any],
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.labels = _check_labels(labels)
        self.sim_start_ms: float | None = None
        self.sim_end_ms: float | None = None
        self.wall_ms: float | None = None
        self.error: str | None = None
        self._children = itertools.count()

    def child_id(self) -> str:
        """Next deterministic child id, in opening order."""
        return f"{self.span_id}.{next(self._children)}"

    def annotate(self, **labels: Any) -> None:
        """Attach extra labels to an open (or just-closed) span."""
        self.labels.update(_check_labels(labels))

    def set_sim(self, start_ms: float, end_ms: float) -> None:
        """Record the deterministic simulated-clock interval."""
        self.sim_start_ms = start_ms
        self.sim_end_ms = end_ms

    def sort_key(self) -> tuple[int, ...]:
        return tuple(int(part) for part in self.span_id.split("."))

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "labels": dict(sorted(self.labels.items())),
            "sim_start_ms": self.sim_start_ms,
            "sim_end_ms": self.sim_end_ms,
            "wall_ms": self.wall_ms,
            "error": self.error,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.span_id!r}, {self.name!r}, {self.labels!r})"


class _NullSpan(Span):
    """Shared inert span handed out by a disabled tracer."""

    def __init__(self) -> None:
        super().__init__("", None, "null", {})

    def child_id(self) -> str:
        return ""

    def annotate(self, **labels: Any) -> None:
        return None

    def set_sim(self, start_ms: float, end_ms: float) -> None:
        return None


class _NullContext:
    """Reusable no-op context manager (one shared instance, no allocs)."""

    __slots__ = ()

    def __enter__(self) -> Span:
        return _NULL_SPAN

    def __exit__(self, *exc_info: object) -> bool:
        return False


class _SpanContext:
    """Context manager that opens/closes one span on its tracer's stack."""

    __slots__ = ("_tracer", "_span", "_started")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span
        self._started = 0.0

    def __enter__(self) -> Span:
        self._tracer._stack.append(self._span)
        self._started = time.perf_counter()
        return self._span

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        span = self._span
        span.wall_ms = (time.perf_counter() - self._started) * 1000.0
        if exc_type is not None and span.error is None:
            span.error = exc_type.__name__
        self._tracer._stack.pop()
        return False


class Tracer:
    """Collects spans for one run.

    ``span(name, **labels)`` opens a child of the current span
    (context-manager API); ``start_span`` allocates one without
    activating it (an event such as a storage batch).  The active spans
    are one plain list: every executor runs a stage's legs on the
    caller's thread in submission order, so spans open and close
    strictly nested.
    """

    def __init__(self, name: str = "trace", *, enabled: bool = True) -> None:
        self.name = name
        self.enabled = enabled
        self._roots = itertools.count()
        self._spans: list[Span] = []
        self._stack: list[Span] = []

    # -- span creation --------------------------------------------------

    def start_span(self, name: str, **labels: Any) -> Span:
        """Allocate a child of the current span without activating it."""
        if not self.enabled:
            return _NULL_SPAN
        stack = self._stack
        if stack:
            parent = stack[-1]
            span_id, parent_id = parent.child_id(), parent.span_id
        else:
            span_id, parent_id = str(next(self._roots)), None
        span = Span(span_id, parent_id, name, labels)
        self._spans.append(span)
        return span

    def span(self, name: str, **labels: Any) -> "_SpanContext | _NullContext":
        """Open a span as a context manager::

            with tracer.span("cluster.query", shard=3) as span:
                ...
                span.annotate(attempts=attempts)
        """
        if not self.enabled:
            return _NULL_CONTEXT
        return _SpanContext(self, self.start_span(name, **labels))

    # -- export ---------------------------------------------------------

    def spans(self) -> list[Span]:
        """All spans, sorted by id (deterministic across executors)."""
        return sorted(self._spans, key=Span.sort_key)

    def __len__(self) -> int:
        return len(self._spans)

    def export(self) -> dict[str, Any]:
        """JSON-ready trace payload (``{"version": 1, "spans": [...]}``)."""
        return {
            "version": 1,
            "name": self.name,
            "spans": [span.to_dict() for span in self.spans()],
        }


class NullTracer(Tracer):
    """The disabled default: every operation is a shared no-op.

    Instrumented call sites pay one ``enabled`` check; storage servers
    refuse to attach disabled observers, so the batched read path pays
    a single ``is not None`` test — a structural contract, held by
    ``tests/unit/test_server.py``; ``obs.enabled_overhead_x`` in
    ``BENCHMARK.json`` prices the enabled side.
    """

    def __init__(self) -> None:
        super().__init__("null", enabled=False)


#: Shared singletons — instrumentation should use these rather than
#: allocating fresh null objects.
_NULL_SPAN = _NullSpan()
_NULL_CONTEXT = _NullContext()
NULL_TRACER = NullTracer()


def canonical_trace(payload: dict[str, Any]) -> dict[str, Any]:
    """A copy of an exported trace with wall-clock fields removed.

    This is the determinism contract: two runs with the same seed (or
    the same run under the serial and parallel executors) produce
    identical ``canonical_trace`` payloads; only the stripped wall
    fields may differ.
    """
    spans = []
    for span in payload.get("spans", []):
        cleaned = {
            key: value
            for key, value in span.items()
            if key not in WALL_CLOCK_FIELDS
        }
        spans.append(cleaned)
    return {
        key: (spans if key == "spans" else value)
        for key, value in payload.items()
    }
