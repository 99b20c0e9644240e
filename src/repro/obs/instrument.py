"""Wiring helpers: attach tracer + registry to a built scheme.

``instrument_scheme`` is the one call the service layers (``serve()``,
``repro run``) make after construction: it hands the tracer to schemes
that accept one (``attach_tracer``) and attaches a
:class:`StorageObserver` to every storage server so batched
``read_many``/``write_many`` rounds emit batch-size events.

The observer is deliberately tiny: servers hold ``_obs = None`` by
default and ``attach_observer`` *refuses disabled observers*, so the
batched hot path pays exactly one ``is not None`` attribute check when
observability is off.  That contract is structural — the refusal is
tested in ``tests/unit/test_server.py``, not timed — and the cost of
switching observability *on* is ``obs.enabled_overhead_x`` in
``BENCHMARK.json``.
"""

from __future__ import annotations

from typing import Any

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = ["StorageObserver", "instrument_scheme"]


class StorageObserver:
    """Per-batch hook installed on storage servers.

    ``on_batch`` is called once per successful ``read_many`` /
    ``write_many`` round with the server id, operation and batch size —
    sizes and ids only, never slot indices (trace-hygiene).  It emits
    an event span under whichever span is active (so batches nest
    beneath their shard leg) and feeds a batch-size histogram.
    """

    __slots__ = ("_tracer", "_batch_sizes", "_rounds", "enabled")

    def __init__(
        self,
        tracer: Tracer | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self._tracer = tracer if tracer is not None else NULL_TRACER
        if registry is not None:
            self._batch_sizes = registry.histogram(
                "repro_storage_batch_size",
                "Slots per batched storage round, by operation",
            )
            self._rounds = registry.counter(
                "repro_storage_rounds_total",
                "Batched storage rounds served, by operation",
            )
        else:
            self._batch_sizes = None
            self._rounds = None
        self.enabled = bool(self._tracer.enabled or registry is not None)

    def on_batch(self, server_id: int, op: str, count: int) -> None:
        tracer = self._tracer
        if tracer.enabled:
            # Event-style span: no duration, just the batch size at
            # its position in the tree (beneath the active leg span).
            tracer.start_span(
                f"storage.{op}_many", server=server_id, batch=count,
            )
        if self._batch_sizes is not None:
            self._batch_sizes.observe(count, op=op)
            self._rounds.inc(op=op)


def instrument_scheme(
    scheme: Any,
    tracer: Tracer | None = None,
    registry: MetricsRegistry | None = None,
) -> StorageObserver:
    """Attach observability to a built scheme (duck-typed, idempotent).

    Returns the storage observer (disabled observers are refused by
    the servers, leaving the hot path untouched).  Call again after a
    ``reshard()`` to re-attach observers to freshly built servers;
    scheme-level tracers survive resharding on their own.
    """
    if tracer is not None:
        attach_tracer = getattr(scheme, "attach_tracer", None)
        if callable(attach_tracer):
            attach_tracer(tracer)
        resolved = tracer
    else:
        # Metrics-only instrumentation must not clobber a tracer the
        # scheme already carries; reuse it so batch events keep nesting
        # beneath the active leg span.
        resolved = getattr(scheme, "tracer", None) or NULL_TRACER
    observer = StorageObserver(resolved, registry)
    servers_fn = getattr(scheme, "servers", None)
    if callable(servers_fn):
        for server in servers_fn():
            attach_observer = getattr(server, "attach_observer", None)
            if callable(attach_observer):
                attach_observer(observer)
    return observer
