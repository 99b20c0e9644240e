"""``repro.obs`` — deterministic observability for the whole stack.

Three pieces, one import surface:

* :class:`Tracer` / :class:`NullTracer` — span trees with
  counter-derived ids (no clocks, no uuids), executor-invariant and
  seed-deterministic modulo wall-clock fields.
* :class:`MetricsRegistry` — counters / gauges / histograms with JSON
  and Prometheus-text exporters, absorbing the scattered counter
  surfaces via :func:`collect_scheme_metrics`.
* :class:`BudgetTimeline` — exact-Fraction ε spend events emitted by
  the ledgers, with first-cap-crossing detection for ``repro audit``.

Plus the wiring: :func:`instrument_scheme` (attach to a built scheme)
and :func:`trace_summary` (per-round critical paths from a span tree).

PR 8 adds the *active* layer on top of that passive one:

* :class:`LeakageMonitor` / :func:`watch_scheme` — streaming
  membership and shard-routing attackers scored against the ε-implied
  success ceiling, tripping live when a scheme leaks more than it
  claims.
* :func:`evaluate_slo` — multi-window ε burn-rate alerting (SRE
  fast/slow windows) over a :class:`BudgetTimeline`.
* :func:`diff_traces` — structural trace regression gate over
  :func:`canonical_trace` payloads.
* :func:`trace_profile` — per-phase/per-operator self-vs-child cost
  attribution with critical-path share.
"""

from repro.obs.diff import TraceDiff, diff_traces
from repro.obs.instrument import StorageObserver, instrument_scheme
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    collect_scheme_metrics,
)
from repro.obs.monitor import (
    LeakageMonitor,
    LeakageReport,
    MembershipMonitor,
    RoutingMonitor,
    default_monitors,
    watch_scheme,
)
from repro.obs.profile import profile_to_text, trace_profile
from repro.obs.slo import BurnRateAlert, SLOPolicy, SLOReport, evaluate_slo
from repro.obs.summary import (
    DEFAULT_STRAGGLER_THRESHOLD,
    summary_to_text,
    trace_summary,
)
from repro.obs.timeline import BudgetTimeline, SpendEvent
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    canonical_trace,
)

__all__ = [
    "DEFAULT_STRAGGLER_THRESHOLD",
    "NULL_TRACER",
    "BudgetTimeline",
    "BurnRateAlert",
    "Counter",
    "Gauge",
    "Histogram",
    "LeakageMonitor",
    "LeakageReport",
    "MembershipMonitor",
    "MetricsRegistry",
    "NullTracer",
    "RoutingMonitor",
    "SLOPolicy",
    "SLOReport",
    "Span",
    "SpendEvent",
    "StorageObserver",
    "TraceDiff",
    "Tracer",
    "canonical_trace",
    "collect_scheme_metrics",
    "default_monitors",
    "diff_traces",
    "evaluate_slo",
    "instrument_scheme",
    "profile_to_text",
    "summary_to_text",
    "trace_profile",
    "trace_summary",
    "watch_scheme",
]
