"""Metrics registry: counters, gauges and histograms with exporters.

One :class:`MetricsRegistry` absorbs the stack's scattered counter
surfaces (`StorageServer` read/write counters, `fault_counters()`,
scheme query/error counters, cluster budgets) behind a single
``collect()`` with JSON and Prometheus-text exporters.  Histograms
reuse :class:`~repro.simulation.metrics.LatencySummary` /
:func:`~repro.simulation.metrics.percentile_map` so tail accounting is
identical to the serving reports.

Label discipline mirrors the tracer: values are stringified scalars —
sizes, shard/server ids, fault kinds — never secret-derived data (the
``trace-hygiene`` rule in ``tests/source_rules.py`` polices call sites).
"""

from __future__ import annotations

import re
from typing import Any, Iterable, Mapping

from repro.simulation.metrics import (
    DEFAULT_PERCENTILES,
    LatencySummary,
    percentile_map,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "collect_scheme_metrics",
]

_NAME_PATTERN = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Label sets are keyed by their sorted ``(key, value)`` pairs so the
#: same labels in any order address the same series.
_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any]) -> _LabelKey:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


def _escape_label_value(value: str) -> str:
    """Exposition-format label escaping: ``\\`` then ``"`` then newline.

    Backslash first so already-escaped output is never double-mangled;
    format 0.0.4 requires all three (a raw newline would end the sample
    line mid-label and corrupt the whole scrape).
    """
    return (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _escape_help(value: str) -> str:
    """HELP-line escaping: backslash and newline (quotes stay literal)."""
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(key: _LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in key
    )
    return "{" + inner + "}"


class _Metric:
    """Shared naming/series plumbing for the three metric kinds."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        if not _NAME_PATTERN.match(name):
            raise ValueError(
                f"invalid metric name {name!r} "
                "(want [a-zA-Z_:][a-zA-Z0-9_:]*)"
            )
        self.name = name
        self.help = help

    def _series(self) -> Iterable[tuple[_LabelKey, Any]]:
        raise NotImplementedError


class Counter(_Metric):
    """Monotonically increasing count (``inc`` only)."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: dict[_LabelKey, float] = {}

    def inc(self, amount: float = 1, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0)

    def _series(self) -> Iterable[tuple[_LabelKey, float]]:
        return sorted(self._values.items())


class Gauge(_Metric):
    """Point-in-time value (``set``; snapshots of existing counters)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: dict[_LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        self._values[_label_key(labels)] = value

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0)

    def _series(self) -> Iterable[tuple[_LabelKey, float]]:
        return sorted(self._values.items())


class Histogram(_Metric):
    """Sample distribution, summarized via :class:`LatencySummary`."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._samples: dict[_LabelKey, list[float]] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        self._samples.setdefault(key, []).append(value)

    def summary(self, **labels: Any) -> LatencySummary:
        sample = list(self._samples.get(_label_key(labels), ()))
        return LatencySummary.from_values(sample)

    def _series(self) -> Iterable[tuple[_LabelKey, dict[str, float]]]:
        snapshot = {key: list(vals) for key, vals in self._samples.items()}
        rendered = []
        for key, sample in sorted(snapshot.items()):
            stats = {
                "count": float(len(sample)),
                "sum": float(sum(sample)),
            }
            stats.update(percentile_map(sample, DEFAULT_PERCENTILES))
            stats["mean"] = stats["sum"] / stats["count"] if sample else 0.0
            stats["max"] = max(sample) if sample else 0.0
            rendered.append((key, stats))
        return rendered


class MetricsRegistry:
    """Get-or-create metric store with deterministic exporters."""

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}

    def _get(self, cls: type, name: str, help: str) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{metric.kind}, not {cls.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get(Histogram, name, help)

    def collect(self) -> list[dict[str, Any]]:
        """Every series of every metric, deterministically ordered."""
        metrics = sorted(self._metrics.items())
        samples: list[dict[str, Any]] = []
        for name, metric in metrics:
            for key, value in metric._series():
                samples.append({
                    "name": name,
                    "type": metric.kind,
                    "labels": dict(key),
                    "value": value,
                })
        return samples

    def to_json(self) -> dict[str, Any]:
        return {"version": 1, "metrics": self.collect()}

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (0.0.4)."""
        metrics = sorted(self._metrics.items())
        lines: list[str] = []
        for name, metric in metrics:
            if metric.help:
                lines.append(f"# HELP {name} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {name} {metric.kind}")
            for key, value in metric._series():
                if isinstance(value, dict):
                    # Histograms export as Prometheus summaries:
                    # quantile series plus _count/_sum.
                    for label, stat in value.items():
                        if not label.startswith("p"):
                            continue
                        quantile = float(label[1:]) / 100.0
                        qkey = key + (("quantile", f"{quantile:g}"),)
                        lines.append(
                            f"{name}{_render_labels(qkey)} {stat:g}"
                        )
                    lines.append(
                        f"{name}_count{_render_labels(key)} "
                        f"{value['count']:g}"
                    )
                    lines.append(
                        f"{name}_sum{_render_labels(key)} {value['sum']:g}"
                    )
                else:
                    lines.append(f"{name}{_render_labels(key)} {value:g}")
        return "\n".join(lines) + "\n"


def collect_scheme_metrics(
    scheme: Any,
    registry: MetricsRegistry,
    *,
    prefix: str = "repro",
) -> None:
    """Absorb a scheme's scattered counter surfaces into ``registry``.

    Snapshots server read/write totals, fault counters (per-slot and
    per-round kinds stay distinguishable via the ``kind`` label),
    scheme-level query/error counters and — where the scheme carries a
    ledger — the privacy budget, as gauges.  Works for single schemes,
    ``ClusterIR``/``ClusterKVS`` and fault-wrapped servers alike via
    duck typing.
    """
    from repro.storage.faults import scheme_fault_counters

    servers = []
    servers_fn = getattr(scheme, "servers", None)
    if callable(servers_fn):
        try:
            servers = list(servers_fn())
        except TypeError:
            servers = []
    if servers:
        reads = sum(getattr(server, "reads", 0) for server in servers)
        writes = sum(getattr(server, "writes", 0) for server in servers)
        registry.gauge(
            f"{prefix}_server_reads",
            "Slot reads served, summed over all storage servers",
        ).set(reads)
        registry.gauge(
            f"{prefix}_server_writes",
            "Slot writes served, summed over all storage servers",
        ).set(writes)
        registry.gauge(
            f"{prefix}_servers",
            "Storage servers behind the scheme",
        ).set(len(servers))

    faults = scheme_fault_counters(scheme)
    if faults:
        fault_gauge = registry.gauge(
            f"{prefix}_faults",
            "Injected fault events by kind "
            "(per-slot coins vs per-round coins stay distinct kinds)",
        )
        for kind, count in sorted(faults.items()):
            fault_gauge.set(count, kind=kind)

    for attr, metric_name, help_text in (
        ("query_count", f"{prefix}_queries", "Queries answered"),
        ("error_count", f"{prefix}_query_errors", "α-error events"),
        ("failovers", f"{prefix}_failovers", "Replica failovers"),
    ):
        value = getattr(scheme, attr, None)
        if isinstance(value, int):
            registry.gauge(metric_name, help_text).set(value)

    ledger = getattr(scheme, "ledger", None)
    report_fn = getattr(ledger, "report", None)
    if callable(report_fn):
        budget = report_fn()
        epsilon_gauge = registry.gauge(
            f"{prefix}_epsilon_spent",
            "Privacy budget spent (float image of the exact Fraction)",
        )
        if hasattr(budget, "worst_shard_epsilon"):
            epsilon_gauge.set(budget.worst_shard_epsilon, scope="worst_shard")
            epsilon_gauge.set(budget.colluding_epsilon, scope="colluding")
            registry.gauge(
                f"{prefix}_budget_epochs",
                "Reshard epochs composed into the lifetime budget",
            ).set(budget.epochs)
        elif hasattr(budget, "basic_epsilon"):
            epsilon_gauge.set(budget.basic_epsilon, scope="basic")
