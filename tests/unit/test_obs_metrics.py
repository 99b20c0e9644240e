"""Unit tests for the metrics registry and its exporters."""

import json

import pytest

from repro.core.dp_ir import DPIR
from repro.crypto.rng import SeededRandomSource
from repro.obs import MetricsRegistry, collect_scheme_metrics
from repro.storage.blocks import integer_database


class TestCounter:
    def test_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total")
        counter.inc()
        counter.inc(2)
        assert counter.value() == 3

    def test_label_order_addresses_the_same_series(self):
        counter = MetricsRegistry().counter("c")
        counter.inc(shard=1, op="read")
        counter.inc(op="read", shard=1)
        assert counter.value(shard=1, op="read") == 2

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ValueError):
            counter.inc(-1)


class TestGaugeAndHistogram:
    def test_gauge_set_overwrites(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(5, shard=0)
        gauge.set(7, shard=0)
        assert gauge.value(shard=0) == 7

    def test_histogram_summary_reuses_latency_summary(self):
        histogram = MetricsRegistry().histogram("h")
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value, op="read")
        summary = histogram.summary(op="read")
        assert summary.count == 4
        assert summary.max_ms == 4.0


class TestRegistry:
    def test_get_or_create_returns_same_metric(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("m")

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("bad name!")

    def test_collect_is_deterministic_and_json_ready(self):
        registry = MetricsRegistry()
        registry.counter("b_total").inc(shard=1)
        registry.counter("a_total").inc()
        registry.gauge("g").set(2.5)
        samples = registry.collect()
        assert [s["name"] for s in samples] == ["a_total", "b_total", "g"]
        json.dumps(registry.to_json())

    def test_prometheus_text_format(self):
        registry = MetricsRegistry()
        registry.counter("reqs_total", "Requests.").inc(3, shard=0)
        registry.histogram("lat_ms").observe(5.0)
        text = registry.to_prometheus()
        assert "# HELP reqs_total Requests." in text
        assert "# TYPE reqs_total counter" in text
        assert 'reqs_total{shard="0"} 3' in text
        assert "# TYPE lat_ms histogram" in text
        assert 'lat_ms{quantile="0.5"} 5' in text
        assert "lat_ms_count 1" in text
        assert "lat_ms_sum 5" in text
        assert text.endswith("\n")


def _unescape_label_value(raw: str) -> str:
    """Decode a Prometheus exposition label value (the client's job)."""
    out = []
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch == "\\" and i + 1 < len(raw):
            nxt = raw[i + 1]
            out.append({"\\": "\\", '"': '"', "n": "\n"}.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


class TestPrometheusEscaping:
    HOSTILE = [
        'quote " inside',
        "back\\slash",
        "line\nbreak",
        'all \\ of " it\n together',
        "trailing backslash \\",
    ]

    @pytest.mark.parametrize("value", HOSTILE, ids=repr)
    def test_hostile_label_values_round_trip(self, value):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(3, tenant=value)
        text = registry.to_prometheus()
        line = next(
            ln for ln in text.splitlines() if ln.startswith("c_total{")
        )
        # Each sample stays a single line no matter the label value...
        assert "\n" not in line
        raw = line[line.index('tenant="') + len('tenant="'):line.rindex('"')]
        # ...and a spec-compliant client recovers the exact original.
        assert _unescape_label_value(raw) == value

    def test_hostile_help_text_stays_one_line(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "help with \\ and\nnewline").inc()
        text = registry.to_prometheus()
        help_line = next(
            ln for ln in text.splitlines()
            if ln.startswith("# HELP c_total")
        )
        assert help_line == "# HELP c_total help with \\\\ and\\nnewline"

    def test_escaping_orders_backslash_first(self):
        # The classic double-escape bug: escaping quotes before
        # backslashes would turn `\"` input into `\\\"` -> `\"` -> `"`.
        registry = MetricsRegistry()
        registry.counter("c_total").inc(1, op='\\"')
        line = next(
            ln for ln in registry.to_prometheus().splitlines()
            if ln.startswith("c_total{")
        )
        assert 'op="\\\\\\""' in line


class TestCollectSchemeMetrics:
    def test_absorbs_scheme_counters(self):
        scheme = DPIR(
            integer_database(64), pad_size=8, alpha=0.1,
            rng=SeededRandomSource(7),
        )
        for index in range(10):
            scheme.query(index % 64)
        registry = MetricsRegistry()
        collect_scheme_metrics(scheme, registry)
        by_name = {
            (s["name"], tuple(sorted(s["labels"].items()))): s["value"]
            for s in registry.collect()
        }
        assert by_name[("repro_queries", ())] == 10
        assert by_name[("repro_server_reads", ())] == scheme.server.reads
        assert by_name[("repro_servers", ())] >= 1
