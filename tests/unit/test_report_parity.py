"""Text/JSON report parity: ``to_dict`` is the single source of truth.

The ``--json`` exports used to omit fields the text tables showed;
these tests pin the fix — ``to_rows``/``to_text`` render *from* the
``to_dict`` mapping, so injecting a sentinel dict must change the text,
and every figure the table shows must exist in the JSON view.  The run
record goes the other way too: every figure in its dict is in its text.
"""

import copy

import pytest

from cluster_run import cluster_run
from repro.serving import ServingConfig, serve


def _run_serving():
    return serve("batch_dp_ir", ServingConfig(
        clients=3, requests_per_client=4, n=64, seed=11,
    ))


def _run_cluster():
    # Priced, monitored and faulted, so no section of the record is empty.
    return cluster_run(
        shard_count=2, replica_count=2, n=64, requests=12, seed=11,
        pad_size=8, monitor=True, failure_rate=0.1,
    )


def _leaves(data, path=()):
    """``(path, value)`` for every figure in a nested dict / list."""
    if isinstance(data, dict):
        items = data.items()
    elif isinstance(data, list):
        items = enumerate(data)
    else:
        yield path, data
        return
    for key, value in items:
        yield from _leaves(value, path + (key,))


def _changed(value):
    """A value of the same type that any rendering of it shows apart."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1000
    return f"{value}-changed"


class TestServingReportParity:
    def test_rows_render_from_the_dict_view(self):
        report = _run_serving()
        data = report.to_dict()
        sentinel = copy.deepcopy(data)
        sentinel["completed"] = 424242
        sentinel["latency_ms"]["p95"] = 99.125
        rows = {row[0]: row[1] for row in report.to_rows(sentinel)}
        assert rows["completed"] == 424242
        assert rows["latency p95 ms"] == "99.12"

    def test_every_text_figure_is_in_the_json_export(self):
        report = _run_serving()
        data = report.to_dict()
        # Rendering the rows from a deep copy of the JSON view must not
        # touch the report object at all — proof nothing in the table
        # bypasses to_dict().
        rows = report.to_rows(copy.deepcopy(data))
        assert rows == report.to_rows()
        # Queue-wait shown in text comes from the exported summary.
        assert "queue_latency_ms" in data
        assert set(data["queue_latency_ms"]) == {
            "p50", "p95", "p99", "p999", "mean", "max",
        }

    def test_to_text_contains_tenant_table(self):
        report = _run_serving()
        text = report.to_text()
        for tenant in report.to_dict()["tenants"]:
            assert tenant["tenant"] in text


class TestRunRecordParity:
    def test_rows_render_from_the_dict_view(self):
        metrics = _run_cluster()
        sentinel = metrics.to_dict()
        sentinel["operations"] = 424242
        sentinel["deployment"]["budget"]["epochs"] = 77
        rows = {row[0]: row[1] for row in metrics.to_rows(sentinel)}
        assert rows["operations"] == 424242
        assert rows["budget epochs"] == 77

    def test_every_figure_in_the_dict_is_in_the_text(self):
        metrics = _run_cluster()
        data = metrics.to_dict()
        text = metrics.to_text(data)
        assert metrics.to_text(copy.deepcopy(data)) == text
        leaves = [(path, value) for path, value in _leaves(data)
                  if value is not None]
        assert len(leaves) > 60
        for path, value in leaves:
            changed = copy.deepcopy(data)
            holder = changed
            for key in path[:-1]:
                holder = holder[key]
            holder[path[-1]] = _changed(value)
            assert metrics.to_text(changed) != text, path

    @pytest.mark.parametrize("section", ["leakage", "fault_counters",
                                         "deployment", "latency_ms"])
    def test_the_run_fills_every_section(self, section):
        assert _run_cluster().to_dict()[section]
