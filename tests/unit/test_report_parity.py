"""Text/JSON report parity: ``to_dict`` is the single source of truth.

The ``--json`` exports used to omit fields the text tables showed;
these tests pin the fix — ``to_rows``/``to_text`` render *from* the
``to_dict`` mapping, so injecting a sentinel dict must change the text,
and every figure the table shows must exist in the JSON view.
"""

import copy

from repro.cluster import ClusterConfig
from repro.cluster.service import cluster
from repro.serving import ServingConfig, serve


def _run_serving():
    return serve("batch_dp_ir", ServingConfig(
        clients=3, requests_per_client=4, n=64, seed=11,
    ))


def _run_cluster():
    return cluster("dp_ir", ClusterConfig(
        shards=2, replicas=1, n=64, requests=12, seed=11, pad_size=8,
    ))


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


class TestClusterReportParity:
    def test_rows_render_from_the_dict_view(self):
        report = _run_cluster()
        sentinel = report.to_dict()
        sentinel["completed"] = 424242
        sentinel["budget"]["epochs"] = 77
        rows = {row[0]: row[1] for row in report.to_rows(sentinel)}
        assert rows["completed"] == 424242
        assert rows["budget epochs"] == 77

    def test_every_text_figure_is_in_the_json_export(self):
        report = _run_cluster()
        data = report.to_dict()
        rows = report.to_rows(copy.deepcopy(data))
        assert rows == report.to_rows()
        # Fields the text table shows must all be exported: epochs used
        # to be text-only, latency must carry the full summary.
        assert data["budget"]["epochs"] >= 1
        assert set(data["latency_ms"]) == {
            "p50", "p95", "p99", "p999", "mean", "max",
        }
        assert len(data["shards_detail"]) == data["shards"]

    def test_shard_table_rendered_from_dict(self):
        report = _run_cluster()
        text = report.to_text()
        for shard in report.to_dict()["shards_detail"]:
            assert f"{shard['epsilon_spent']:.2f}" in text
