"""Integration: observability across the serving/cluster/parallel stack.

The tentpole contracts under test:

* span *trees* are executor-invariant — serial and parallel fan-out
  produce identical hierarchies, names and labels (only wall timing
  differs), including under injected faults;
* traces are deterministic — two runs with the same seed export
  identical JSON modulo the wall-clock fields;
* tracing is an observer — attaching a tracer changes no answer, no
  draw, no exact ε;
* the ε timeline, trace summary, and the ``--trace`` / ``--metrics`` /
  ``audit`` CLI surfaces.
"""

import json
from fractions import Fraction

import pytest

from cluster_run import cluster_run, record
from repro.__main__ import main
from repro.cluster import ClusterIR
from repro.cluster.group import GroupExhaustedError
from repro.crypto.rng import SeededRandomSource
from repro.obs import (
    NULL_TRACER,
    BudgetTimeline,
    MetricsRegistry,
    Tracer,
    canonical_trace,
    trace_summary,
)
from repro.parallel import SerialExecutor
from repro.serving import ServingConfig, serve
from repro.storage.blocks import integer_database
from repro.storage.faults import FlakyServer, wrap_scheme_servers


class _RecordingExecutor(SerialExecutor):
    """A serial executor that keeps every task it was handed."""

    def __init__(self):
        self.tasks = []

    def fan_out(self, tasks):
        self.tasks.extend(tasks)
        return super().fan_out(tasks)


RUN = dict(shard_count=4, replica_count=1, n=256, requests=48, seed=13,
           pad_size=16, batch=8)


def _tree(trace):
    """(id, parent, name, sorted labels) for every span — the identity
    a trace keeps across executors."""
    return [
        (s["id"], s["parent"], s["name"], tuple(sorted(s["labels"].items())))
        for s in trace["spans"]
    ]


class TestExecutorInvariance:
    @pytest.mark.parametrize("faults", [
        {},
        {"failure_rate": 0.15, "corruption_rate": 0.1},
    ], ids=["clean", "faulty"])
    def test_both_executors_emit_identical_span_trees(self, faults):
        trees = {}
        reports = {}
        for executor in ("serial", "parallel"):
            tracer = Tracer(executor)
            reports[executor] = cluster_run(
                executor=executor, tracer=tracer, **faults, **RUN,
            )
            trees[executor] = _tree(tracer.export())
        assert trees["serial"] == trees["parallel"]
        # And the runs themselves stay executor-invariant.
        completed = {r.operations for r in reports.values()}
        assert len(completed) == 1

    def test_fault_spans_record_the_error_type(self):
        # Every replica of every group is dead, so the round exhausts
        # its group; the propagating error must land on the spans it
        # unwound through.
        tracer = Tracer("faulty")
        with pytest.raises(Exception):
            cluster_run(
                executor="serial", tracer=tracer, failure_rate=1.0, **RUN,
            )
        errors = {s["error"] for s in tracer.export()["spans"]
                  if s["error"]}
        assert "GroupExhaustedError" in errors


class TestClusterLegSpans:
    """One round over a healthy shard 0 and a dead shard 1: each shard's
    leg gets its own span, and only the dead one's carries an error."""

    @staticmethod
    def _half_dead_cluster(tracer=None):
        scheme = ClusterIR(
            integer_database(64), shard_count=2, replica_count=2,
            pad_size=8, rng=SeededRandomSource("legs"), tracer=tracer,
        )
        dead = SeededRandomSource("dead")
        for replica in scheme.groups[1].replicas:
            wrap_scheme_servers(
                replica, lambda server: FlakyServer(server, 1.0, dead)
            )
        return scheme

    def test_each_shard_leg_gets_a_span_in_shard_order(self):
        tracer = Tracer("legs")
        scheme = self._half_dead_cluster(tracer)
        with pytest.raises(GroupExhaustedError):
            scheme.query_many([40, 3, 63, 7])  # shards 1, 0, 1, 0
        legs = [s for s in tracer.spans() if s.name == "cluster.shard_leg"]
        assert [leg.labels["shard"] for leg in legs] == [0, 1]
        assert [leg.error for leg in legs] == [None, "GroupExhaustedError"]
        (round_span,) = [
            s for s in tracer.spans() if s.name == "cluster.query_many"
        ]
        assert {leg.parent_id for leg in legs} == {round_span.span_id}

    def test_untraced_cluster_records_no_span(self):
        scheme = self._half_dead_cluster()
        assert scheme.tracer is NULL_TRACER
        with pytest.raises(GroupExhaustedError):
            scheme.query_many([40, 3, 63, 7])
        assert len(NULL_TRACER) == 0

    def test_untraced_legs_reach_the_executor_unwrapped(self):
        seen = {}
        for traced in (False, True):
            executor = _RecordingExecutor()
            database = integer_database(64)
            scheme = ClusterIR(
                database, shard_count=2, replica_count=1,
                pad_size=8, rng=SeededRandomSource("legs"),
                executor=executor, tracer=Tracer("t") if traced else None,
            )
            assert scheme.query_many([40, 3]) == [database[40], database[3]]
            seen[traced] = [
                getattr(task, "func", None) == scheme._traced_leg
                for task in executor.tasks
            ]
        assert seen == {False: [False, False], True: [True, True]}

    def test_reshard_drain_legs_get_spans_in_shard_order(self):
        tracer = Tracer("reshard")
        scheme = ClusterIR(
            integer_database(64), shard_count=3, replica_count=1,
            pad_size=8, rng=SeededRandomSource("drain"), tracer=tracer,
        )
        scheme.reshard(2)
        (reshard,) = [s for s in tracer.spans() if s.name == "cluster.reshard"]
        assert reshard.labels == {"shards_before": 3, "shards_after": 2}
        legs = [s for s in tracer.spans() if s.name == "cluster.drain_leg"]
        assert [leg.labels["shard"] for leg in legs] == [0, 1, 2]
        assert [leg.span_id for leg in legs] == [
            f"{reshard.span_id}.{i}" for i in range(3)
        ]
        assert all(leg.error is None for leg in legs)


class TestLegSpanNesting:
    def test_storage_batches_nest_under_their_own_shard_leg(self):
        # Legs run one after another on the caller's thread, so every
        # storage batch opens beneath the leg that issued it and leg k's
        # ids precede leg k+1's.
        tracer = Tracer("nest")
        cluster_run(
            executor="parallel", tracer=tracer, shard_count=2,
            replica_count=1, n=64, requests=8, seed=13, pad_size=8, batch=4,
        )
        spans = tracer.spans()
        by_id = {s.span_id: s for s in spans}
        batches = [s for s in spans if s.name == "storage.read_many"]
        assert batches
        assert {by_id[s.parent_id].name for s in batches} == {
            "cluster.shard_leg"
        }
        for leg in (s for s in spans if s.name == "cluster.shard_leg"):
            assert leg.wall_ms is not None
            children = [s for s in batches if s.parent_id == leg.span_id]
            assert [s.span_id for s in children] == [
                f"{leg.span_id}.{i}" for i in range(len(children))
            ]
            assert children


class TestDeterminism:
    def test_same_seed_same_trace_modulo_wall_clock(self):
        exports = []
        for _ in range(2):
            tracer = Tracer("run")
            cluster_run(executor="parallel", tracer=tracer, **RUN)
            exports.append(canonical_trace(tracer.export()))
        assert json.dumps(exports[0]) == json.dumps(exports[1])

    def test_serving_trace_is_deterministic_too(self):
        exports = []
        for _ in range(2):
            tracer = Tracer("serve")
            serve("batch_dp_ir", ServingConfig(
                clients=4, requests_per_client=6, n=128, seed=5, tracer=tracer,
            ))
            exports.append(canonical_trace(tracer.export()))
        assert exports[0] == exports[1]


class TestTracingIsAnObserver:
    def test_traced_run_is_bit_identical_to_untraced(self):
        plain = cluster_run(**RUN)
        tracer = Tracer("observed")
        timeline = BudgetTimeline()
        registry = MetricsRegistry()
        traced = cluster_run(
            tracer=tracer, registry=registry, timeline=timeline, **RUN,
        )
        assert record(traced) == record(plain)
        assert len(tracer) > 0
        # The timeline replays the ledger exactly: summed spend events
        # equal the worst-shard/colluding accounting's total.
        total = sum(
            (event.epsilon for event in timeline.events), Fraction(0)
        )
        assert float(total) == pytest.approx(
            traced.deployment["budget"]["colluding_epsilon"]
        )

    def test_serving_answers_unchanged_under_tracing(self):
        plain = serve("batch_dp_ir", ServingConfig(
            clients=4, requests_per_client=6, n=128, seed=5,
        ))
        traced = serve("batch_dp_ir", ServingConfig(
            clients=4, requests_per_client=6, n=128, seed=5,
            tracer=Tracer("t"), metrics_registry=MetricsRegistry(),
        ))
        assert traced.to_dict() == plain.to_dict()


class TestTimelineAndMetrics:
    def test_timeline_flags_first_crossing(self):
        generous = BudgetTimeline(cap=10**6)
        cluster_run(timeline=generous, **RUN)
        assert generous.first_crossing is None
        assert generous.total_spent > 0
        tight = BudgetTimeline(cap=Fraction(1, 1000))
        cluster_run(timeline=tight, **RUN)
        crossing = tight.first_crossing
        assert crossing is not None and crossing.operator.startswith("shard-")

    def test_registry_absorbs_cluster_counters(self):
        registry = MetricsRegistry()
        metrics = cluster_run(registry=registry, failure_rate=0.15, **RUN)
        values = {
            (s["name"], tuple(sorted(s["labels"].items()))): s["value"]
            for s in registry.collect()
        }
        assert values[("repro_queries", ())] == metrics.operations
        assert values[("repro_epsilon_spent", (("scope", "colluding"),))] \
            == pytest.approx(metrics.deployment["budget"]["colluding_epsilon"])
        fault_kinds = {labels for name, labels in values
                       if name == "repro_faults"}
        assert (("kind", "failed_operations"),) in fault_kinds
        prometheus = registry.to_prometheus()
        assert "repro_epsilon_spent" in prometheus


class TestTraceSummary:
    def test_reconstructs_per_round_critical_paths(self):
        tracer = Tracer("summary")
        cluster_run(executor="parallel", tracer=tracer, **RUN)
        summary = trace_summary(tracer.export())
        assert summary["spans"] == len(tracer)
        rounds = [r for r in summary["rounds"]
                  if r["name"] == "cluster.query_many"]
        assert rounds
        for entry in rounds:
            assert entry["legs"] >= 1
            assert entry["straggler"]["name"] == "cluster.shard_leg"
            assert entry["serial_wall_ms"] >= entry["straggler_wall_ms"]
            assert entry["overlap_speedup"] >= 1.0


class TestObservabilityCli:
    def test_cluster_trace_and_metrics_flags(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        code = main([
            "run", "--scheme", "cluster_dp_ir", "--shards", "2",
            "--replicas", "1", "--n", "128", "--ops", "16", "--seed", "3",
            "--trace", str(trace_path), "--metrics",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_server_reads gauge" in out
        payload = json.loads(trace_path.read_text())
        assert payload["version"] == 1
        assert payload["spans"]

    def test_serve_trace_flag(self, tmp_path):
        trace_path = tmp_path / "serve.json"
        code = main([
            "serve", "--scheme", "batch-dpir", "--clients", "2",
            "--requests", "4", "--n", "128", "--seed", "3",
            "--trace", str(trace_path),
        ])
        assert code == 0
        names = {s["name"]
                 for s in json.loads(trace_path.read_text())["spans"]}
        assert "serve.round" in names

    def test_audit_without_cap_exits_zero(self, capsys):
        code = main([
            "audit", "--shards", "2", "--requests", "16", "--seed", "3",
            "--timeline",
        ])
        assert code == 0
        assert "epsilon spend timeline" in capsys.readouterr().out

    def test_audit_timeline_matches_the_committed_ci_expectation(self, capsys):
        # The CI Trace-smoke step diffs these same arguments against it.
        from pathlib import Path

        expected = Path(__file__).parents[2].joinpath(
            "benchmarks", "baselines", "audit_timeline_expected.txt"
        )
        assert main([
            "audit", "--shards", "4", "--requests", "64", "--seed", "7",
            "--timeline",
        ]) == 0
        assert capsys.readouterr().out == expected.read_text()

    def test_audit_cap_crossing_exits_one(self, capsys):
        code = main([
            "audit", "--shards", "2", "--requests", "16", "--seed", "3",
            "--cap", "0.001",
        ])
        assert code == 1
        assert "cap crossed" in capsys.readouterr().err

    def test_audit_json_is_exact(self, capsys):
        code = main([
            "audit", "--shards", "2", "--requests", "16", "--seed", "3",
            "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["events"]
        assert "/" in payload["total"]["fraction"]
