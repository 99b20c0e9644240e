"""Integration: the cluster layer end to end.

Retrieval correctness across reshard/rebalance and replica failure, the
scaling table and the failover curve through seeded closed-loop runs, the
serving simulator driving a cluster through the batch scheduler, fault
counts surfacing in reports, and ``repro run`` over cluster schemes.
"""

import gc
import json
import math

import pytest

import repro
from cluster_run import cluster_run
from repro.__main__ import main
from repro.analysis.dp_ir_exact import dpir_epsilon
from repro.api import scheme_spec
from repro.cluster import ClusterIR, ClusterKVS
from repro.serving import ServingConfig
from repro.storage.blocks import integer_database

N = 64


def _assert_all_retrievable(ir, blocks, label=""):
    """Every index answers correctly (α events excepted, and re-tried)."""
    for index in range(len(blocks)):
        answer = None
        for _ in range(50):
            answer = ir.query(index)
            if answer is not None:
                break
        assert answer == blocks[index], f"{label} index {index}"


class TestRetrievalPreserved:
    @pytest.mark.parametrize("base", ["dp_ir", "batch_dp_ir"])
    def test_before_and_after_reshard(self, rng, base):
        blocks = integer_database(N)
        ir = ClusterIR(blocks, base=base, shard_count=2, replica_count=2,
                       pad_size=8, alpha=0.05, rng=rng.spawn(base))
        _assert_all_retrievable(ir, blocks, "before")
        migration = ir.reshard(4)
        assert migration.shards_before == 2
        assert migration.shards_after == 4
        assert migration.migration_operations > 0
        assert ir.shard_count == 4
        _assert_all_retrievable(ir, blocks, "after reshard")

    def test_reshard_to_hash_placement(self, rng):
        blocks = integer_database(N)
        ir = ClusterIR(blocks, shard_count=2, replica_count=1,
                       pad_size=8, rng=rng.spawn("c"))
        ir.reshard(4, placement="hash")
        assert ir.router.policy == "hash"
        _assert_all_retrievable(ir, blocks, "hash placement")

    def test_under_replica_failure(self, rng):
        # Replica 0 of every group is dead; reads fail over to replica 1
        # and every index still retrieves correctly.
        blocks = integer_database(N)
        ir = ClusterIR(blocks, shard_count=2, replica_count=2,
                       pad_size=8, alpha=0.05,
                       failure_rate=(1.0, 0.0), rng=rng.spawn("c"))
        _assert_all_retrievable(ir, blocks, "replica failure")
        counters = ir.fault_counters()
        assert counters["failovers"] > 0

    def test_reshard_works_over_a_dead_replica(self, rng):
        blocks = integer_database(N)
        ir = ClusterIR(blocks, shard_count=2, replica_count=2,
                       pad_size=8, failure_rate=(1.0, 0.0),
                       rng=rng.spawn("c"))
        ir.reshard(4)
        _assert_all_retrievable(ir, blocks, "reshard over failure")

    def test_corruption_detected_and_survived(self, rng):
        # A tampering replica behind authenticated storage: detected,
        # failed over, every answer still exact.
        blocks = integer_database(N)
        ir = ClusterIR(blocks, shard_count=2, replica_count=2,
                       pad_size=8, corruption_rate=(1.0, 0.0),
                       authenticated=True, rng=rng.spawn("c"))
        _assert_all_retrievable(ir, blocks, "corruption")
        assert ir.fault_counters()["detected_corruptions"] > 0

    def test_silent_corruption_without_authentication(self, rng):
        # The contrast: plain storage garbles silently (no exception,
        # wrong bytes) — exactly the gap authenticated mode closes.
        blocks = integer_database(16)
        ir = ClusterIR(blocks, shard_count=1, replica_count=1,
                       pad_size=4, alpha=0.01, corruption_rate=1.0,
                       authenticated=False, rng=rng.spawn("c"))
        wrong = 0
        for index in range(16):
            answer = ir.query(index)
            if answer is not None and answer != blocks[index]:
                wrong += 1
        assert wrong > 0
        assert ir.fault_counters().get("detected_corruptions", 0) == 0

    def test_kvs_reshard_preserves_every_key(self, rng):
        kvs = ClusterKVS(64, shard_count=2, replica_count=2,
                         value_size=8, rng=rng.spawn("kvs"))
        items = {f"key-{i}".encode(): bytes([i]) * 3 for i in range(24)}
        for key, value in items.items():
            kvs.put(key, value)
        migration = kvs.reshard(4)
        assert kvs.shard_count == 4
        assert migration.migration_operations > 0
        for key, value in items.items():
            assert kvs.get(key) == value, key
        assert kvs.get(b"missing") is None

    def test_kvs_survives_replica_death(self, rng):
        kvs = ClusterKVS(64, shard_count=2, replica_count=2,
                         value_size=8, failure_rate=(1.0, 0.0),
                         rng=rng.spawn("kvs"))
        items = {f"key-{i}".encode(): bytes([i]) for i in range(12)}
        for key, value in items.items():
            kvs.put(key, value)
        for key, value in items.items():
            assert kvs.get(key) == value
        assert kvs.fault_counters()["dead_replicas"] > 0


class TestRebalance:
    def test_hotspot_load_evens_out(self, rng):
        # Drive a hot range, rebalance, drive it again: the hot range is
        # spread over more shards so the Jain index improves.
        blocks = integer_database(128)
        ir = ClusterIR(blocks, shard_count=4, replica_count=1,
                       pad_size=8, alpha=0.05, rng=rng.spawn("c"))
        hot = rng.spawn("hot")
        for _ in range(120):
            ir.query(hot.randbelow(16))     # all load on shard 0's range
        before = ir.load_balance_index()
        migration = ir.rebalance()
        assert migration.shards_after == 4
        for _ in range(120):
            ir.query(hot.randbelow(16))
        after = ir.load_balance_index()
        assert after > before
        # The hot prefix is now split across several shards.
        assert ir.router.boundaries[1] < 16

    def test_rebalance_requires_range_placement(self, rng):
        ir = ClusterIR(integer_database(32), shard_count=2,
                       replica_count=1, pad_size=4, placement="hash",
                       rng=rng.spawn("c"))
        with pytest.raises(ValueError, match="range placement"):
            ir.rebalance()


class TestScalingAndFailoverThroughTheRunEntry:
    """Seeded closed-loop runs; counters and simulated figures only, so
    every row reproduces exactly."""

    N, PAD, ALPHA = 1024, 64, 0.05

    @pytest.fixture(scope="class")
    def scaling(self):
        # D divides both n and K at every point, so the per-shard exact
        # budget *equals* the single-server one instead of bounding it.
        return {
            shards: cluster_run(
                shard_count=shards, replica_count=1, n=self.N,
                pad_size=self.PAD, alpha=self.ALPHA, requests=64, seed=0x5EED,
            )
            for shards in (1, 2, 4, 8)
        }

    @pytest.mark.parametrize("shards", [1, 2, 4, 8])
    def test_pad_and_storage_split_at_the_single_server_budget(
        self, scaling, shards
    ):
        metrics = scaling[shards]
        deployment = metrics.deployment
        assert metrics.server_operations / metrics.operations == (
            self.PAD / shards
        )
        assert deployment["per_server_storage_blocks"] == self.N // shards
        assert deployment["budget"]["per_query_epsilon"] == pytest.approx(
            dpir_epsilon(self.N, self.PAD, self.ALPHA), abs=1e-9
        )
        assert metrics.operations == 64
        assert metrics.mismatches == 0
        if shards > 1:
            # Half the pad per request is never slower on the wire.
            half = scaling[shards // 2].latency_summary
            assert metrics.latency_summary.p95_ms <= half.p95_ms

    def test_flaky_replicas_cost_retries_never_answers(self):
        ops = []
        for rate in (0.0, 0.05, 0.10):
            metrics = cluster_run(
                shard_count=4, replica_count=2, n=256, pad_size=32,
                alpha=0.01, requests=64, seed=0xFA11, failure_rate=rate,
            )
            faults = metrics.fault_counters
            assert metrics.operations == 64
            assert metrics.mismatches == 0
            assert (faults.get("failovers", 0) > 0) == (rate > 0)
            assert (faults.get("failed_operations", 0) > 0) == (rate > 0)
            ops.append(metrics.server_operations / metrics.operations)
        # The retries are the whole cost: K/D at rate 0, more with
        # every step of the flake rate.
        assert ops[0] == 32 / 4 < ops[1] < ops[2]


class TestServingIntegration:
    def test_cluster_behind_batch_scheduler_compounds(self):
        # Sharding cuts the pad to K/D; batching through query_many
        # additionally coalesces per-shard pad unions.  The cluster of
        # BatchDPIR bases must beat its own FIFO dispatch.
        fifo = repro.serve("cluster_batch_dp_ir", ServingConfig(
            clients=6, requests_per_client=8, scheduler="fifo", n=256, seed=11,
            rate_rps=200.0,
        ))
        batch = repro.serve("cluster_batch_dp_ir", ServingConfig(
            clients=6, requests_per_client=8, scheduler="batch", n=256,
            seed=11, rate_rps=200.0,
        ))
        assert fifo.completed == fifo.requests
        assert batch.completed == batch.requests
        assert batch.ops_per_request < fifo.ops_per_request

    def test_seeded_serve_spends_the_pinned_exact_budget(self):
        # Values computed by the per-charge Fraction ledgers this
        # repository had before the integer spend core: a change that
        # moves an exact total, an event or their order fails here.
        import hashlib
        from fractions import Fraction

        from repro.obs import BudgetTimeline

        scheme = repro.build(
            "cluster_batch_dp_ir", n=1024, shard_count=4, replica_count=2,
            authenticated=True, executor="serial", seed=11,
        )
        timeline = BudgetTimeline()
        scheme.ledger.attach_timeline(timeline)
        report = repro.serve(scheme, ServingConfig(
            clients=8, requests_per_client=16, scheduler="continuous",
            max_in_flight=4, rate_rps=200, seed=5,
        ))
        assert report.completed == report.requests == 128

        draws = [group.draws for group in scheme.groups]
        assert draws == [31, 32, 36, 29]
        budget = scheme.ledger.report()
        epsilon = Fraction(6.881205943748601)
        # ROADMAP invariant (iii): ledger spend == Σ server-visible draws.
        assert [shard.queries for shard in budget.per_shard] == draws
        assert [shard.basic_epsilon_exact for shard in budget.per_shard] == [
            count * epsilon for count in draws
        ]
        assert budget.queries == scheme.ledger.queries == sum(draws)
        assert budget.per_query_epsilon == 6.881205943748601
        assert budget.worst_shard_epsilon == 247.7234139749496
        assert budget.colluding_epsilon == 880.7943607998209
        assert budget.per_shard[2].advanced_epsilon == 241251.14012998433
        assert budget.epochs == 1

        document = timeline.to_dict()
        assert len(document["events"]) == 128
        assert document["total"]["fraction"] == (
            "1936887282757865/2199023255552"
        )
        assert document["per_operator"]["shard-0"]["fraction"] == (
            "60043505765493815/281474976710656"
        )
        # The events as a multiset (no sequence numbers), hashed at the
        # commit before pad sets were carved from one entropy draw and
        # equal after it: every charge the old ledgers made is still made.
        unordered = dict(document, events=sorted(
            json.dumps(
                {k: v for k, v in event.items() if k != "sequence"},
                sort_keys=True,
            )
            for event in document["events"]
        ))
        assert hashlib.sha256(
            json.dumps(unordered, sort_keys=True).encode()
        ).hexdigest() == (
            "7998c82031638a7c786a7c6541b09f2f774f5114684efee09437586039489c2a"
        )
        # In order.  Re-pinned with the carve: the scheduler admits by
        # simulated time, a round's time follows its pad-set union, and
        # a seed now yields other pads — events 64-70 swap shards.
        assert hashlib.sha256(
            json.dumps(document, sort_keys=True).encode()
        ).hexdigest() == (
            "75c52e79156a795fe7ad060a070177557e1c549d8e0a3a406be23e5a854c76cd"
        )

    def test_serving_report_surfaces_cluster_faults(self, rng):
        from repro.serving import (
            ClientSession,
            ServingConfig,
            ServingSimulator,
            build_scheduler,
        )
        from repro.serving.load import OpenLoopLoad
        from repro.workloads import catalogue

        ir = ClusterIR(integer_database(64), shard_count=2,
                       replica_count=2, pad_size=8,
                       failure_rate=(1.0, 0.0), rng=rng.spawn("c"))
        sessions = []
        for client in range(3):
            trace = catalogue.index_trace(
                "uniform", 64, 8, rng.spawn(f"t{client}"),
                write_fraction=0.0,
            )
            plan = OpenLoopLoad(100.0).plan(
                len(trace.operations), rng.spawn(f"a{client}")
            )
            sessions.append(
                ClientSession(f"tenant-{client}", trace.operations, plan)
            )
        scheduler = build_scheduler("window", ServingConfig(
            batch_window_ms=2.0, max_batch=8,
        ))
        report = ServingSimulator(ir, sessions, scheduler).run()
        assert report.completed == report.requests
        assert report.faults.get("failovers", 0) > 0
        assert report.faults.get("failed_operations", 0) > 0
        assert "faults" in report.to_dict()
        assert "failovers" in report.to_text()

    def test_harness_metrics_surface_faults(self, rng):
        from repro.simulation.harness import run_trace
        from repro.workloads import catalogue

        ir = ClusterIR(integer_database(32), shard_count=2,
                       replica_count=2, pad_size=4,
                       failure_rate=(1.0, 0.0), rng=rng.spawn("c"))
        trace = catalogue.index_trace(
            "uniform", 32, 16, rng.spawn("t"), write_fraction=0.0,
        )
        metrics = run_trace(ir, trace, initial=integer_database(32))
        assert metrics.mismatches == 0
        assert metrics.fault_counters.get("failovers", 0) > 0


def _backends(scheme):
    return [server.backend for server in scheme.servers()]


def _link_ms(scheme):
    return sum(
        getattr(backend, "simulated_ms", 0.0) for backend in _backends(scheme)
    )


class TestClusterRunsOverTheLinkItReports:
    """A cluster's replicas get their link the way every registered
    scheme does, and only :class:`CostMeter` turns their operations into
    milliseconds."""

    @pytest.fixture
    def runs(self, monkeypatch):
        """Each ``repro run``'s scheme and the link time its backends
        accrued inside ``run_trace``."""
        import repro.simulation.harness as harness

        runs = []
        run_trace = harness.run_trace

        def recording(scheme, *args, **kwargs):
            before = _link_ms(scheme)
            metrics = run_trace(scheme, *args, **kwargs)
            runs.append((scheme, _link_ms(scheme) - before))
            return metrics

        monkeypatch.setattr(harness, "run_trace", recording)
        return runs

    @pytest.mark.parametrize("network", [repro.LAN, repro.WAN],
                             ids=["lan", "wan"])
    @pytest.mark.parametrize(
        "name", ["cluster_dp_ir", "cluster_batch_dp_ir", "cluster_dp_kvs"]
    )
    def test_registry_builds_run_every_replica_over_the_given_link(
        self, name, network
    ):
        from repro.storage.backends import NetworkBackend

        scheme = repro.build(name, n=64, seed=1, backend="network",
                             network=network)
        backends = _backends(scheme)
        assert backends
        assert all(isinstance(backend, NetworkBackend) for backend in backends)
        assert {backend.model for backend in backends} == {network}

    @pytest.mark.parametrize(
        "name", ["cluster_dp_ir", "cluster_batch_dp_ir", "cluster_dp_kvs"]
    )
    def test_registry_network_default_is_the_single_node_default(self, name):
        single = repro.build("dp_ir", n=64, seed=1, backend="network")
        (model,) = {backend.model for backend in _backends(single)}
        assert model == repro.WAN
        scheme = repro.build(name, n=64, seed=1, backend="network")
        assert {backend.model for backend in _backends(scheme)} == {model}

    @pytest.mark.parametrize("network", [repro.LAN, repro.WAN],
                             ids=["lan", "wan"])
    def test_a_network_keyword_reaches_the_replica_builders(self, rng,
                                                            network):
        ir = ClusterIR(integer_database(32), shard_count=2, replica_count=2,
                       pad_size=4, backend_factory="network", network=network,
                       rng=rng.spawn("c"))
        assert {backend.model for backend in _backends(ir)} == {network}

    def test_memory_cluster_has_no_network_backend(self, rng):
        from repro.storage.backends import NetworkBackend

        ir = ClusterIR(integer_database(32), shard_count=2,
                       replica_count=2, pad_size=4,
                       backend_factory="memory", network="wan",
                       rng=rng.spawn("c-memory"))
        assert not any(
            isinstance(backend, NetworkBackend) for backend in _backends(ir)
        )

    def test_a_network_with_no_backend_builds_network_replicas(self, rng):
        # ``network`` is an ordinary base-builder keyword: with no backend
        # each replica's builder turns it into a link of that model.
        ir = ClusterIR(integer_database(32), shard_count=2,
                       replica_count=2, pad_size=4,
                       backend_factory=None, network="wan",
                       rng=rng.spawn("c-None"))
        assert {backend.model for backend in _backends(ir)} == {repro.WAN}

    def test_default_run_builds_memory_replicas(self, runs, capsys):
        from repro.storage.backends import NetworkBackend

        assert main(["run", "--scheme", "cluster_dp_ir", "--shards", "2",
                     "--replicas", "2", "--n", "64", "--ops", "8",
                     "--seed", "7"]) == 0
        capsys.readouterr()
        (scheme, accrued), = runs
        assert accrued == 0.0
        assert not any(
            isinstance(backend, NetworkBackend)
            for backend in _backends(scheme)
        )

    def test_a_backend_among_the_base_kwargs_is_refused(self, rng):
        # It would silently replace the cluster's own backend.
        with pytest.raises(TypeError, match="backend"):
            ClusterIR(integer_database(32), shard_count=2, replica_count=1,
                      pad_size=4, backend="network", rng=rng.spawn("c"))

    def test_request_latency_is_the_backends_link_time(self, rng):
        from repro.simulation.harness import run_trace
        from repro.workloads import catalogue

        ir = ClusterIR(integer_database(32), shard_count=2, replica_count=1,
                       pad_size=4, backend_factory="network", network="lan",
                       rng=rng.spawn("c"))
        deltas = []
        query = ir.query

        def timed(index):
            before = _link_ms(ir)
            answer = query(index)
            deltas.append(_link_ms(ir) - before)
            return answer

        ir.query = timed
        trace = catalogue.index_trace(
            "uniform", 32, 16, rng.spawn("t"), write_fraction=0.0,
        )
        metrics = run_trace(ir, trace, integer_database(32))
        assert metrics.latencies_ms == deltas
        assert 0.0 < max(deltas) < 1.0  # LAN, not the WAN default

    @pytest.mark.parametrize("scheme", ["cluster_dp_ir", "cluster_dp_kvs"])
    def test_record_ms_are_the_link_time_of_the_run(self, runs, scheme,
                                                     capsys):
        assert main(["run", "--scheme", scheme, "--shards", "2",
                     "--replicas", "1", "--n", "128", "--ops", "32",
                     "--seed", "7", "--backend", "network", "--network",
                     "lan", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        (instance, accrued), = runs
        assert {backend.model for backend in _backends(instance)} == {
            repro.LAN
        }
        assert record["latency_ms"]["p50"] < 1.0
        assert accrued > 0.0
        assert record["serial_ms"] == pytest.approx(accrued, rel=1e-12)
        assert record["wall_clock_ms"] == record["serial_ms"]  # serial

    @pytest.mark.parametrize("name", ["cluster_dp_ir", "cluster_dp_kvs"])
    def test_a_reshard_frees_the_drained_generation(self, name):
        # One factory serves every generation; it keeps no backend, so
        # once its servers are gone nothing but this list holds a
        # drained backend (a slotted backend takes no weak reference).
        scheme = repro.build(name, n=256, seed=1, backend="network",
                             network="lan")
        drained = []
        for shards in (4, 2, 8, 2):
            drained += _backends(scheme)
            scheme.reshard(shards)
        gc.collect()
        assert len(drained) == 32
        assert len(_backends(scheme)) == 4
        holders = [
            type(holder).__name__
            for holder in gc.get_referrers(*drained) if holder is not drained
        ]
        assert holders == []


class TestClusterRunCommand:
    def test_smoke(self, capsys):
        assert main(["run", "--scheme", "cluster_dp_ir", "--shards", "4",
                     "--replicas", "2", "--n", "128", "--ops", "32",
                     "--seed", "7", "--network", "lan"]) == 0
        output = capsys.readouterr().out
        assert "shard groups" in output
        assert "Per-shard load" in output
        assert "latency p99.9 ms" in output

    def test_json_output(self, capsys):
        assert main(["run", "--scheme", "cluster_dp_ir", "--shards", "4",
                     "--replicas", "2", "--n", "128", "--ops", "32",
                     "--seed", "7", "--network", "lan", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["deployment"]["shards"] == 4
        assert payload["deployment"]["replicas"] == 2
        assert payload["operations"] == 32
        assert payload["mismatches"] == 0
        assert "p999" in payload["latency_ms"]
        assert payload["deployment"]["budget"]["per_query_epsilon"] > 0

    def test_kvs_cluster(self, capsys):
        assert main(["run", "--scheme", "cluster_dp_kvs", "--shards", "2",
                     "--replicas", "2", "--n", "64", "--ops", "24",
                     "--workload", "ycsb-b", "--seed", "7"]) == 0
        output = capsys.readouterr().out
        assert "cluster_dp_kvs" in output
        assert "ycsb-B" in output

    def test_flaky_run_completes(self, capsys):
        assert main(["run", "--scheme", "cluster_dp_ir", "--shards", "2",
                     "--replicas", "2", "--n", "64", "--ops", "24",
                     "--seed", "7", "--failure-rate", "0.1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["operations"] == 24
        assert payload["mismatches"] == 0
        assert payload["fault_counters"].get("failed_operations", 0) > 0

    @pytest.mark.parametrize("name", repro.available_schemes("ir")
                             + repro.available_schemes("kvs"))
    def test_a_cluster_builds_exactly_over_chargeable_bases(self, name):
        # A base whose sheet declares no finite ε is refused: no ledger
        # could charge its operations.
        chargeable = math.isfinite(
            repro.build(name, n=16, seed=0).datasheet().epsilon
        )
        kind = scheme_spec(name).kind
        try:
            if kind == "ir":
                ClusterIR(integer_database(64), base=name, shard_count=1,
                          replica_count=1)
            else:
                ClusterKVS(64, base=name, shard_count=1, replica_count=1)
        except ValueError:
            builds = False
        else:
            builds = True
        assert builds == chargeable

    def test_hyphenated_alias(self, capsys):
        assert main(["run", "--scheme", "cluster-dpir", "--shards", "2",
                     "--n", "64", "--ops", "16", "--seed", "7"]) == 0
        assert "cluster_dp_ir" in capsys.readouterr().out
