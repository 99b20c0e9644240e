"""Unit tests for the cluster deployment layer: router, ledger, groups."""

import importlib
import math
import random
from fractions import Fraction

import pytest

from repro.analysis.ledger import BudgetExceededError
from repro.cluster.group import GroupExhaustedError, ShardGroup
from repro.cluster.ledger import ClusterLedger
from repro.cluster.router import (
    HashRouter,
    RangeRouter,
    make_router,
)
from repro.cluster.scheme import ClusterIR, ClusterKVS, jain_index
from repro.core.dp_ir import DPIR
from repro.core.dp_kvs import DPKVS
from repro.crypto.rng import SeededRandomSource
from repro.storage.blocks import integer_database
from repro.storage.errors import BlockSizeError
from repro.storage.transcript import Transcript


class TestRangeRouter:
    def test_even_split(self):
        router = RangeRouter(10, 3)
        assert router.boundaries == (0, 4, 7, 10)
        assert [router.shard_of(i) for i in range(10)] == \
            [0, 0, 0, 0, 1, 1, 1, 2, 2, 2]

    def test_assignment_partitions_everything(self):
        router = RangeRouter(17, 4)
        owned = router.assignment()
        flattened = [index for shard in owned for index in shard]
        assert sorted(flattened) == list(range(17))

    def test_explicit_boundaries_validated(self):
        RangeRouter(8, 2, boundaries=[0, 3, 8])
        with pytest.raises(ValueError):
            RangeRouter(8, 2, boundaries=[0, 8])       # wrong count
        with pytest.raises(ValueError):
            RangeRouter(8, 2, boundaries=[1, 4, 8])    # must start at 0
        with pytest.raises(ValueError):
            RangeRouter(8, 2, boundaries=[0, 0, 8])    # empty shard

    def test_out_of_range_rejected(self):
        router = RangeRouter(8, 2)
        with pytest.raises(ValueError):
            router.shard_of(8)
        with pytest.raises(ValueError):
            router.shard_of(-1)

    def test_rebalanced_splits_the_hot_shard(self):
        # Shard 0 absorbed almost all load: the new cut gives it fewer
        # indices so per-shard load evens out.
        router = RangeRouter(100, 2)
        rebalanced = router.rebalanced([900.0, 100.0])
        assert rebalanced.boundaries[1] < router.boundaries[1]
        assert rebalanced.n == 100
        assert rebalanced.shard_count == 2

    def test_rebalanced_zero_load_falls_back_to_even(self):
        router = RangeRouter(12, 3, boundaries=[0, 1, 2, 12])
        assert router.rebalanced([0, 0, 0]).boundaries == (0, 4, 8, 12)

    def test_rebalanced_keeps_every_shard_nonempty(self):
        router = RangeRouter(8, 4)
        rebalanced = router.rebalanced([1000.0, 0.0, 0.0, 0.0])
        sizes = [
            hi - lo
            for lo, hi in zip(rebalanced.boundaries, rebalanced.boundaries[1:])
        ]
        assert all(size >= 1 for size in sizes)
        assert sum(sizes) == 8


class TestHashRouter:
    def test_deterministic_and_in_range(self):
        router = HashRouter(64, 4)
        shards = [router.shard_of(i) for i in range(64)]
        assert shards == [router.shard_of(i) for i in range(64)]
        assert set(shards) <= set(range(4))
        # SHA-256 spread: no shard owns everything.
        assert len(set(shards)) > 1

    def test_key_routing_matches_across_router_instances(self):
        a = HashRouter(64, 4)
        b = HashRouter(64, 4)
        for key in (b"alpha", b"beta", b"x" * 40):
            assert a.shard_of_key(key) == b.shard_of_key(key)

    def test_make_router(self):
        assert isinstance(make_router("range", 8, 2), RangeRouter)
        assert isinstance(make_router("hash", 8, 2), HashRouter)
        router = RangeRouter(8, 2)
        assert make_router(router, 8, 2) is router
        with pytest.raises(ValueError):
            make_router("rendezvous", 8, 2)


class TestJainIndex:
    def test_even_load_is_one(self):
        assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_single_hot_shard_is_one_over_d(self):
        assert jain_index([12.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_empty_and_zero_are_trivially_even(self):
        assert jain_index([]) == 1.0
        assert jain_index([0.0, 0.0]) == 1.0

    def test_negative_load_rejected(self):
        with pytest.raises(ValueError):
            jain_index([1.0, -1.0])


class TestClusterLedger:
    def test_per_shard_and_composed_budgets(self):
        ledger = ClusterLedger(3)
        for _ in range(4):
            ledger.charge(0, 2.0)
        ledger.charge(1, 1.0)
        report = ledger.report()
        assert report.queries == 5
        assert report.per_query_epsilon == 2.0
        assert report.worst_shard_epsilon == pytest.approx(8.0)
        assert report.colluding_epsilon == pytest.approx(9.0)
        assert report.per_shard[2].queries == 0

    def test_cap_is_per_shard(self):
        from repro.analysis.ledger import BudgetExceededError

        ledger = ClusterLedger(2, epsilon_cap=3.0)
        ledger.charge(0, 2.0)
        ledger.charge(1, 2.0)   # a different operator's budget
        with pytest.raises(BudgetExceededError):
            ledger.charge(0, 2.0)

    def test_can_afford_mirrors_charge_and_record_never_refuses(self):
        ledger = ClusterLedger(2, epsilon_cap=3.0)
        assert ledger.can_afford(0, 1.0, 3)
        assert not ledger.can_afford(0, 1.0, 4)
        ledger.charge(0, 2.0)
        assert not ledger.can_afford(0, 2.0)
        with pytest.raises(BudgetExceededError):
            ledger.charge(0, 2.0)
        ledger.record(0, 2.0)               # already served: spend anyway
        assert ledger.queries == 2
        assert ledger.shard_ledger(0).epsilon_spent_exact == 4
        assert ledger.can_afford(1, 3.0)    # caps are per operator
        assert ClusterLedger(1).can_afford(0, 1e9, 10**6)

    def test_empty_report(self):
        report = ClusterLedger(2).report()
        assert report.queries == 0
        assert report.worst_shard_epsilon == 0.0
        assert report.colluding_epsilon == 0.0
        assert report.epochs == 1

    def test_totals_are_exact_rationals(self):
        # 0.1 is not exactly representable; ten float adds drift, ten
        # Fraction adds do not.  The colluding total must be the exact
        # sum of what was charged, bit-for-bit.
        ledger = ClusterLedger(1)
        for _ in range(10):
            ledger.charge(0, 0.1)
        report = ledger.report()
        assert report.colluding_epsilon == float(10 * Fraction(0.1))
        assert report.per_shard[0].basic_epsilon_exact == 10 * Fraction(0.1)


class TestClusterLedgerRefusesBeforeItChanges:
    @staticmethod
    def _pair(**kwargs):
        from repro.obs.timeline import BudgetTimeline

        def build():
            ledger = ClusterLedger(4, **kwargs)
            timeline = BudgetTimeline()
            ledger.attach_timeline(timeline)
            ledger.charge(3, 2.0)
            return ledger, timeline

        return build(), build()

    @staticmethod
    def _same(pair, twin_pair):
        (ledger, timeline), (twin, twin_timeline) = pair, twin_pair
        assert ledger.report() == twin.report()
        assert ledger.queries == twin.queries
        assert ledger.per_query_epsilon == twin.per_query_epsilon
        assert timeline.events == twin_timeline.events

    @pytest.mark.parametrize("shard", [-1, -4, 4, 99])
    @pytest.mark.parametrize("cap", [None, 50])
    def test_out_of_range_shard_bills_no_operator(self, shard, cap):
        # Regression: a negative shard indexed from the end, so
        # charge(-1, ...) silently billed shard 3 as "shard--1".
        pair, twin_pair = self._pair(epsilon_cap=cap)
        ledger = pair[0]
        for call in (ledger.charge, ledger.record, ledger.can_afford):
            with pytest.raises(ValueError, match="shard"):
                call(shard, 5.0)
        with pytest.raises(ValueError, match="shard"):
            ledger.shard_ledger(shard)
        self._same(pair, twin_pair)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("cap", [None, 50])
    def test_non_finite_epsilon_fails_at_the_charge(self, epsilon, cap):
        # Regression: inf escaped as OverflowError out of Fraction().
        pair, twin_pair = self._pair(epsilon_cap=cap)
        ledger = pair[0]
        for call in (ledger.charge, ledger.record, ledger.can_afford):
            with pytest.raises(ValueError):
                call(0, epsilon)
        with pytest.raises(ValueError):
            ledger.record(0, 1.0, math.nan)
        self._same(pair, twin_pair)

    def test_refused_charge_under_a_cap_leaves_no_trace(self):
        pair, twin_pair = self._pair(epsilon_cap=3.0)
        with pytest.raises(BudgetExceededError):
            pair[0].charge(3, 7.0)      # a new, larger ε: not the worst yet
        self._same(pair, twin_pair)


class TestClusterLedgerEpochs:
    """Reshard epochs compose: spend is carried, never laundered."""

    def test_carry_preserves_spend(self):
        old = ClusterLedger(2)
        old.charge(0, 2.0)
        old.charge(0, 2.0)
        old.charge(1, 1.0)
        new = ClusterLedger(4, carried_from=old)
        report = new.report()
        assert report.epochs == 2
        assert report.queries == 3
        assert report.worst_shard_epsilon == pytest.approx(4.0)
        assert report.colluding_epsilon == pytest.approx(5.0)
        # Current-epoch per-shard ledgers start fresh...
        assert all(shard.queries == 0 for shard in report.per_shard)
        # ...but new charges compose on top of the carried spend.
        new.charge(1, 0.5)
        report = new.report()
        assert report.queries == 4
        assert report.worst_shard_epsilon == pytest.approx(4.0)
        assert report.colluding_epsilon == pytest.approx(5.5)

    def test_shrinking_keeps_departed_operator_history(self):
        old = ClusterLedger(3)
        old.charge(2, 7.0)     # the operator about to be dropped
        new = ClusterLedger(2, carried_from=old)
        report = new.report()
        # Operator 2 no longer hosts a shard but already saw 7.0 worth
        # of transcript; the lifetime figures must still say so.
        assert report.worst_shard_epsilon == pytest.approx(7.0)
        assert report.colluding_epsilon == pytest.approx(7.0)

    def test_cap_is_enforced_over_lifetime(self):
        from repro.analysis.ledger import BudgetExceededError

        old = ClusterLedger(2, epsilon_cap=3.0)
        old.charge(0, 2.0)
        new = ClusterLedger(2, epsilon_cap=3.0, carried_from=old)
        new.charge(0, 1.0)     # 2.0 carried + 1.0 = exactly at the cap
        with pytest.raises(BudgetExceededError):
            new.charge(0, 0.5)
        new.charge(1, 3.0)     # operator 1 spent nothing last epoch

    def test_chained_epochs_accumulate(self):
        ledger = ClusterLedger(2)
        ledger.charge(0, 1.0)
        for _ in range(3):
            ledger = ClusterLedger(2, carried_from=ledger)
            ledger.charge(0, 1.0)
        report = ledger.report()
        assert report.epochs == 4
        assert report.queries == 4
        assert report.worst_shard_epsilon == pytest.approx(4.0)

    def test_reshard_carries_cluster_ir_budget(self, rng):
        # Regression: reshard() used to build a fresh ClusterLedger,
        # silently forgetting the drained epoch's spend.
        blocks = integer_database(16)
        ir = ClusterIR(blocks, shard_count=2, replica_count=1,
                       pad_size=4, alpha=0.05, rng=rng.spawn("epoch"))
        for index in range(6):
            ir.query(index)
        before = ir.ledger.report()
        assert before.colluding_epsilon > 0.0
        ir.reshard(4)
        after = ir.ledger.report()
        assert after.epochs == 2
        assert after.queries == before.queries
        assert after.colluding_epsilon >= before.colluding_epsilon
        assert after.worst_shard_epsilon > 0.0
        ir.query(0)
        assert ir.ledger.report().colluding_epsilon > after.colluding_epsilon

    def test_reshard_carries_cluster_kvs_budget(self, rng):
        # The groups charge the ε DP-KVS's datasheet declares, so both
        # the charged-query count and the spend carry.
        kvs = ClusterKVS(n=16, value_size=8, shard_count=2,
                         replica_count=1, rng=rng.spawn("kv-epoch"))
        kvs.put(b"k1", b"v1")
        kvs.put(b"k2", b"v2")
        kvs.get(b"k1")
        before = kvs.ledger.report()
        assert before.queries > 0
        assert before.colluding_epsilon > 0.0
        kvs.reshard(4)
        after = kvs.ledger.report()
        assert after.epochs == 2
        assert after.queries == before.queries
        assert after.colluding_epsilon >= before.colluding_epsilon
        assert kvs.get(b"k2") == b"v2"
        assert kvs.ledger.report().queries > after.queries


def _group(rng, replicas=2, key=None, blocks=None, max_attempts=8):
    blocks = blocks if blocks is not None else integer_database(16)
    instances = [
        DPIR(blocks, pad_size=2, alpha=0.01, rng=rng.spawn(f"replica{i}"))
        for i in range(replicas)
    ]
    return ShardGroup(0, instances, key=key, max_attempts=max_attempts)


class TestShardGroupFailover:
    def test_fault_free_group_answers(self, rng):
        group = _group(rng)
        blocks = integer_database(16)
        for i in range(16):
            answer = group.query(i)
            assert answer is None or answer == blocks[i]
        assert group.failovers == 0
        assert group.fault_counters() == {}

    def test_dead_replica_fails_over(self, rng):
        from repro.storage.faults import FlakyServer, wrap_scheme_servers

        group = _group(rng)
        wrap_scheme_servers(
            group.replicas[0],
            lambda s: FlakyServer(s, 1.0, rng.spawn("faults")),
        )
        blocks = integer_database(16)
        for i in range(16):
            answer = group.query(i)
            assert answer is None or answer == blocks[i]
        # Every rotation that started on the dead replica had to move.
        assert group.failovers > 0
        assert group.fault_counters()["failovers"] == group.failovers

    def test_all_replicas_dead_raises(self, rng):
        from repro.storage.faults import FlakyServer, wrap_scheme_servers

        group = _group(rng, max_attempts=4)
        for replica in group.replicas:
            wrap_scheme_servers(
                replica, lambda s: FlakyServer(s, 1.0, rng.spawn("faults"))
            )
        with pytest.raises(GroupExhaustedError):
            group.query(3)

    def test_corruption_detected_with_authenticated_storage(self, rng):
        from repro.crypto.encryption import (
            encrypt_authenticated,
            generate_key,
        )
        from repro.storage.faults import CorruptingServer, wrap_scheme_servers

        key = generate_key(rng.spawn("key"))
        blocks = integer_database(16)
        enc_rng = rng.spawn("enc")
        stored = [encrypt_authenticated(key, b, enc_rng) for b in blocks]
        group = _group(rng, key=key, blocks=stored)
        wrap_scheme_servers(
            group.replicas[0],
            lambda s: CorruptingServer(s, 1.0, rng.spawn("faults")),
        )
        for i in range(16):
            answer = group.query(i)
            assert answer is None or answer == blocks[i]
        assert group.detected_corruptions > 0

    def test_alpha_error_is_not_retried(self, rng):
        # alpha = 1.0 means every query errs by the scheme's own coin;
        # the group must pass the error through, not fail over.
        blocks = integer_database(8)
        instances = [
            DPIR(blocks, pad_size=2, alpha=0.999999,
                 rng=rng.spawn(f"r{i}"))
            for i in range(2)
        ]
        group = ShardGroup(0, instances)
        assert group.query(3) is None
        assert group.failovers == 0


class TestFaultCounterSurface:
    def test_wrappers_report_uniformly(self, rng):
        from repro.storage.faults import (
            CorruptingServer,
            FlakyServer,
            ServerFault,
        )
        from repro.storage.server import StorageServer

        server = StorageServer(4)
        server.load(integer_database(4))
        flaky = FlakyServer(server, 1.0, rng.spawn("f"))
        with pytest.raises(ServerFault):
            flaky.read(0)
        assert flaky.fault_counters() == {"failed_operations": 1}

        corrupting = CorruptingServer(flaky, 0.0, rng.spawn("c"))
        # Nested wrappers merge inner counters.
        assert corrupting.fault_counters() == {
            "failed_operations": 1,
            "corrupted_reads": 0,
        }

    def test_scheme_fault_counters_aggregates(self, rng):
        from repro.storage.faults import (
            FlakyServer,
            scheme_fault_counters,
            wrap_scheme_servers,
        )

        scheme = DPIR(integer_database(8), pad_size=2, alpha=0.01,
                      rng=rng.spawn("s"))
        assert scheme_fault_counters(scheme) == {}
        wrap_scheme_servers(
            scheme, lambda s: FlakyServer(s, 0.0, rng.spawn("f"))
        )
        assert scheme_fault_counters(scheme) == {"failed_operations": 0}

    def test_wrap_scheme_servers_reaches_nested_kvs(self, rng):
        from repro.core.dp_kvs import DPKVS
        from repro.storage.faults import FlakyServer, wrap_scheme_servers

        kvs = DPKVS(16, rng=rng.spawn("kvs"))
        wrapped = wrap_scheme_servers(
            kvs, lambda s: FlakyServer(s, 0.0, rng.spawn("f"))
        )
        assert wrapped
        assert all(isinstance(w, FlakyServer) for w in wrapped)
        # The scheme's own server surface now reports the wrappers.
        assert any(isinstance(s, FlakyServer) for s in kvs.servers())

    def test_wrap_scheme_servers_reaches_every_recursive_level(self, rng):
        from repro.baselines.recursive_oram import RecursivePathORAM
        from repro.storage.faults import FlakyServer, wrap_scheme_servers

        # The level ORAMs sit in a list; each holds its own server.
        oram = RecursivePathORAM(
            integer_database(256), positions_per_block=4,
            client_map_limit=8, rng=rng.spawn("oram"),
        )
        assert oram.levels >= 3
        wrapped = wrap_scheme_servers(
            oram, lambda s: FlakyServer(s, 0.0, rng.spawn("f"))
        )
        assert len(wrapped) == oram.levels
        assert all(isinstance(s, FlakyServer) for s in oram.servers())

    def test_wrap_scheme_servers_requires_servers(self):
        from repro.storage.faults import wrap_scheme_servers

        class Empty:
            pass

        with pytest.raises(ValueError):
            wrap_scheme_servers(Empty(), lambda s: s)


class _SpawnRecorder(SeededRandomSource):
    """A seeded source that lists the labels of every child it spawns."""

    def __init__(self, seed):
        super().__init__(seed)
        self.spawned = []

    def spawn(self, label):
        self.spawned.append(label)
        return super().spawn(label)


class TestClusterArgumentsAreRefusedBeforeSealing:
    """Arguments only a shard group or a fault wrapper reads are checked
    by the cluster constructors, before the key is spawned or a shard
    built — with every fault rate at 0, too, where no wrapper exists."""

    @pytest.mark.parametrize("cluster_type, bad, match", [
        (ClusterIR, dict(fault_coin_mode="bogus"), "coin mode"),
        (ClusterKVS, dict(fault_coin_mode="bogus"), "coin mode"),
        (ClusterIR, dict(max_attempts=0), "max_attempts"),
    ])
    def test_bad_argument_is_a_value_error_before_any_seal(
        self, monkeypatch, cluster_type, bad, match
    ):
        import repro.cluster.scheme as scheme_module

        calls = []
        for name in ("encrypt_authenticated_many", "_build_base"):
            monkeypatch.setattr(
                scheme_module, name,
                lambda *args, name=name, **kwargs: calls.append(name),
            )
        rng = _SpawnRecorder(1)
        first = (
            integer_database(16, 8) if cluster_type is ClusterIR else 16
        )
        with pytest.raises(ValueError, match=match):
            cluster_type(
                first, failure_rate=0.0, corruption_rate=0.0, rng=rng, **bad
            )
        assert calls == []
        assert rng.spawned == []


class TestClusterSchemeBasics:
    def test_per_shard_epsilon_matches_single_server(self, rng):
        # n and K both divide by D, so the exact per-shard budget equals
        # the single-server budget (the module's invariance argument).
        from repro.analysis.dp_ir_exact import dpir_epsilon

        blocks = integer_database(64)
        single = dpir_epsilon(64, 8, 0.05)
        for shards in (1, 2, 4):
            ir = ClusterIR(
                blocks, shard_count=shards, replica_count=1,
                pad_size=8, alpha=0.05, rng=rng.spawn(f"c{shards}"),
            )
            assert ir.epsilon == pytest.approx(single)

    def test_per_server_storage_drops_with_shards(self, rng):
        blocks = integer_database(64)
        ir = ClusterIR(blocks, shard_count=4, replica_count=2,
                       pad_size=8, rng=rng.spawn("c"))
        assert ir.per_server_storage_blocks() == 16      # n/D
        assert ir.total_storage_blocks() == 128          # R*n

    def test_ledger_charges_every_query(self, rng):
        blocks = integer_database(32)
        ir = ClusterIR(blocks, shard_count=2, replica_count=1,
                       pad_size=4, rng=rng.spawn("c"))
        for i in range(10):
            ir.query(i % 32)
        report = ir.ledger.report()
        assert report.queries == 10
        assert report.per_query_epsilon == pytest.approx(ir.epsilon)

    def test_failover_retries_are_charged(self, rng):
        # A dead replica forces retries; every retry redraws a pad set
        # visible to the shard operator, so the ledger charges more
        # draws than there were logical queries.
        blocks = integer_database(32)
        ir = ClusterIR(blocks, shard_count=2, replica_count=2,
                       pad_size=4, alpha=0.01, failure_rate=(1.0, 0.0),
                       rng=rng.spawn("c"))
        for i in range(12):
            ir.query(i)
        report = ir.ledger.report()
        assert ir.query_count == 12
        assert report.queries > 12
        assert report.worst_shard_epsilon > 6 * ir.epsilon

    def test_rejects_wrong_base_kind(self, rng):
        with pytest.raises(ValueError, match="IR base"):
            ClusterIR(integer_database(8), base="dp_kvs",
                      rng=rng.spawn("c"))
        with pytest.raises(ValueError, match="KVS base"):
            ClusterKVS(16, base="dp_ir", rng=rng.spawn("c"))

    def test_rejects_a_base_no_ledger_can_charge(self, rng):
        # Their sheets declare no finite ε (no privacy at all).
        with pytest.raises(ValueError, match="no finite epsilon"):
            ClusterIR(integer_database(8), base="strawman_ir",
                      rng=rng.spawn("c"))
        with pytest.raises(ValueError, match="no finite epsilon"):
            ClusterKVS(16, base="plaintext_kvs", rng=rng.spawn("c"))

    def test_kvs_routes_and_tracks_directory(self, rng):
        kvs = ClusterKVS(32, shard_count=2, replica_count=2,
                         value_size=8, rng=rng.spawn("kvs"))
        kvs.put(b"a", b"1")
        kvs.put(b"b", b"22")
        assert kvs.size == 2
        assert kvs.get(b"a") == b"1"
        assert kvs.delete(b"a") is True
        assert kvs.size == 1
        assert kvs.get(b"a") is None

    def test_kvs_writes_replicate(self, rng):
        kvs = ClusterKVS(32, shard_count=1, replica_count=3,
                         value_size=8, rng=rng.spawn("kvs"))
        kvs.put(b"k", b"v")
        for replica in kvs.groups[0].replicas:
            assert replica.get(b"k") == b"v"


def _server_counter_total(cluster):
    return sum(server.reads + server.writes for server in cluster.servers())


def _visible_state(cluster):
    """Everything a refused operation must leave exactly as it was."""
    return (
        [group.draws for group in cluster.groups],
        [(server.reads, server.writes) for server in cluster.servers()],
        cluster.shard_query_counts(),
        cluster.server_operations(),
        cluster.wall_operations(),
        cluster.fault_counters(),
        cluster.ledger.report(),
    )


class TestEpsilonCapIsAnAdmissionCheck:
    """``epsilon_cap`` refuses an operation before it starts and never
    hides a draw that was served (PR 14: the cap used to raise *after*
    dispatch, dropping charges, accounting and a served answer)."""

    @staticmethod
    def _ir_pair(cap_draws, **kwargs):
        """Twin capped clusters (same seed) plus the per-draw ε."""
        def build(**extra):
            return ClusterIR(
                integer_database(64, 16), shard_count=2, replica_count=2,
                pad_size=8, rng=SeededRandomSource(5), **kwargs, **extra,
            )

        epsilon = build().epsilon
        cap = cap_draws * epsilon
        return build(epsilon_cap=cap), build(epsilon_cap=cap), epsilon

    @pytest.mark.parametrize("refused", [
        lambda ir: ir.query(2),
        lambda ir: ir.query_many([40, 2, 3]),   # shard 1 affordable, 0 not
    ], ids=["query", "query_many"])
    def test_refused_ir_operation_leaves_no_trace(self, refused):
        ir, twin, _ = self._ir_pair(2.5)
        for cluster in (ir, twin):
            cluster.query(0)
            cluster.query(1)            # shard 0 has spent 2 of its 2.5
        with pytest.raises(BudgetExceededError):
            refused(ir)
        assert ir.query_count == twin.query_count == 2
        assert _visible_state(ir) == _visible_state(twin)
        # No coin was drawn either: both go on to the same transcript.
        for cluster in (ir, twin):
            cluster.attach_transcript(Transcript())
        assert ir.query_many([40, 41]) == twin.query_many([40, 41])
        assert (ir.detach_transcript().signature()
                == twin.detach_transcript().signature())

    @pytest.mark.parametrize("refused", [
        lambda kvs, key: kvs.get(key),
        lambda kvs, key: kvs.put(key, b"again"),
    ], ids=["get", "put"])
    def test_refused_kvs_operation_leaves_no_trace(self, refused):
        def build(cap=None):
            return ClusterKVS(
                64, shard_count=2, replica_count=2, value_size=16,
                epsilon_cap=cap, rng=SeededRandomSource(5),
            )

        # The groups charge the ε DP-KVS's datasheet declares.
        cap = 4.5 * build().groups[0].epsilon
        kvs, twin = build(cap), build(cap)
        for cluster in (kvs, twin):
            cluster.put(b"k", b"one")   # a write is a draw per replica
            cluster.put(b"k", b"two")   # the shard has spent 4 of 4.5
        with pytest.raises(BudgetExceededError):
            refused(kvs, b"k")
        assert kvs.operation_count == twin.operation_count == 2
        assert kvs.size == twin.size == 1
        assert _visible_state(kvs) == _visible_state(twin)

    def test_failover_overshoot_is_served_and_fully_recorded(self):
        # Replica 0 is dead, so the first read of a shard is two draws
        # (the fault, then the survivor).  One draw is all admission can
        # be certain of, and it fits; the retry overshoots the cap.
        ir, _, epsilon = self._ir_pair(
            1.5, failure_rate=(1.0, 0.0), alpha=1e-6,
        )
        assert ir.query(0) == integer_database(64, 16)[0]
        assert ir.groups[0].draws == 2
        assert ir.ledger.queries == 2
        spent = ir.ledger.shard_ledger(0).epsilon_spent
        assert spent == pytest.approx(2 * epsilon)
        assert ir.server_operations() == _server_counter_total(ir) > 0
        with pytest.raises(BudgetExceededError):
            ir.query(1)                 # the shard is now closed

    def test_ledger_matches_visible_draws_through_a_faulty_history(self):
        ir, _, _ = self._ir_pair(
            12, failure_rate=(0.3, 0.0), corruption_rate=0.05,
        )
        coins = random.Random(3)
        refusals = 0
        for _ in range(60):
            try:
                if coins.random() < 0.5:
                    ir.query(coins.randrange(64))
                else:
                    ir.query_many(
                        [coins.randrange(64) for _ in range(4)]
                    )
            except BudgetExceededError:
                refusals += 1
            draws = sum(group.draws for group in ir.groups)
            assert ir.ledger.queries == draws
            assert ir.server_operations() == _server_counter_total(ir)
        assert refusals > 0
        assert ir.fault_counters()["failovers"] > 0


class TestClusterKVSReshardValidatesFirst:
    @pytest.mark.parametrize("target", [0, -1])
    def test_bad_target_is_refused_before_the_drain(self, rng, target):
        kvs = ClusterKVS(32, shard_count=2, replica_count=2,
                         value_size=8, rng=rng.spawn("kvs"))
        stored = {bytes([65 + i]): bytes([i]) * 3 for i in range(10)}
        for key, value in stored.items():
            kvs.put(key, value)
        operations = kvs.server_operations()
        with pytest.raises(ValueError, match="shard count must be positive"):
            kvs.reshard(target)
        assert kvs.shard_count == 2
        assert kvs.reshard_count == 0
        assert kvs.server_operations() == operations     # nothing drained
        assert {key: kvs.get(key) for key in stored} == stored


class TestClusterKVSKeySpellings:
    # ``dp_kvs`` zero-pads keys, so ``b"k2"`` and ``b"k2\x00"`` are one
    # key.  The cluster used to route and count the raw spelling: the
    # second landed on another shard (or counted twice on the same one).

    def test_trailing_nuls_are_one_key_as_in_the_base_scheme(self):
        kvs = ClusterKVS(256, shard_count=2, replica_count=2,
                         rng=SeededRandomSource(1))
        kvs.put(b"k2", b"one")
        assert kvs.get(b"k2\x00") == b"one"
        kvs.put(b"k2\x00", b"two")
        assert kvs.get(b"k2") == b"two"
        assert kvs.get_many([b"k2", b"k2\x00\x00"]) == [b"two", b"two"]
        assert kvs.size == 1
        assert kvs.delete(b"k2\x00\x00") is True
        assert (kvs.size, kvs.get(b"k2")) == (0, None)

    def test_differential_history_against_a_single_dp_kvs(self):
        coins = random.Random(20)
        stems = [f"k{i}".encode() for i in range(12)] + [b"", b"sixteen-byte-key"]
        single = DPKVS(256, value_size=8, rng=SeededRandomSource(2))
        cluster = ClusterKVS(256, shard_count=3, replica_count=2,
                             value_size=8, rng=SeededRandomSource(3))

        def spelled():
            stem = coins.choice(stems)
            return stem + b"\x00" * coins.randrange(min(4, 17 - len(stem)))

        for step in range(240):
            coin = coins.random()
            if coin < 0.4:
                key, value = spelled(), coins.randbytes(coins.randrange(9))
                assert cluster.put(key, value) == single.put(key, value)
            elif coin < 0.6:
                key = spelled()
                assert cluster.get(key) == single.get(key), (step, key)
            elif coin < 0.8:
                batch = [spelled() for _ in range(coins.randrange(1, 6))]
                assert cluster.get_many(batch) == single.get_many(batch)
            else:
                key = spelled()
                assert cluster.delete(key) == single.delete(key), (step, key)
            assert cluster.size == single.size, step
            if step == 120:
                # The directory holds one spelling per stored key: the
                # migration re-inserts each pair once, where it is found.
                assert cluster.reshard(2).shards_after == 2
                assert cluster.size == single.size
        assert cluster.size == single.size > 0

    def test_unstorable_key_is_refused_before_anything_is_charged(self):
        kvs = ClusterKVS(32, shard_count=2, replica_count=2,
                         value_size=8, rng=SeededRandomSource(4))
        kvs.put(b"kept", b"v")
        before = _visible_state(kvs)
        too_long = b"x" * 16 + b"\x00"     # dp_kvs rejects it, NUL or not
        for call in (
            lambda: kvs.put(too_long, b"v"),
            lambda: kvs.get(too_long),
            lambda: kvs.get_many([b"kept", too_long]),
            lambda: kvs.delete(too_long),
        ):
            with pytest.raises(BlockSizeError, match="key of 17 bytes"):
                call()
        assert _visible_state(kvs) == before
        assert (kvs.size, kvs.get(b"kept")) == (1, b"v")


def test_benchmark_patch_points_are_defined_on_the_named_class():
    # benchmarks/e2e/spans.py patches vars(cls)[name]: a method hoisted
    # into a base class would break the traced pass with a KeyError.
    spans = pytest.importorskip("benchmarks.e2e.spans")
    for _, target, names, _, _ in spans.POINTS:
        module_name, _, class_name = target.partition(":")
        if class_name:
            owner = getattr(importlib.import_module(module_name), class_name)
            assert set(names) <= set(vars(owner)), target


class TestSchemesListing:
    def test_listing_contains_names_and_aliases(self):
        import repro

        listings = {entry.name: entry for entry in repro.schemes()}
        assert "cluster_dp_ir" in listings
        assert "cluster_dpir" in listings["cluster_dp_ir"].aliases
        assert "dpir" in listings["dp_ir"].aliases
        assert listings["dp_ram"].aliases == ("dpram",)
        for entry in listings.values():
            assert entry.kind in ("ir", "ram", "kvs")
            assert entry.summary

    def test_kind_filter(self):
        from repro.api import schemes

        kinds = {entry.kind for entry in schemes("kvs")}
        assert kinds == {"kvs"}
        names = {entry.name for entry in schemes("kvs")}
        assert "cluster_dp_kvs" in names
        assert "dp_ir" not in names
