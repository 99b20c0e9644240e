"""Property-based tests for the cluster layer.

The headline invariant: for any shard/replica geometry, placement and
reshard target, every logical index retrieves its own block — before
the migration, after it, and with a dead replica in every group.
"""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.router import HashRouter, RangeRouter
from repro.cluster.scheme import ClusterIR, ClusterKVS
from repro.crypto.rng import SeededRandomSource
from repro.obs.tracer import Tracer, canonical_trace
from repro.storage.blocks import integer_database
from repro.storage.transcript import Transcript


def _read(ir, index):
    """Retry the α coin; the pad draw is fresh per attempt."""
    for _ in range(64):
        answer = ir.query(index)
        if answer is not None:
            return answer
    raise AssertionError(f"index {index} never answered")


class TestClusterRetrievalProperties:
    @settings(max_examples=12, deadline=None)
    @given(
        n=st.integers(8, 48),
        shards=st.integers(1, 4),
        new_shards=st.integers(1, 4),
        placement=st.sampled_from(["range", "hash"]),
        kill_first_replica=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_every_index_retrieves_across_reshard_and_failure(
        self, n, shards, new_shards, placement, kill_first_replica, seed
    ):
        shards = min(shards, n)
        new_shards = min(new_shards, n)
        blocks = integer_database(n)
        ir = ClusterIR(
            blocks,
            shard_count=shards,
            replica_count=2,
            placement=placement,
            pad_size=min(4, n),
            alpha=0.05,
            failure_rate=(1.0, 0.0) if kill_first_replica else 0.0,
            rng=SeededRandomSource(seed),
        )
        for index in range(n):
            assert _read(ir, index) == blocks[index]
        ir.reshard(new_shards)
        assert ir.shard_count == new_shards
        for index in range(n):
            assert _read(ir, index) == blocks[index]

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(2, 256),
        shards=st.integers(1, 8),
        loads=st.lists(st.floats(0.0, 1000.0), min_size=1, max_size=8),
    )
    def test_range_rebalance_is_a_partition(self, n, shards, loads):
        shards = min(shards, n)
        router = RangeRouter(n, shards)
        rebalanced = router.rebalanced((loads * shards)[:shards])
        owned = rebalanced.assignment()
        flattened = [index for shard in owned for index in shard]
        assert sorted(flattened) == list(range(n))
        assert all(shard for shard in owned)    # every shard non-empty

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 256), shards=st.integers(1, 8))
    def test_hash_router_is_a_partition(self, n, shards):
        shards = min(shards, n)
        router = HashRouter(n, shards)
        owned = router.assignment()
        flattened = [index for shard in owned for index in shard]
        assert sorted(flattened) == list(range(n))


@st.composite
def _routers(draw):
    """A range router with random valid boundaries, or a hash router."""
    n = draw(st.integers(1, 300))
    shards = draw(st.integers(1, min(n, 12)))
    if draw(st.booleans()):
        return HashRouter(n, shards)
    if draw(st.booleans()):
        return RangeRouter(n, shards)
    cuts = draw(st.lists(
        st.integers(1, n - 1), min_size=shards - 1, max_size=shards - 1,
        unique=True,
    )) if shards > 1 else []
    return RangeRouter(n, shards, boundaries=[0, *sorted(cuts), n])


class TestRouterAssignment:
    @settings(max_examples=80, deadline=None)
    @given(router=_routers())
    def test_assignment_is_the_per_index_grouping_by_shard_of(self, router):
        expected = [[] for _ in range(router.shard_count)]
        for index in range(router.n):
            expected[router.shard_of(index)].append(index)
        assert router.assignment() == expected


# -- seeded-history pins ---------------------------------------------------
#
# The fingerprints below were computed at the commit *before* ClusterIR /
# ClusterKVS were rebuilt on one shared base: everything an operator, the
# ledger or a report can see of a seeded faulty history must not move.


def _sorted_per_query(transcript):
    """A view reduced to its per-(query, server) sorted events.

    What is left when the order of events *within* one client query is
    forgotten — the event multiset a DP analysis over ``(d_j, o_j)``
    depends on — while the order of queries is kept.
    """
    return tuple(sorted(
        transcript.signature(),
        key=lambda event: (event[3], event[1], event[0], event[2]),
    ))


class _History:
    """Collects what one seeded cluster history exposed."""

    def __init__(self, cluster, view=Transcript.signature):
        self.cluster = cluster
        self._view = view
        self.seen = []
        self._transcripts = []
        self._attach()

    def _attach(self):
        self._transcripts = []
        for server in self.cluster.servers():
            transcript = Transcript()
            server.attach_transcript(transcript)
            self._transcripts.append(transcript)

    def note(self, value):
        self.seen.append(repr(value))

    def migrate(self, operation, *args):
        """Run a migration; the old servers' views are final after it."""
        old = self._transcripts
        report = operation(*args)
        self.note([self._view(transcript) for transcript in old])
        self.note(report)
        self._attach()

    def fingerprint(self):
        cluster = self.cluster
        cluster.flush()
        self.note([self._view(t) for t in self._transcripts])
        self.note(cluster.ledger.report())
        self.note(sorted(cluster.fault_counters().items()))
        self.note(cluster.server_operations())
        self.note(cluster.wall_operations())
        self.note(cluster.shard_query_counts())
        self.note(json.dumps(
            canonical_trace(cluster.tracer.export()), sort_keys=True
        ))
        digest = hashlib.sha256()
        for item in self.seen:
            digest.update(item.encode())
            digest.update(b"\x00")
        return digest.hexdigest()


def _ir_history_fingerprint(base, executor):
    n = 64
    coins = random.Random(2019)
    cluster = ClusterIR(
        integer_database(n, 16),
        base=base,
        shard_count=2,
        replica_count=2,
        pad_size=8,
        failure_rate=(0.3, 0.0),
        corruption_rate=0.05,
        authenticated=True,
        rng=SeededRandomSource(14),
        executor=executor,
        tracer=Tracer("pin"),
    )
    history = _History(cluster)

    def traffic(ops):
        for _ in range(ops):
            if coins.random() < 0.5:
                history.note(cluster.query(coins.randrange(n)))
            else:
                batch = [
                    coins.randrange(n)
                    for _ in range(coins.randrange(1, 9))
                ]
                history.note(cluster.query_many(batch))

    traffic(40)
    history.migrate(cluster.reshard, 3)
    traffic(30)
    history.migrate(cluster.rebalance)
    traffic(30)
    history.note((cluster.query_count, cluster.error_count))
    return history.fingerprint()


def _kvs_history_fingerprint(executor, view=Transcript.signature):
    coins = random.Random(7)
    keys = [f"key-{i:02d}".encode() for i in range(24)]
    cluster = ClusterKVS(
        64,
        shard_count=2,
        replica_count=2,
        value_size=16,
        failure_rate=(1.0, 0.0),
        rng=SeededRandomSource(14),
        executor=executor,
        tracer=Tracer("pin"),
    )
    history = _History(cluster, view)

    def traffic(ops):
        for _ in range(ops):
            coin = coins.random()
            key = coins.choice(keys)
            if coin < 0.4:
                history.note(cluster.put(key, coins.randbytes(12)))
            elif coin < 0.65:
                history.note(cluster.get(key))
            elif coin < 0.85:
                batch = coins.sample(keys, coins.randrange(1, 7))
                history.note(cluster.get_many(batch))
            else:
                history.note(cluster.delete(key))

    traffic(60)
    history.migrate(cluster.reshard, 3)
    traffic(40)
    history.note((cluster.operation_count, cluster.size))
    return history.fingerprint()


# Re-pinned when pad sets became one entropy draw carved into K indices
# (``RandomSource.sample_distinct``): a seed now yields different pads of
# the same distribution, so every slot these histories read moved.  The
# KVS pins below draw no pad set and did not.
_IR_PINS = {
    ("dp_ir", "serial"):
        "676eccd6f5831d88b7db70cb0e97ec0f7adf620a3c1f7c646539fa9cc89fc7b5",
    ("dp_ir", "parallel"):
        "4575ca8d4ae59bc04cad6717cbca2559e794a87b66236d21c44997698bfe1584",
    ("batch_dp_ir", "serial"):
        "19447afa3cd41a084b897e7b5fd138bb7a77f634e629b77cf739ab84d20e41c1",
    ("batch_dp_ir", "parallel"):
        "d358538d57bcbf52abae5fec9968b7cc751a91e1d1d73a5d9bd757271ae1b8b8",
}

# Re-pinned twice.  First when DP-KVS went from six storage rounds per
# operation to two: ``Transcript.signature()`` is ordered, and an
# operation's events went from R d1, R d2, R o1, W o1, R o2, W o2 to
# R(d1 d2 o1 o2) W(o1 o2).  Then when the two rounds stopped listing a
# node twice (d_j = o_j, a tree node two paths share): the views are now
# φ (``dedupe_rounds`` in ``conftest.py``) of the old ones, and the four
# figures that count slots moved with them — ``migration_operations`` /
# ``serial_ms`` of the reshard report, 264 -> 196, and serial / wall
# operations, 4296 -> 3396.  Checked at the re-pin, on all three
# executors: the parent's history hashed with φ applied to its views
# differs from this one in those figures and nowhere else — answers,
# ledger report, fault counters, shard query counts and the trace are
# equal, and so is every view, in order.
#
# The serial pin then held when an operation's upload started riding in
# the next operation's request (the history flushes where it reads a
# view: before a migration, inside its drain, after its re-insertion, at
# the end).  The two overlapped pins were re-pinned a third time there,
# for two figures and nothing else — every view, answer, report line and
# serial figure is the parent's: ``wall_operations`` 1970 -> 1945 and the
# reshard's ``wall_clock_ms`` 12.0 -> 15.5.  A stage is priced at its
# slowest leg, and a leg is now "the previous upload, then these
# downloads" where it was "these downloads, then their upload"; a max
# over legs does not survive moving work between stages.
# Both tables were re-pinned once more when the shard groups took their
# ε from the replicas' datasheet: DP-KVS had no ``epsilon`` attribute,
# so every draw was charged 0.  Only ``ledger.report()`` moved — with
# the group ε forced back to 0 the history hashes to the old pins.
# Both tables were re-pinned again when a reshard started counting its
# re-insertion writes (the new generation's puts and flushes) beside its
# drain.  Three of the history's 110 items moved, on both executors and
# in both views: the reshard report (``migration_operations`` 196 -> 410,
# ``serial_ms`` 98.02 -> 205.05, ``wall_clock_ms`` 98.02 -> 205.05 serial
# and 15.50 -> 62.01 overlapped), ``serial_operations`` 3396 -> 3610 and
# ``wall_operations`` 3396 -> 3610 serial, 1945 -> 2038 overlapped.  With
# the re-insertion terms forced to 0 the history hashes to the old pins.
# All IR and KVS pins moved once more when the cluster stopped pricing
# itself: the reshard report's ``serial_ms`` / ``wall_clock_ms`` gave way
# to ``wall_operations`` (op-units), and the history notes
# ``server_operations()``, now the same cumulative count.  With the old
# report rebuilt from the new one under LAN (``serial_ms`` =
# ``migration_operations`` × per-op, ``wall_clock_ms`` =
# ``wall_operations`` × per-op) every history hashes to the old pins.
_KVS_PINS = {
    "serial":
        "75ce820c98a655d4010be2d299f58fba4568e1550c6ccdf2222bc2011bf71316",
    "parallel":
        "8494a6c933ca4ecd23bacc90d309dd709a2417ee82c15d43f8a8ba75625876d7",
}

# The same KVS history with every transcript reduced to its
# per-(query, server) sorted events.  It held across the fusion of six
# rounds into two (which only reorders events inside one client query),
# and was re-pinned with ``_KVS_PINS`` for the dedupe, which is the first
# change to the event *multiset* of a query: repeats are gone from it.
# The overlapped two moved with ``_KVS_PINS`` for the held upload (two
# wall-clock figures), the serial one did not.  All four moved with
# ``_KVS_PINS`` for the counted re-insertion, in the same three items.
_KVS_UNORDERED_PINS = {
    "serial":
        "2a9cd9b3c2e558391c52a246057def9b0577cf22670dbeffb9639fd1d0c154b6",
    "parallel":
        "ffff6f024d0333e4527eaf4f14bf718b5937d72f6920163dfdc6b037a7fb97df",
}


class TestSeededHistoryPins:
    @pytest.mark.parametrize("base,executor", sorted(_IR_PINS))
    def test_cluster_ir_history_is_pinned(self, base, executor):
        assert (
            _ir_history_fingerprint(base, executor)
            == _IR_PINS[base, executor]
        )

    @pytest.mark.parametrize("executor", sorted(_KVS_PINS))
    def test_cluster_kvs_history_is_pinned(self, executor):
        assert _kvs_history_fingerprint(executor) == _KVS_PINS[executor]

    @pytest.mark.parametrize("executor", sorted(_KVS_UNORDERED_PINS))
    def test_cluster_kvs_history_is_pinned_up_to_order_in_a_query(
        self, executor
    ):
        assert (
            _kvs_history_fingerprint(executor, _sorted_per_query)
            == _KVS_UNORDERED_PINS[executor]
        )
