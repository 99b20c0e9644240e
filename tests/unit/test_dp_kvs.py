"""Tests for repro.core.dp_kvs (Section 7)."""

import pytest
from dp_ram_view import record_bucket_pairs

import repro
from repro.core.dp_kvs import DPKVS
from repro.crypto.rng import SeededRandomSource
from repro.storage.errors import (
    BlockSizeError,
    CapacityError,
    MappingOverflowError,
)
from repro.storage.faults import (
    CorruptingServer,
    ServerFault,
    wrap_scheme_servers,
)


@pytest.fixture
def store(rng):
    return DPKVS(64, key_size=8, value_size=8, rng=rng.spawn("kvs"))


class TestBasicOperations:
    def test_get_missing_returns_none(self, store):
        assert store.get(b"absent") is None

    def test_put_then_get(self, store):
        store.put(b"alpha", b"one")
        value = store.get(b"alpha")
        assert value is not None
        assert value.rstrip(b"\x00") == b"one"

    def test_update_existing(self, store):
        store.put(b"k", b"v1")
        store.put(b"k", b"v2")
        assert store.get(b"k").rstrip(b"\x00") == b"v2"
        assert store.size == 1

    def test_many_keys(self, rng):
        store = DPKVS(128, key_size=8, value_size=8, rng=rng.spawn("many"))
        items = {f"k{i}".encode(): f"v{i}".encode() for i in range(100)}
        for key, value in items.items():
            store.put(key, value)
        assert store.size == 100
        for key, value in items.items():
            assert store.get(key).rstrip(b"\x00") == value

    def test_delete(self, store):
        store.put(b"gone", b"x")
        assert store.delete(b"gone") is True
        assert store.get(b"gone") is None
        assert store.size == 0

    def test_delete_missing(self, store):
        assert store.delete(b"never") is False

    def test_delete_then_reinsert(self, store):
        store.put(b"k", b"v1")
        store.delete(b"k")
        store.put(b"k", b"v2")
        assert store.get(b"k").rstrip(b"\x00") == b"v2"

    def test_delete_from_super_root(self, rng):
        # Tiny node capacity forces super-root spills.
        store = DPKVS(16, key_size=8, value_size=8, node_capacity=1,
                      leaves_per_tree=2, rng=rng.spawn("spill"))
        for i in range(16):
            store.put(f"k{i}".encode(), b"v")
        if store.super_root_size > 0:
            # delete something that lives in the super root
            for i in range(16):
                key = f"k{i}".encode()
                before = store.super_root_size
                if store.delete(key) and store.super_root_size < before:
                    assert store.get(key) is None
                    return
        pytest.skip("no super-root resident key materialized")

    def test_capacity_enforced(self, rng):
        store = DPKVS(4, key_size=8, value_size=8, rng=rng.spawn("cap"))
        for i in range(4):
            store.put(f"k{i}".encode(), b"v")
        with pytest.raises(CapacityError):
            store.put(b"extra", b"v")

    def test_refused_put_finishes_both_queries(self):
        # The refusal comes after the download round; it must still run
        # the upload round, or the batch stays open forever.
        store = DPKVS(8, key_size=8, value_size=8,
                      rng=SeededRandomSource(1))
        stored = {f"k{i}".encode(): f"v{i}".encode() for i in range(8)}
        for key, value in stored.items():
            store.put(key, value)
        log = record_bucket_pairs(store._ram)
        operations = store.operation_count
        with pytest.raises(CapacityError):
            store.put(b"extra", b"v")
        assert len(log) == 2
        assert store.size == 8
        assert store.operation_count == operations
        assert store.get(b"extra") is None
        for key, value in stored.items():
            assert store.get(key) == value

    def test_refused_spill_finishes_both_queries(self, rng):
        store = DPKVS(64, key_size=8, value_size=8, node_capacity=1,
                      leaves_per_tree=2, phi=1,
                      enforce_super_root_capacity=True, rng=rng.spawn("sre"))
        log = record_bucket_pairs(store._ram)
        stored = []
        with pytest.raises(MappingOverflowError):
            for i in range(64):
                store.put(f"key{i}".encode(), b"v")
                stored.append(f"key{i}".encode())
        assert len(log) == 2 * (len(stored) + 1)
        assert store.size == len(stored)
        assert store.super_root_size == 1
        for key in stored:
            assert store.get(key) == b"v"

    def test_update_allowed_at_capacity(self, rng):
        store = DPKVS(2, key_size=8, value_size=8, rng=rng.spawn("cap2"))
        store.put(b"a", b"1")
        store.put(b"b", b"2")
        store.put(b"a", b"3")  # update, not insert
        assert store.get(b"a").rstrip(b"\x00") == b"3"


class TestTransientFaults:
    def test_faulted_get_does_not_brick_the_buckets(self, fail_rounds):
        store = repro.build("dp_kvs", n=256, seed=5)
        store.put(b"key", b"value")
        fail_rounds(store, True)
        with pytest.raises(ServerFault):
            store.get(b"key")
        assert store.get(b"key") == b"value"
        store.put(b"key", b"other")
        assert store.get(b"key") == b"other"

    def test_get_after_faulted_put_is_never_garbage(self, fail_rounds):
        # An operation is one request, sent before the client's state
        # moves: a put whose request faults was never made.  (When the
        # upload was a round of its own the answer could be either value.)
        store = repro.build("dp_kvs", n=256, seed=5)
        store.put(b"key", b"old")
        fail_rounds(store, True, False, True)
        with pytest.raises(ServerFault):
            store.put(b"key", b"new")
        assert store.get(b"key") == b"old"
        with pytest.raises(ServerFault):
            store.put(b"fresh", b"new")
        assert store.get(b"fresh") is None
        assert store.get(b"key") == b"old"
        store.put(b"key", b"new")
        assert store.get(b"key") == b"new"
        assert store.size == 1

    @pytest.mark.parametrize("operation, key", [
        ("get", b"k2"), ("delete", b"k5"),
    ])
    def test_a_garbled_node_fails_one_operation_not_the_store(
        self, operation, key
    ):
        # Unauthenticated, a node whose bits flipped in transit decodes to
        # a count prefix no node can hold.  The request had gone out, so
        # the operation commits as a read before that error reaches the
        # caller; it used to leave its batch open, and every later
        # operation was refused for it.
        store = DPKVS(64, rng=SeededRandomSource(1))
        log = record_bucket_pairs(store._ram)
        stored = {b"k%d" % i: b"v%d" % i for i in range(8)}
        for stored_key, value in stored.items():
            store.put(stored_key, value)
        (garbling,) = wrap_scheme_servers(
            store, lambda server: CorruptingServer(
                server, 1.0, SeededRandomSource(15)
            ),
        )
        pairs = len(log)
        with pytest.raises(CapacityError, match="count prefix"):
            getattr(store, operation)(key)
        assert len(log) == pairs + 2
        assert store._ram._link.held[0] == pairs  # its upload, held
        garbling._rate = 0.0
        # The read wrote back what it decoded; other buckets are clean.
        moved = {
            node
            for pair in log[pairs:]
            for bucket in pair
            for node in store._ram.bucket_nodes(bucket)
        }
        clean = [
            stored_key for stored_key in stored
            if moved.isdisjoint(
                node
                for bucket in store._prf.choices(
                    store._codec.normalize_key(stored_key),
                    store._layout.bucket_count, store.params.choices,
                )
                for node in store._ram.bucket_nodes(bucket)
            )
        ]
        assert clean
        for stored_key in clean:
            assert store.get(stored_key) == stored[stored_key]


class TestKeyValueNormalization:
    def test_short_keys_padded(self, store):
        store.put(b"k", b"v")
        assert store.get(b"k\x00\x00") is not None  # same normalized key

    def test_oversize_key_rejected(self, store):
        with pytest.raises(BlockSizeError):
            store.put(b"x" * 9, b"v")

    def test_oversize_value_rejected(self, store):
        with pytest.raises(BlockSizeError):
            store.put(b"k", b"v" * 9)

    def test_value_returned_exact(self, store):
        # The PrivateKVS contract: get returns precisely the bytes put,
        # with the fixed-size storage padding stripped by the scheme.
        store.put(b"k", b"v")
        assert store.get(b"k") == b"v"

    def test_value_with_trailing_zeros_preserved(self, store):
        store.put(b"k", b"v\x00\x00")
        assert store.get(b"k") == b"v\x00\x00"


def _cost_of_last_operation(store, log) -> int:
    """Blocks the last operation's two ``(d_j, o_j)`` pairs (the last two
    of ``log``) account for: every node of ``d_1 ‖ d_2 ‖ o_1 ‖ o_2``
    downloaded once and every node of ``o_1 ‖ o_2`` uploaded once — a
    function of the pairs alone."""
    pairs = log[-2:]
    nodes = store._ram.bucket_nodes
    overwritten = {n for _, o in pairs for n in nodes(o)}
    downloaded = {n for d, _ in pairs for n in nodes(d)}
    return len(downloaded | overwritten) + len(overwritten)


class TestBandwidthShape:
    def test_cost_is_set_by_the_coins_not_the_operation(self, store):
        # Reads and writes, hits and misses: what moves is the distinct
        # nodes of the operation's (d_j, o_j) pairs, whatever was asked.
        log = record_bucket_pairs(store._ram)
        store.put(b"seed", b"x")
        store.flush()
        operations = [
            lambda: store.get(b"seed"),
            lambda: store.put(b"seed", b"y"),
            lambda: store.get(b"miss"),
            lambda: store.put(b"fresh", b"z"),
            lambda: store.delete(b"seed"),
            lambda: store.delete(b"miss"),
        ]
        for step in range(60):
            before = store.server.operations
            operations[step % len(operations)]()
            store.flush()  # the operation's own upload, not the last one's
            moved = store.server.operations - before
            assert moved == _cost_of_last_operation(store, log)

    def test_cost_is_at_most_the_declared_worst_case(self, store):
        # blocks_per_operation() = 2·3·path_length counts every node of
        # d ‖ o as distinct; d_j = o_j (probability (1-p)^2) saves a path.
        worst_case = store.blocks_per_operation()
        path_length = store.params.shape.path_length
        costs = set()
        for step in range(40):
            before = store.server.operations
            store.get(b"key-%d" % step)
            store.flush()
            costs.add(store.server.operations - before)
        assert max(costs) <= worst_case
        assert min(costs) > 2 * path_length
        assert worst_case - 2 * path_length in costs  # both d_j = o_j

    def test_blocks_per_operation_formula(self, store):
        shape = store.params.shape
        assert store.blocks_per_operation() == 6 * shape.path_length

    def test_operation_counter(self, store):
        store.put(b"a", b"1")
        store.get(b"a")
        store.delete(b"a")
        assert store.operation_count == 3

    def test_two_bucket_pairs_per_operation(self, store):
        log = record_bucket_pairs(store._ram)
        store.get(b"q")
        assert len(log) == 2


class TestServerStorage:
    def test_server_nodes_linear(self, rng):
        for n in (64, 256, 1024):
            store = DPKVS(n, rng=rng.spawn(f"lin{n}"))
            assert store.server_node_count <= 3 * n

    def test_node_block_size(self, rng):
        # Each entry stores key (4) + length prefix (2) + padded value (4).
        store = DPKVS(64, key_size=4, value_size=4, node_capacity=3,
                      rng=rng.spawn("sz"))
        assert store.node_block_size == 2 + 3 * (4 + 2 + 4)


class TestSuperRoot:
    def test_spills_counted(self, rng):
        store = DPKVS(32, key_size=8, value_size=8, node_capacity=1,
                      leaves_per_tree=2, rng=rng.spawn("sr"))
        for i in range(32):
            store.put(f"key{i}".encode(), b"v")
        # With node capacity 1 and tiny trees some keys must spill.
        assert store.super_root_peak >= 0
        for i in range(32):
            assert store.get(f"key{i}".encode()) is not None

    def test_enforcement_raises(self, rng):
        from repro.storage.errors import MappingOverflowError

        store = DPKVS(64, key_size=8, value_size=8, node_capacity=1,
                      leaves_per_tree=2, phi=1,
                      enforce_super_root_capacity=True, rng=rng.spawn("sre"))
        with pytest.raises(MappingOverflowError):
            for i in range(64):
                store.put(f"key{i}".encode(), b"v")

    def test_client_peak_includes_super_root(self, store):
        store.put(b"k", b"v")
        assert store.client_peak_blocks >= store.super_root_peak


class TestStashChurnCorrectness:
    def test_heavy_stash_probability(self, rng):
        # Force the bucket DP-RAM to stash aggressively: phi = bucket count.
        store = DPKVS(32, key_size=8, value_size=8, phi=4096,
                      rng=rng.spawn("heavy"))
        reference = {}
        source = rng.spawn("heavy-ops")
        for step in range(150):
            key = f"k{source.randbelow(20)}".encode()
            if source.random() < 0.5 and reference:
                lookup = source.choice(sorted(reference))
                value = store.get(lookup)
                assert value is not None
                assert value.rstrip(b"\x00") == reference[lookup]
            else:
                value = f"v{step}".encode()
                store.put(key, value)
                reference[key] = value


class TestChoiceCacheDeterminism:
    """The PRF bucket-choice cache must never change a single draw.

    Choices are a pure function of the key, so serving them from the
    memo (or pre-warming it for a whole ``get_many`` round) has to leave
    answers, transcripts and the rng stream bit-identical to evaluating
    the PRF fresh on every operation.
    """

    @staticmethod
    def _drive(store, clear_cache):
        answers = []
        for step in range(60):
            key = f"k{step % 17}".encode()
            if clear_cache:
                store._choice_cache.clear()
            if step % 3 == 0:
                store.put(key, f"v{step}".encode())
            elif step % 3 == 1:
                answers.append(store.get(key))
            else:
                answers.append(store.delete(key))
        return answers

    def test_cached_and_uncached_runs_are_bit_identical(self, rng):
        seed = rng.spawn("choice-cache").bytes(8)
        cached = DPKVS(64, key_size=8, value_size=8, rng=_seeded(seed))
        uncached = DPKVS(64, key_size=8, value_size=8, rng=_seeded(seed))
        cached_log = record_bucket_pairs(cached._ram)
        uncached_log = record_bucket_pairs(uncached._ram)
        a = self._drive(cached, clear_cache=False)
        b = self._drive(uncached, clear_cache=True)
        assert a == b
        assert cached_log == uncached_log
        assert cached._rng.bytes(8) == uncached._rng.bytes(8)

    def test_get_many_prewarm_matches_sequential_gets(self, rng):
        seed = rng.spawn("prewarm").bytes(8)
        batched = DPKVS(64, key_size=8, value_size=8, rng=_seeded(seed))
        sequential = DPKVS(64, key_size=8, value_size=8, rng=_seeded(seed))
        batched_log = record_bucket_pairs(batched._ram)
        sequential_log = record_bucket_pairs(sequential._ram)
        for store in (batched, sequential):
            for i in range(10):
                store.put(f"k{i}".encode(), f"v{i}".encode())
        keys = [f"k{i}".encode() for i in (3, 9, 3, 12, 0)]
        assert batched.get_many(keys) == [
            sequential.get(key) for key in keys
        ]
        assert batched_log == sequential_log

    def test_cache_stays_bounded(self, rng):
        store = DPKVS(
            2048, key_size=8, value_size=8, rng=rng.spawn("bound")
        )
        store._CHOICE_CACHE_LIMIT = 16
        for i in range(64):
            store.get(f"miss{i}".encode())
        assert len(store._choice_cache) <= 16


def _seeded(seed):
    from repro.crypto.rng import SeededRandomSource

    return SeededRandomSource(seed)
