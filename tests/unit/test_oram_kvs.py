"""Tests for repro.baselines.oram_kvs."""

import pytest

from repro.baselines.oram_kvs import ORAMKeyValueStore, default_bucket_capacity
from repro.storage.errors import CapacityError


@pytest.fixture
def store(rng):
    return ORAMKeyValueStore(64, key_size=8, value_size=8,
                             rng=rng.spawn("okvs"))


class TestDefaultBucketCapacity:
    def test_grows_with_buckets(self):
        assert default_bucket_capacity(2**20) > default_bucket_capacity(2**8)

    def test_positive_for_small(self):
        for m in (1, 2, 3, 10):
            assert default_bucket_capacity(m) >= 3

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            default_bucket_capacity(0)


class TestORAMKVS:
    def test_get_missing(self, store):
        assert store.get(b"nope") is None

    def test_put_get(self, store):
        store.put(b"key", b"val")
        assert store.get(b"key").rstrip(b"\x00") == b"val"

    def test_update(self, store):
        store.put(b"k", b"v1")
        store.put(b"k", b"v2")
        assert store.get(b"k").rstrip(b"\x00") == b"v2"
        assert store.size == 1

    def test_many_keys(self, rng):
        store = ORAMKeyValueStore(128, key_size=8, value_size=8,
                                  rng=rng.spawn("many"))
        for i in range(100):
            store.put(f"k{i}".encode(), f"v{i}".encode())
        for i in range(100):
            assert store.get(f"k{i}".encode()).rstrip(b"\x00") == f"v{i}".encode()
        assert store.overflow_count == 0

    def test_delete(self, store):
        store.put(b"k", b"v")
        store.flush()
        assert store.delete(b"k") is True
        assert store.get(b"k") is None
        assert store.delete(b"k") is False

    def test_bucket_overflow_raises(self, rng):
        store = ORAMKeyValueStore(8, key_size=8, value_size=8,
                                  bucket_capacity=1, rng=rng.spawn("tiny"))
        with pytest.raises(CapacityError):
            for i in range(9):
                store.put(f"k{i}".encode(), b"v")
        assert store.overflow_count == 1

    def test_cost_is_oram_access(self, store):
        before = store.server.operations
        store.get(b"anything")
        store.flush()  # the access's own write-back, sent on its own
        assert store.server.operations - before == store.blocks_per_operation()

    def test_put_costs_two_accesses(self, store):
        # The write's path shares its top nodes, the root at least, with
        # the read's, whose write-back it holds: those go neither way.
        before = store.server.operations
        store.put(b"k", b"v")
        store.flush()
        moved = store.server.operations - before
        saved = 2 * store.blocks_per_operation() - moved
        z = store.oram.bucket_size
        assert saved % (2 * z) == 0
        assert 2 * z <= saved <= store.blocks_per_operation()

    def test_operation_counter(self, store):
        store.put(b"a", b"1")
        store.get(b"a")
        assert store.operation_count == 2

    def test_bucket_block_size(self, rng):
        store = ORAMKeyValueStore(16, key_size=4, value_size=4,
                                  bucket_capacity=3, rng=rng.spawn("sz"))
        # Each entry stores key (4) + length prefix (2) + padded value (4).
        assert store.bucket_block_size == 2 + 3 * (4 + 2 + 4)
