"""Tests for repro.baselines.oram_kvs."""

import pytest

from repro.baselines.oram_kvs import ORAMKeyValueStore, default_bucket_capacity
from repro.storage.errors import CapacityError
from repro.storage.transcript import AccessKind, Transcript


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

    @pytest.mark.parametrize("case", [
        "put new", "put existing", "put overflow", "get hit", "get miss",
        "delete hit", "delete miss",
    ])
    def test_every_operation_is_one_access(self, rng, case):
        # Whether an operation writes, finds its key or overflows, the
        # server sees one Path ORAM access: one request of one length.
        store = ORAMKeyValueStore(8, key_size=8, value_size=8,
                                  bucket_capacity=1, rng=rng.spawn("one"))
        store.put(b"k", b"v")

        def shares_k(key):
            bucket = store._bucket_for(store._codec.normalize_key(key))
            return bucket == store._bucket_for(store._codec.normalize_key(b"k"))

        candidates = [b"x%d" % i for i in range(64)]
        full = next(key for key in candidates if shares_k(key))
        other = next(key for key in candidates if not shares_k(key))
        operation, found = case.split()
        key = {"new": other, "existing": b"k", "overflow": full,
               "hit": b"k", "miss": other}[found]
        store.flush()
        log = Transcript()
        store.server.attach_transcript(log)
        accesses = store.oram.query_count
        if operation == "put":
            if case == "put overflow":
                with pytest.raises(CapacityError):
                    store.put(key, b"w")
            else:
                store.put(key, b"w")
        else:
            getattr(store, operation)(key)
        assert store.oram.query_count - accesses == 1
        assert {event.query for event in log} == {accesses}
        assert [event.kind for event in log] == (
            [AccessKind.DOWNLOAD] * (store.blocks_per_operation() // 2)
        )

    def test_operation_counter(self, store):
        store.put(b"a", b"1")
        store.get(b"a")
        assert store.operation_count == 2

    def test_bucket_block_size(self, rng):
        store = ORAMKeyValueStore(16, key_size=4, value_size=4,
                                  bucket_capacity=3, rng=rng.spawn("sz"))
        # Each entry stores key (4) + length prefix (2) + padded value (4).
        assert store.bucket_block_size == 2 + 3 * (4 + 2 + 4)
