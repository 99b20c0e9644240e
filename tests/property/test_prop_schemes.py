"""Property-based tests: every storage scheme vs a reference model.

The central invariant of the whole library — privacy mechanisms must never
change answers.  Hypothesis drives random operation sequences against
DP-RAM, Path ORAM, BucketDPRAM and DP-KVS, comparing against plain dicts.
"""

import hashlib
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.oram_kvs import ORAMKeyValueStore
from repro.baselines.path_oram import PathORAM
from repro.baselines.recursive_oram import RecursivePathORAM
from repro.core.bucket_ram import BucketDPRAM
from repro.core.dp_kvs import DPKVS
from repro.core.dp_ram import DPRAM
from repro.crypto.rng import SeededRandomSource
from repro.storage.blocks import encode_int, integer_database
from repro.storage.errors import RetrievalError


N = 12

ram_ops = st.lists(
    st.tuples(
        st.sampled_from(["read", "write"]),
        st.integers(min_value=0, max_value=N - 1),
        st.integers(min_value=0, max_value=10**6),
    ),
    max_size=40,
)


class TestDPRAMModel:
    @given(ops=ram_ops, seed=st.integers(0, 2**32),
           p=st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_matches_dict_model(self, ops, seed, p):
        ram = DPRAM(integer_database(N), stash_probability=p,
                    rng=SeededRandomSource(seed))
        model = {i: encode_int(i) for i in range(N)}
        for kind, index, payload in ops:
            if kind == "read":
                assert ram.read(index) == model[index]
            else:
                value = encode_int(payload)
                ram.write(index, value)
                model[index] = value

    @given(ops=ram_ops, seed=st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_constant_bandwidth_invariant(self, ops, seed):
        ram = DPRAM(integer_database(N), rng=SeededRandomSource(seed))
        for kind, index, payload in ops:
            before = ram.server.operations
            if kind == "read":
                ram.read(index)
            else:
                ram.write(index, encode_int(payload))
            assert ram.server.operations - before == 3


class TestPathORAMModel:
    @given(ops=ram_ops, seed=st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_matches_dict_model(self, ops, seed):
        oram = PathORAM(integer_database(N), rng=SeededRandomSource(seed))
        model = {i: encode_int(i) for i in range(N)}
        for kind, index, payload in ops:
            if kind == "read":
                assert oram.read(index) == model[index]
            else:
                value = encode_int(payload)
                oram.write(index, value)
                model[index] = value


_DUMMY = (1 << 64) - 1
_INDEX_BYTES = 8
_LEAF_BYTES = 4


class GreedyScanPathORAM(PathORAM):
    """The access ``PathORAM`` shipped before the one-pass eviction.

    Kept verbatim as the placement oracle: write-back rescans the whole
    stash once per path node (``_evict_into``), walking leaf-to-root per
    entry (``_node_on_path``), and every slot goes through the
    byte-slicing codec.  ``PathORAM`` must reproduce its every choice.
    """

    def _access(self, index, new_value, transform=None):
        if not 0 <= index < self._n:
            raise RetrievalError(f"index {index} out of range for n={self._n}")
        self._server.begin_query(self._queries)
        self._queries += 1

        new_leaf = self._rng.randbelow(self._leaves)
        leaf = self._resolver(index, new_leaf)

        path = self._path_nodes(leaf)
        path_slots = [
            slot for node in path for slot in self._slot_range(node)
        ]
        for raw in self._server.read_many(path_slots):
            stored_index, tag, payload = self._decode(raw)
            if stored_index != _DUMMY:
                self._stash[stored_index] = (tag, payload)
        if len(self._stash) > self._stash_peak:
            self._stash_peak = len(self._stash)

        if index not in self._stash:
            raise RetrievalError(
                f"block {index} missing from path and stash (corrupt state)"
            )
        result = self._stash[index][1]
        if transform is not None:
            new_value = bytes(transform(result))
        if new_value is not None:
            if len(new_value) != self._block_size:
                raise ValueError(
                    f"value must be {self._block_size} bytes, got {len(new_value)}"
                )
            self._stash[index] = (new_leaf, new_value)
        else:
            self._stash[index] = (new_leaf, result)

        uploads = []
        for node in reversed(path):  # path is root-first; evict leaf-first
            placed = self._evict_into(node)
            for offset, slot in enumerate(self._slot_range(node)):
                if offset < len(placed):
                    stored_index = placed[offset]
                    tag, payload = self._stash.pop(stored_index)
                    uploads.append(
                        (slot, self._encode(stored_index, tag, payload))
                    )
                else:
                    uploads.append((slot, self._encode(_DUMMY, 0, b"")))
        self._server.write_many(uploads)
        return result

    def _evict_into(self, node):
        """Stash blocks whose tagged path passes through ``node``."""
        placed = []
        for stored_index, (tag, _) in self._stash.items():
            if len(placed) >= self._z:
                break
            if self._node_on_path(node, tag):
                placed.append(stored_index)
        return placed

    def _path_nodes(self, leaf):
        """Heap node ids (0-based) from the root down to ``leaf``."""
        node = self._leaves - 1 + leaf  # 0-based heap position of the leaf
        path = []
        while True:
            path.append(node)
            if node == 0:
                break
            node = (node - 1) // 2
        path.reverse()
        return path

    def _node_on_path(self, node, leaf):
        current = self._leaves - 1 + leaf
        while True:
            if current == node:
                return True
            if current == 0:
                return False
            current = (current - 1) // 2

    def _slot_range(self, node):
        return range(node * self._z, (node + 1) * self._z)

    def _encode(self, index, tag, payload):
        padded = payload + b"\x00" * (self._block_size - len(payload))
        return (
            index.to_bytes(_INDEX_BYTES, "big")
            + tag.to_bytes(_LEAF_BYTES, "big")
            + padded
        )

    def _decode(self, slot):
        index = int.from_bytes(slot[:_INDEX_BYTES], "big")
        tag = int.from_bytes(
            slot[_INDEX_BYTES : _INDEX_BYTES + _LEAF_BYTES], "big"
        )
        return index, tag, slot[_INDEX_BYTES + _LEAF_BYTES :]


def _server_image(scheme) -> list[bytes]:
    return [
        server.peek(slot)
        for server in scheme.servers()
        for slot in range(server.capacity)
    ]


class TestPathORAMPlacementIdentity:
    @given(
        n=st.sampled_from([1, 2, 3, 5, 12, 37, 64, 100, 1000]),
        z=st.sampled_from([1, 2, 4]),
        seed=st.integers(0, 2**32),
        length=st.integers(0, 300),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_pass_eviction_matches_greedy_scan(self, n, z, seed, length):
        # Histories are seeded rather than drawn op by op: the choices only
        # diverge once a bucket overflows into the level above, which
        # short shrinkable lists almost never reach.
        oram = PathORAM(
            integer_database(n), bucket_size=z, rng=SeededRandomSource(seed)
        )
        greedy = GreedyScanPathORAM(
            integer_database(n), bucket_size=z, rng=SeededRandomSource(seed)
        )
        assert _server_image(oram) == _server_image(greedy)
        plan = random.Random(seed)
        for step in range(length):
            index = plan.randrange(n)
            if plan.random() < 0.5:
                oram.write(index, encode_int(10**6 + step))
                greedy.write(index, encode_int(10**6 + step))
            else:
                assert oram.read(index) == greedy.read(index)
            assert list(oram._stash.items()) == list(greedy._stash.items())
        assert _server_image(oram) == _server_image(greedy)
        assert oram.stash_peak == greedy.stash_peak

    def test_composed_schemes_keep_their_server_image(self):
        # SHA-256 of the final server image, computed at the commit before
        # the one-pass eviction: both schemes compose ``PathORAM`` and
        # must not see the rewrite.
        recursive = RecursivePathORAM(
            integer_database(200),
            positions_per_block=4,
            client_map_limit=8,
            rng=SeededRandomSource(11),
        )
        plan = random.Random(5)
        for step in range(300):
            index = plan.randrange(200)
            if plan.random() < 0.5:
                recursive.write(index, encode_int(10**6 + step))
            else:
                recursive.read(index)
        assert hashlib.sha256(b"".join(_server_image(recursive))).hexdigest() == (
            "055412a09934fde895e5398da87c7c795fbbab72366b7f3a78870ddf85e56b18"
        )

        store = ORAMKeyValueStore(
            64, key_size=8, value_size=8, rng=SeededRandomSource(13)
        )
        plan = random.Random(7)
        for step in range(300):
            key = b"k%03d" % plan.randrange(48)
            roll = plan.random()
            if roll < 0.45:
                store.put(key, b"v%05d" % step)
            elif roll < 0.9:
                store.get(key)
            else:
                store.delete(key)
        assert hashlib.sha256(b"".join(_server_image(store))).hexdigest() == (
            "30165f7bb0aa2de6dad8a12638e9570d96db5ddc3b77bf00975912b9714cd708"
        )


class TestBucketDPRAMModel:
    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 255)), max_size=30
        ),
        seed=st.integers(0, 2**32),
        p=st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_overlapping_buckets_consistent(self, ops, seed, p):
        # 4 buckets sharing node 8 plus pairwise shared mid nodes.
        buckets = [(0, 4, 8), (1, 4, 8), (2, 5, 8), (3, 5, 8)]
        blocks = [bytes([i]) * 4 for i in range(9)]
        ram = BucketDPRAM(blocks, buckets, stash_probability=p,
                          rng=SeededRandomSource(seed))
        model = {node: blocks[node] for node in range(9)}
        for bucket, payload in ops:
            target = buckets[bucket][payload % 3]
            value = bytes([payload]) * 4
            snapshot = ram.query(bucket, new_contents={target: value})
            for node in buckets[bucket]:
                assert snapshot[node] == model[node]
            model[target] = value


kv_ops = st.lists(
    st.tuples(
        st.sampled_from(["get", "put", "delete"]),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=255),
    ),
    max_size=30,
)


class TestDPKVSModel:
    @given(ops=kv_ops, seed=st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_matches_dict_model(self, ops, seed):
        store = DPKVS(64, key_size=4, value_size=4,
                      rng=SeededRandomSource(seed))
        model: dict[bytes, bytes] = {}
        for kind, key_id, payload in ops:
            key = f"k{key_id:02d}".encode()
            if kind == "get":
                value = store.get(key)
                if key.ljust(4, b"\x00") in model:
                    assert value == model[key.ljust(4, b"\x00")]
                else:
                    assert value is None
            elif kind == "put":
                value = bytes([payload]) * 4
                store.put(key, value)
                model[key.ljust(4, b"\x00")] = value
            else:
                existed = store.delete(key)
                assert existed == (key.ljust(4, b"\x00") in model)
                model.pop(key.ljust(4, b"\x00"), None)

    def test_server_image_pinned_across_cipher_rewrites(self):
        # SHA-256 of every server slot after a seeded history, computed at
        # the commit before the PBKDF2 keystream: 330-byte node blocks go
        # through the bulk cipher's long-stream path on every query, so
        # one differing keystream byte or nonce draw changes the digest.
        store = DPKVS(1024, value_size=64, rng=SeededRandomSource(17))
        plan = random.Random(19)
        for step in range(500):
            key = b"key-%04d" % plan.randrange(700)
            roll = plan.random()
            if roll < 0.5:
                store.put(key, b"value-%06d" % step)
            elif roll < 0.9:
                store.get(key)
            else:
                store.delete(key)
        assert store.block_size == 330
        assert hashlib.sha256(b"".join(_server_image(store))).hexdigest() == (
            "8b341f74f3c2d52945404d12e50e75b9c529c30e59f9094c66b29f8feb9a02a2"
        )

    @given(seed=st.integers(0, 2**32))
    @settings(max_examples=20, deadline=None)
    def test_operation_cost_constant_for_fixed_n(self, seed):
        store = DPKVS(64, key_size=4, value_size=4,
                      rng=SeededRandomSource(seed))
        expected = store.blocks_per_operation()
        costs = set()
        for i in range(10):
            before = store.server.operations
            store.put(f"k{i}".encode(), b"v")
            costs.add(store.server.operations - before)
        assert costs == {expected}
