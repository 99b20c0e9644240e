"""Scale guards: no hidden superlinear behaviour at moderate sizes.

These are not micro-benchmarks (``benchmarks/e2e`` owns timing); they run
the schemes at sizes large enough that an accidental O(n)-per-query bug
(or an O(n²) setup) would blow past the generous wall-clock ceilings.
The memory guards count allocations with ``tracemalloc``, which repeats
exactly: neither a wall clock nor the process's RSS is read.
"""

import time
import tracemalloc

import pytest
from dp_ram_view import record_bucket_pairs, seen_pairs, watch

from repro.core.dp_ir import DPIR
from repro.core.dp_kvs import DPKVS
from repro.core.dp_ram import DPRAM
from repro.crypto.encryption import encrypt_many, generate_key
from repro.storage.blocks import encode_int, integer_database


N = 1 << 14  # 16384


class TestDPRAMScale:
    def test_setup_and_queries(self, rng):
        started = time.perf_counter()
        ram = DPRAM(integer_database(N), rng=rng.spawn("ram"))
        setup_seconds = time.perf_counter() - started

        started = time.perf_counter()
        source = rng.spawn("ops")
        for step in range(500):
            index = source.randbelow(N)
            if step % 3 == 0:
                ram.write(index, encode_int(step))
            else:
                ram.read(index)
        query_seconds = time.perf_counter() - started

        assert setup_seconds < 20.0   # O(n) encryption passes
        assert query_seconds < 5.0    # O(1) per query
        assert ram.query_count == 500

    def test_bandwidth_flat_at_scale(self, rng):
        ram = DPRAM(integer_database(N), rng=rng.spawn("ram"))
        log = watch(ram)
        before = ram.server.operations
        for _ in range(100):
            ram.read(rng.randbelow(N))
        ram.flush()  # the hundredth upload
        # Three blocks a query at most, two when d_j = o_j — which at this
        # n (p = Φ(n)/n is small) is nearly every query.
        shared = sum(d == o for d, o in seen_pairs(log, ram))
        assert ram.server.operations - before == 300 - shared
        assert shared >= 90


class TestQueryHistoryMemory:
    def test_dp_ram_keeps_no_query_history(self, rng):
        # A served scheme kept (d_j, o_j) of every query it ever answered,
        # as two int64 columns: 16 B a query, never trimmed.  The pairs are
        # the server's view, and the client now keeps none: what a query
        # leaves behind is the stash moving by a record, well under a byte
        # a query over the run.  Traced from before the build, so a
        # rewritten server slot frees what it replaces.
        tracemalloc.start()
        try:
            ram = DPRAM(integer_database(1024), rng=rng.spawn("ram"))
            source = rng.spawn("ops")
            before, _ = tracemalloc.get_traced_memory()
            for _ in range(20_000):
                ram.read(source.randbelow(1024))
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ram.query_count == 20_000
        assert (after - before) / 20_000 <= 1


class TestDPIRScale:
    def test_constant_pad_at_scale(self, rng):
        import math

        scheme = DPIR(integer_database(N), epsilon=math.log(N), alpha=0.05,
                      rng=rng.spawn("ir"))
        assert scheme.pad_size <= 25
        started = time.perf_counter()
        for _ in range(500):
            scheme.query(rng.randbelow(N))
        assert time.perf_counter() - started < 5.0


class TestDPKVSScale:
    def test_insert_and_query_thousand_keys(self, rng):
        store = DPKVS(N, rng=rng.spawn("kvs"))
        started = time.perf_counter()
        for i in range(1000):
            store.put(f"key-{i:05d}".encode(), f"val-{i}".encode())
        insert_seconds = time.perf_counter() - started

        started = time.perf_counter()
        for i in range(0, 1000, 7):
            value = store.get(f"key-{i:05d}".encode())
            assert value is not None
        query_seconds = time.perf_counter() - started

        assert insert_seconds < 30.0
        assert query_seconds < 10.0
        assert store.size == 1000
        # Server storage stays ~2n node blocks regardless of fill level.
        assert store.server_node_count < 3 * N

    def test_cost_independent_of_fill(self, rng):
        # What an operation moves is the distinct nodes of its two
        # (d_j, o_j) pairs — each downloaded once, those of o_j uploaded
        # once — on an empty store and a filled one alike, and never
        # more than the declared 2·3·path_length.
        store = DPKVS(1 << 12, rng=rng.spawn("kvs"))
        nodes = store._ram.bucket_nodes
        log = record_bucket_pairs(store._ram)

        def probe(key):
            store.flush()  # the previous operation's upload is not ours
            before = store.server.operations
            store.get(key)
            store.flush()
            pairs = log[-2:]
            overwritten = {n for _, o in pairs for n in nodes(o)}
            downloaded = {n for d, _ in pairs for n in nodes(d)}
            moved = store.server.operations - before
            assert moved == len(downloaded | overwritten) + len(overwritten)
            assert moved <= store.blocks_per_operation()

        probe(b"empty-probe")
        for i in range(200):
            store.put(f"k{i}".encode(), b"v")
        probe(b"k7")


def _peak_over_held(build):
    """Traced peak while ``build()`` ran, over what its result holds."""
    tracemalloc.start()
    try:
        result = build()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result is not None  # alive while the two figures were read
    return peak / held


class TestSetupMemory:
    # Setup seals the whole database in ONE bulk call.  When that call
    # XORed the batch as a single integer, five database-sized temporaries
    # were alive at once and setup, not steady state, set the process's
    # peak memory (3.56x / 2.96x / 2.93x the result on the three builds
    # below).  The kernel now works a tile at a time; what is left above
    # 1.0 is the one nonce draw and the growth slack of the output list.

    def test_bulk_seal_peaks_at_its_own_result(self, rng):
        key = generate_key(rng)
        blocks = [bytes(330)] * 31_744  # the node array of DPKVS(16384)
        ratio = _peak_over_held(lambda: encrypt_many(key, blocks, rng))
        assert ratio <= 1.25

    def test_dp_kvs_build_peaks_at_the_built_store(self, rng):
        ratio = _peak_over_held(
            lambda: DPKVS(N, value_size=64, rng=rng.spawn("kvs"))
        )
        assert ratio <= 1.25

    def test_dp_ram_build_peaks_at_the_built_store(self, rng):
        blocks = integer_database(N)
        ratio = _peak_over_held(lambda: DPRAM(blocks, rng=rng.spawn("ram")))
        assert ratio <= 1.5


@pytest.mark.parametrize("exponent", [10, 12, 14])
class TestGeometryScaling:
    def test_tree_nodes_linear(self, exponent):
        from repro.hashing.tree_buckets import TreeBucketLayout

        n = 1 << exponent
        layout = TreeBucketLayout.for_capacity(n)
        assert layout.node_count <= 3 * n

    def test_path_loglog(self, exponent):
        import math

        from repro.core.params import DPKVSParams

        n = 1 << exponent
        params = DPKVSParams.for_capacity(n)
        assert params.shape.path_length <= math.log2(math.log2(n)) + 4
