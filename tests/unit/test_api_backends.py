"""Tests for repro.storage.backends and its threading through servers."""

import gc

import pytest

from repro.storage.backends import (
    InMemoryBackend,
    NetworkBackend,
    NetworkBackendFactory,
)
from repro.storage.errors import StorageError
from repro.storage.network import LAN, WAN
from repro.storage.server import ServerPool, StorageServer


class TestInMemoryBackend:
    def test_round_trip(self):
        backend = InMemoryBackend(4)
        assert backend.capacity == 4
        assert backend.read_slot(2) is None
        backend.write_slot(2, b"abc")
        assert backend.read_slot(2) == b"abc"

    def test_load_replaces_everything(self):
        backend = InMemoryBackend(3)
        backend.load([b"a", b"b", b"c"])
        assert [backend.read_slot(i) for i in range(3)] == [b"a", b"b", b"c"]

    def test_load_size_checked(self):
        with pytest.raises(StorageError):
            InMemoryBackend(3).load([b"a"])

    def test_load_stores_the_handed_bytes_and_copies_the_rest(self):
        # ``bytes`` blocks are stored as the objects handed in; anything
        # else becomes ``bytes``.  The caller's list is not the slot list.
        first, mutable = b"first block", bytearray(b"mutable")
        blocks = [first, mutable, memoryview(b"view")]
        backend = InMemoryBackend(3)
        backend.write_slot(1, b"old")
        assert backend.missing_slots == 2
        backend.load(blocks)
        assert backend.missing_slots == 0
        assert backend.read_slot(0) is first
        stored = backend.read_slots([0, 1, 2])
        assert stored == [b"first block", b"mutable", b"view"]
        assert {type(block) for block in stored} == {bytes}
        mutable[:] = b"CHANGED"
        blocks[0] = b"replaced"
        assert backend.read_slots([0, 1]) == [b"first block", b"mutable"]

    def test_rejected_load_overwrites_nothing(self):
        backend = InMemoryBackend(2)
        backend.write_slot(0, b"kept")
        for wrong in ([], [b"a"], [b"a", b"b", b"c"]):
            with pytest.raises(StorageError, match="expected 2 blocks"):
                backend.load(wrong)
        assert backend.read_slots([0, 1]) == [b"kept", None]
        assert backend.missing_slots == 1
        assert backend.capacity == 2

    def test_negative_capacity_rejected(self):
        with pytest.raises(StorageError):
            InMemoryBackend(-1)


_BACKENDS = {
    "memory": InMemoryBackend,
    "network": lambda capacity: NetworkBackend(capacity, LAN),
}


@pytest.fixture(params=sorted(_BACKENDS))
def make_backend(request):
    return _BACKENDS[request.param]


class TestBackendContract:
    """What every backend keeps, priced or not: a link stores exactly
    what the list under it stores."""

    def test_unwritten_slots_stay_none(self, make_backend):
        # "Never written" is not a block of zeros.
        backend = make_backend(3)
        backend.write_slot(1, b"\x00" * 16)
        assert backend.read_slot(0) is None
        assert backend.read_slot(1) == b"\x00" * 16
        assert backend.read_slots([0, 1, 2]) == [None, b"\x00" * 16, None]

    def test_blocks_of_any_size_come_back(self, make_backend):
        backend = make_backend(3)
        backend.load([b"aa", b"bbbb", b""])
        backend.write_slot(0, b"a longer block")
        assert backend.read_slots([0, 1, 2]) == [
            b"a longer block", b"bbbb", b"",
        ]

    def test_read_slots_in_order(self, make_backend):
        backend = make_backend(3)
        backend.load([b"aa", b"bb", b"cc"])
        assert backend.read_slots([2, 0, 2]) == [b"cc", b"aa", b"cc"]

    def test_write_slots_batch(self, make_backend):
        backend = make_backend(4)
        backend.write_slots([(0, b"a" * 4), (3, b"d" * 4), (0, b"e" * 4)])
        assert backend.read_slots([0, 1, 2, 3]) == [
            b"e" * 4, None, None, b"d" * 4,
        ]

    def test_returns_bytes_not_views(self, make_backend):
        # Callers hold onto blocks, both ways: a block read stays what it
        # was, and a buffer written and then changed does not reach the
        # slot.
        backend = make_backend(2)
        backend.load([b"aa", b"bb"])
        block = backend.read_slot(0)
        written = bytearray(b"yy")
        backend.write_slot(0, b"zz")
        backend.write_slots([(1, written)])
        written[:] = b"!!"
        assert block == b"aa"
        assert backend.read_slots([0, 1]) == [b"zz", b"yy"]
        assert {type(b) for b in backend.read_slots([0, 1])} == {bytes}

    def test_peek_reads_what_a_read_reads(self, make_backend):
        backend = make_backend(2)
        backend.write_slot(1, b"seen")
        assert [backend.peek_slot(i) for i in range(2)] == (
            backend.read_slots([0, 1])
        )

    def test_serves_a_storage_server(self, make_backend):
        server = StorageServer(4, backend=make_backend(4))
        server.load([b"x" * 8] * 4)
        server.write(2, b"y" * 8)
        assert [server.read(i) for i in (1, 2)] == [b"x" * 8, b"y" * 8]


class TestNetworkBackend:
    def test_charges_rtt_and_transfer(self):
        backend = NetworkBackend(4, WAN)
        backend.write_slot(0, b"x" * 1000)
        expected = WAN.rtt_ms + WAN.transfer_ms(1000)
        assert backend.simulated_ms == pytest.approx(expected)
        backend.read_slot(0)
        assert backend.roundtrips == 2
        assert backend.simulated_ms == pytest.approx(2 * expected)

    def test_load_is_free(self):
        backend = NetworkBackend(2, WAN)
        backend.load([b"a", b"b"])
        assert backend.simulated_ms == 0.0
        assert backend.read_slot(0) == b"a"

    def test_peek_is_free(self):
        backend = NetworkBackend(2, WAN)
        backend.load([b"a", b"b"])
        assert backend.peek_slot(1) == b"b"
        assert backend.simulated_ms == 0.0
        assert backend.roundtrips == 0

    def test_server_peek_charges_nothing(self):
        server = StorageServer(2, backend=NetworkBackend(2, WAN))
        server.load([b"a", b"b"])
        assert server.peek(0) == b"a"
        assert server.backend.simulated_ms == 0.0

    def test_wraps_existing_backend(self):
        inner = InMemoryBackend(2)
        inner.write_slot(1, b"z")
        backend = NetworkBackend(inner, LAN)
        assert backend.capacity == 2
        assert backend.read_slot(1) == b"z"
        assert backend.model is LAN

    def test_mixed_sequence_accumulates_exactly(self):
        # The serving layer derives dispatch service times from these
        # accumulators, so the sum must match the per-access formula.
        backend = NetworkBackend(4, WAN)
        backend.load([b"a" * 100, b"b" * 200, b"c" * 300, b"d" * 400])
        backend.read_slot(0)                 # 100 bytes down
        backend.write_slot(1, b"x" * 500)    # 500 bytes up
        backend.read_slot(2)                 # 300 bytes down
        moved = (100, 500, 300)
        expected = sum(WAN.rtt_ms + WAN.transfer_ms(b) for b in moved)
        assert backend.roundtrips == 3
        assert backend.simulated_ms == pytest.approx(expected)

    def test_unwritten_slot_read_charges_rtt_only(self):
        backend = NetworkBackend(2, WAN)
        assert backend.read_slot(0) is None
        assert backend.simulated_ms == pytest.approx(WAN.rtt_ms)

    def test_accumulation_is_monotone(self):
        backend = NetworkBackend(2, LAN)
        backend.load([b"a", b"b"])
        seen = []
        for _ in range(5):
            backend.read_slot(0)
            seen.append(backend.simulated_ms)
        assert seen == sorted(seen)
        assert seen[-1] == pytest.approx(5 * seen[0])


class TestNetworkBackendFactory:
    def test_keeps_only_its_model(self):
        # Link time is read off the backends a scheme's servers hold;
        # the factory holds none of them, so a dropped one is freed.
        factory = NetworkBackendFactory(WAN)
        made = [factory(2), factory(3)]
        assert [backend.capacity for backend in made] == [2, 3]
        assert {backend.model for backend in made} == {factory.model} == {WAN}
        gc.collect()
        holders = [
            type(holder).__name__
            for holder in gc.get_referrers(*made) if holder is not made
        ]
        assert holders == []


class TestServerBackendThreading:
    def test_server_defaults_to_memory(self):
        server = StorageServer(4)
        assert isinstance(server.backend, InMemoryBackend)

    def test_server_uses_injected_backend(self):
        backend = NetworkBackend(4, WAN)
        server = StorageServer(4, backend=backend)
        server.load([b"a"] * 4)
        server.read(0)
        server.write(1, b"bb")
        assert server.backend is backend
        assert backend.roundtrips == 2
        assert server.reads == 1 and server.writes == 1

    def test_capacity_mismatch_rejected(self):
        with pytest.raises(StorageError):
            StorageServer(4, backend=InMemoryBackend(3))

    def test_pool_builds_one_backend_per_server(self):
        pool = ServerPool(3, 8, backend_factory=NetworkBackendFactory(LAN))
        backends = [server.backend for server in pool]
        assert len(set(map(id, backends))) == 3
        pool.load_replicas([b"x"] * 8)
        pool[0].read(0)
        pool[2].read(1)
        assert [backend.roundtrips for backend in backends] == [1, 0, 1]


class TestBatchedSlotRounds:
    def test_read_slots_charges_one_roundtrip(self):
        backend = NetworkBackend(4, WAN)
        backend.load([b"a" * 100, b"b" * 200, b"c" * 300, b"d" * 400])
        backend.read_slots([0, 2, 3])
        assert backend.roundtrips == 1
        expected = WAN.rtt_ms + WAN.transfer_ms(100 + 300 + 400)
        assert backend.simulated_ms == pytest.approx(expected)

    def test_write_slots_charges_one_roundtrip(self):
        backend = NetworkBackend(4, WAN)
        backend.write_slots([(0, b"x" * 50), (1, b"y" * 150)])
        assert backend.roundtrips == 1
        expected = WAN.rtt_ms + WAN.transfer_ms(200)
        assert backend.simulated_ms == pytest.approx(expected)
        assert backend.read_slot(1) == b"y" * 150

    def test_empty_batches_charge_nothing(self):
        backend = NetworkBackend(2, WAN)
        assert backend.read_slots([]) == []
        backend.write_slots([])
        assert backend.roundtrips == 0
        assert backend.simulated_ms == 0.0

    def test_batched_round_is_cheaper_than_per_slot(self):
        batched = NetworkBackend(8, WAN)
        per_slot = NetworkBackend(8, WAN)
        blocks = [bytes([i]) * 64 for i in range(8)]
        batched.load(blocks)
        per_slot.load(blocks)
        batched.read_slots(list(range(8)))
        for slot in range(8):
            per_slot.read_slot(slot)
        assert batched.simulated_ms < per_slot.simulated_ms
        assert per_slot.roundtrips == 8
        assert batched.roundtrips == 1

    def test_in_memory_read_slots_in_order(self):
        backend = InMemoryBackend(3)
        backend.load([b"a", b"b", b"c"])
        assert backend.read_slots([2, 0]) == [b"c", b"a"]

    def test_backends_are_slotted(self):
        # Hot-path objects carry no per-instance __dict__.
        backend = InMemoryBackend(1)
        with pytest.raises(AttributeError):
            backend.extra = 1
        network = NetworkBackend(1, WAN)
        with pytest.raises(AttributeError):
            network.extra = 1


class TestBatchPricingGuardEdges:
    """The ``if indices:`` / ``if items:`` guards of the batched rounds.

    Batched pricing must stay exactly "one roundtrip + combined
    transfer" on every edge — never-written (``None``) blocks, empty
    blocks, and truly empty batches — so read and write rounds can
    never drift apart in cost.
    """

    def test_read_slots_of_unwritten_slots_charges_one_bare_roundtrip(self):
        backend = NetworkBackend(4, WAN)
        assert backend.read_slots([0, 1, 2]) == [None, None, None]
        assert backend.roundtrips == 1
        # None blocks move zero bytes: the round costs the RTT alone.
        assert backend.simulated_ms == pytest.approx(WAN.rtt_ms)

    def test_read_slots_mixed_none_counts_present_bytes_only(self):
        backend = NetworkBackend(4, WAN)
        backend.write_slot(1, b"x" * 300)
        backend.write_slot(3, b"y" * 500)
        before = backend.simulated_ms
        blocks = backend.read_slots([0, 1, 2, 3])
        assert blocks == [None, b"x" * 300, None, b"y" * 500]
        expected = WAN.rtt_ms + WAN.transfer_ms(800)
        assert backend.simulated_ms - before == pytest.approx(expected)

    def test_write_slots_of_empty_blocks_charges_one_bare_roundtrip(self):
        backend = NetworkBackend(4, WAN)
        backend.write_slots([(0, b""), (1, b"")])
        assert backend.roundtrips == 1
        assert backend.simulated_ms == pytest.approx(WAN.rtt_ms)
        assert backend.read_slot(0) == b""  # stored, not dropped

    def test_write_slots_mixed_sizes_charges_combined_transfer(self):
        backend = NetworkBackend(4, WAN)
        backend.write_slots([(0, b""), (1, b"x" * 700), (2, b"y" * 300)])
        assert backend.roundtrips == 1
        expected = WAN.rtt_ms + WAN.transfer_ms(1000)
        assert backend.simulated_ms == pytest.approx(expected)

    def test_read_write_round_pricing_is_symmetric(self):
        # Equal payloads in either direction must price identically.
        reader = NetworkBackend(4, WAN)
        writer = NetworkBackend(4, WAN)
        blocks = [b"a" * 100, b"b" * 200, b"c" * 300, b"d" * 400]
        reader.load(blocks)
        reader.read_slots([0, 1, 2, 3])
        writer.write_slots(list(enumerate(blocks)))
        assert reader.roundtrips == writer.roundtrips == 1
        assert reader.simulated_ms == pytest.approx(writer.simulated_ms)

    def test_single_slot_and_batch_of_one_price_identically(self):
        single = NetworkBackend(2, WAN)
        batched = NetworkBackend(2, WAN)
        single.write_slot(0, b"z" * 256)
        batched.write_slots([(0, b"z" * 256)])
        assert single.simulated_ms == pytest.approx(batched.simulated_ms)
        assert single.roundtrips == batched.roundtrips == 1
        single.read_slot(0)
        batched.read_slots([0])
        assert single.simulated_ms == pytest.approx(batched.simulated_ms)

    def test_empty_batches_dispatch_to_inner_without_charging(self):
        inner = InMemoryBackend(2)
        backend = NetworkBackend(inner, WAN)
        assert backend.read_slots([]) == []
        backend.write_slots([])
        assert backend.roundtrips == 0
        assert backend.simulated_ms == 0.0


class TestRoundBracket:
    """``begin_round`` / ``end_round``: the slot calls between them are
    one request — one roundtrip, every byte of either direction."""

    def test_a_write_and_a_read_in_one_bracket_are_one_roundtrip(self):
        backend = NetworkBackend(4, WAN)
        backend.load([b"a" * 100, b"b" * 200, b"c" * 300, b"d" * 400])
        backend.begin_round()
        backend.write_slots([(0, b"x" * 700)])
        backend.write_slot(1, b"y" * 50)
        assert backend.read_slots([2, 3]) == [b"c" * 300, b"d" * 400]
        # Nothing is charged until the request is complete.
        assert (backend.roundtrips, backend.simulated_ms) == (0, 0.0)
        backend.end_round()
        assert backend.roundtrips == 1
        assert backend.simulated_ms == pytest.approx(
            WAN.rtt_ms + WAN.transfer_ms(700 + 50 + 300 + 400)
        )

    def test_an_empty_bracket_is_free_and_calls_after_it_are_not(self):
        backend = NetworkBackend(4, WAN)
        backend.begin_round()
        backend.read_slots([])
        backend.end_round()
        backend.end_round()  # closing twice charges nothing either
        assert (backend.roundtrips, backend.simulated_ms) == (0, 0.0)
        backend.write_slot(0, b"z" * 256)
        backend.read_slot(0)
        assert backend.roundtrips == 2

    def test_a_bare_roundtrip_is_still_a_roundtrip(self):
        backend = NetworkBackend(4, WAN)
        backend.begin_round()
        backend.read_slots([0, 1])  # never written: no bytes
        backend.end_round()
        assert backend.roundtrips == 1
        assert backend.simulated_ms == pytest.approx(WAN.rtt_ms)

    def test_it_means_nothing_where_the_slots_live(self, make_backend):
        backend = make_backend(4)
        backend.begin_round()
        backend.write_slot(0, b"kept")
        backend.end_round()
        assert backend.read_slot(0) == b"kept"
