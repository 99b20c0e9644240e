"""Tests for repro.baselines.path_oram."""

import math

import pytest

from repro.baselines import path_oram
from repro.baselines.path_oram import PathORAM
from repro.storage.blocks import encode_int, integer_database
from repro.storage.errors import BlockSizeError, RetrievalError
from repro.storage.faults import ServerFault


def _oram(rng, n=32, z=4):
    return PathORAM(integer_database(n), bucket_size=z, rng=rng.spawn("oram"))


class TestConstruction:
    def test_rejects_empty(self, rng):
        with pytest.raises(ValueError):
            PathORAM([], rng=rng)

    def test_rejects_bad_bucket_size(self, rng, small_db):
        with pytest.raises(ValueError):
            PathORAM(small_db, bucket_size=0, rng=rng)

    def test_rejects_uneven_blocks(self, rng):
        with pytest.raises(ValueError):
            PathORAM([b"aa", b"bbb"], rng=rng)

    def test_height_is_log_n(self, rng):
        for n, expected in ((2, 1), (32, 5), (33, 6), (1024, 10)):
            oram = _oram(rng, n=n)
            assert oram.height == expected


class TestCorrectness:
    def test_initial_reads(self, rng):
        oram = _oram(rng, n=32)
        db = integer_database(32)
        for index in range(32):
            assert oram.read(index) == db[index]

    def test_write_then_read(self, rng):
        oram = _oram(rng, n=32)
        oram.write(9, encode_int(777))
        assert oram.read(9) == encode_int(777)

    def test_random_workload(self, rng):
        oram = _oram(rng, n=64)
        reference = {i: encode_int(i) for i in range(64)}
        source = rng.spawn("ops")
        for step in range(400):
            index = source.randbelow(64)
            if source.random() < 0.4:
                value = encode_int(100_000 + step)
                oram.write(index, value)
                reference[index] = value
            else:
                assert oram.read(index) == reference[index]

    def test_wrong_value_size_rejected(self, rng):
        oram = _oram(rng)
        with pytest.raises(BlockSizeError):
            oram.write(0, b"short")

    def test_out_of_range(self, rng):
        oram = _oram(rng, n=8)
        with pytest.raises(RetrievalError):
            oram.read(8)

    @pytest.mark.parametrize(
        "rejected, twin_sees",
        [
            (lambda oram, i: oram.write(i, b"short"), None),
            (
                lambda oram, i: oram.read_modify_write(i, lambda old: b"short"),
                lambda twin, i: twin.read(i),
            ),
            (
                lambda oram, i: oram.read_modify_write(i, lambda old: 1 // 0),
                lambda twin, i: twin.read(i),
            ),
        ],
        ids=["write", "rmw-wrong-size", "rmw-raises"],
    )
    def test_rejected_write_leaves_no_trace(self, rng, rejected, twin_sees):
        # The twin never sees a bad call.  A rejected ``write`` is refused
        # before anything moves; ``read_modify_write`` learns its value
        # only after the path read, so it completes as the plain read the
        # twin performs in its place.
        n = 32
        oram, twin = _oram(rng, n=n), _oram(rng, n=n)
        reference = {i: encode_int(i) for i in range(n)}
        source = rng.spawn("ops")
        for step in range(400):
            index = source.randbelow(n)
            roll = source.random()
            if roll < 0.1:
                with pytest.raises((BlockSizeError, ZeroDivisionError)):
                    rejected(oram, index)
                if twin_sees is not None:
                    twin_sees(twin, index)
            elif roll < 0.55:
                reference[index] = encode_int(100_000 + step)
                oram.write(index, reference[index])
                twin.write(index, reference[index])
            else:
                assert oram.read(index) == reference[index]
                assert twin.read(index) == reference[index]
            assert oram.query_count == twin.query_count
            assert oram.server.reads == twin.server.reads
            assert oram.server.writes == twin.server.writes
            assert list(oram._stash.items()) == list(twin._stash.items())


def _client_state(oram):
    return (
        list(oram._stash.items()), oram._link.held, list(oram._position),
        oram.query_count, oram.client_peak_blocks,
    )


class TestFaultedRequests:
    def test_faulted_request_leaves_the_client_untouched(
        self, rng, fail_rounds
    ):
        # An access is one request: the previous write-back, then the
        # path.  A fault leaves the map, the stash and the held write-back
        # as they were, and the next request sends the write-back again.
        oram = _oram(rng, n=32)
        oram.write(5, encode_int(55))
        fail_rounds(oram, True, True)
        held, before = oram._link.held, _client_state(oram)
        for _ in range(2):
            with pytest.raises(ServerFault):
                oram.read(5)
            assert oram._link.held is held and _client_state(oram) == before
        assert oram.read(5) == encode_int(55)
        for index in range(32):
            expected = encode_int(55 if index == 5 else index)
            assert oram.read(index) == expected

    def test_dropped_accesses_keep_their_shared_nodes_unsent(self, rng):
        # A recursive map level's access is dropped after its request
        # came back when the data level's request faults.  The nodes it
        # read from the held write-back never went out, so they stay
        # unsent; the next path may share more nodes than that with the
        # committed one, and downloads those the dropped request landed.
        n = 32
        oram = _oram(rng, n=n)
        model = {index: encode_int(index) for index in range(n)}
        source = rng.spawn("ops")
        for step in range(400):
            index = source.randbelow(n)
            if source.random() < 0.4:
                unsent = oram._link.blocks
                oram._stage(index, None)  # never committed
                assert 0 < oram._link.blocks <= unsent
            elif step % 2:
                assert oram.read(index) == model[index]
            else:
                model[index] = encode_int(1000 + step)
                oram.write(index, model[index])
        oram.flush()
        assert [oram.read(index) for index in range(n)] == [
            model[index] for index in range(n)
        ]

    @pytest.mark.parametrize(
        "coin_mode, served",
        [("per_round", 0), ("per_slot", 0), ("per_slot", 3), ("per_slot", 14)],
    )
    def test_a_fault_inside_a_merged_request_loses_nothing(
        self, rng, fail_rounds, coin_mode, served
    ):
        # The request after a committed access carries its write-back less
        # the top nodes the new path shares with it, which the client reads
        # from the write-back it holds.  A fault before anything lands,
        # mid-upload or mid-download leaves all of it held, and every
        # access after it answers as the model does.
        n = 32
        oram = _oram(rng, n=n)
        model = {index: encode_int(index) for index in range(n)}
        source = rng.spawn("ops")
        for step in range(20):
            index = source.randbelow(n)
            model[index] = encode_int(1000 + step)
            oram.write(index, model[index])
        fail_rounds(oram, *[False] * served, True, coin_mode=coin_mode)
        held = oram._link.held
        with pytest.raises(ServerFault):
            oram.read(5)
        assert oram._link.held is held
        for step in range(200):
            index = source.randbelow(n)
            if step % 3:
                assert oram.read(index) == model[index]
            else:
                model[index] = encode_int(2000 + step)
                oram.write(index, model[index])
        oram.flush()
        assert [oram.read(index) for index in range(n)] == [
            model[index] for index in range(n)
        ]


class _CountingHeader:
    """The slot header codec, with its ``pack`` calls counted."""

    def __init__(self, header):
        self._header = header
        self.size = header.size
        self.unpack_from = header.unpack_from
        self.packs = 0

    def pack(self, *fields):
        self.packs += 1
        return self._header.pack(*fields)


class TestSealedSlots:
    def test_an_access_seals_only_the_block_it_accessed(
        self, rng, monkeypatch
    ):
        # The stash keeps every block's slot as it came in, so the
        # write-back re-encodes only the accessed block, under its new
        # leaf: one header an access, whatever its kind, and also when
        # its path shares nodes with the held write-back (every access
        # but the first, which finds nothing held).
        oram = _oram(rng, n=64)
        header = _CountingHeader(path_oram._HEADER)
        monkeypatch.setattr(path_oram, "_HEADER", header)
        source = rng.spawn("ops")
        merged = 0
        for step in range(400):
            index = source.randbelow(64)
            merged += oram._link.blocks > 0
            before = header.packs
            kind = step % 4
            if kind == 0:
                oram.read(index)
            elif kind == 1:
                oram.write(index, encode_int(step))
            elif kind == 2:
                oram.read_modify_write(index, lambda old: old[::-1])
            else:  # fails after the access commits, as a plain read
                with pytest.raises(ZeroDivisionError):
                    oram.read_modify_write(index, lambda old: 1 // 0)
            assert header.packs == before + 1
        assert oram.query_count == 400 and merged == 399


class TestBandwidth:
    def test_blocks_per_access_formula(self, rng):
        oram = _oram(rng, n=64, z=4)
        assert oram.blocks_per_access() == 2 * 4 * (oram.height + 1)

    def test_measured_matches_formula(self, rng):
        oram = _oram(rng, n=64)
        before = oram.server.operations
        oram.read(0)
        oram.flush()  # the access's own write-back, sent on its own
        assert oram.server.operations - before == oram.blocks_per_access()

    def test_cost_grows_with_log_n(self, rng):
        small = _oram(rng, n=64)
        large = _oram(rng, n=4096)
        assert large.blocks_per_access() > small.blocks_per_access()
        assert large.blocks_per_access() == pytest.approx(
            2 * 4 * (math.log2(4096) + 1)
        )


class TestObliviousnessShape:
    def test_position_remap_changes_paths(self, rng):
        # Repeatedly accessing one index touches many distinct paths.
        oram = _oram(rng, n=64)
        from repro.storage.transcript import Transcript

        transcript = Transcript()
        oram.attach_transcript(transcript)
        for _ in range(20)  :
            oram.read(7)
        slots_per_query = [
            tuple(e.index for e in transcript.for_query(q))
            for q in range(oram.query_count - 20, oram.query_count)
        ]
        assert len(set(slots_per_query)) > 5

    def test_stash_stays_small(self, rng):
        oram = _oram(rng, n=256)
        source = rng.spawn("load")
        for _ in range(500):
            oram.read(source.randbelow(256))
        # Classic Path ORAM result: stash is O(1)-ish w.h.p. for Z=4.
        assert oram.stash_peak < 40

        # An eviction that strands blocks shows as a growing stash.  The
        # ceiling is the one the e2e ``oram_mixed`` workload declares as
        # ``client_blocks``: the Z·(L+1) path blocks in flight plus the
        # Path ORAM paper's stash bound.
        oram = _oram(rng, n=4096, z=4)
        for step in range(5000):
            index = source.randbelow(4096)
            if source.random() < 0.5:
                oram.write(index, encode_int(step))
            else:
                oram.read(index)
        assert oram.stash_peak < 84
        assert oram.stash_size < 40

    def test_query_counter(self, rng):
        oram = _oram(rng, n=16)
        oram.read(0)
        oram.write(1, encode_int(5))
        assert oram.query_count == 2
