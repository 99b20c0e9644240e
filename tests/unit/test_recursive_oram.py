"""Tests for repro.baselines.recursive_oram."""

import pytest

import repro
from repro.baselines.recursive_oram import RecursivePathORAM
from repro.storage.backends import NetworkBackendFactory
from repro.storage.blocks import encode_int, integer_database
from repro.storage.errors import BlockSizeError, RetrievalError
from repro.storage.faults import ServerFault
from repro.storage.network import LAN
from repro.storage.transcript import AccessKind, Transcript


def _oram(rng, n=256, chi=4, limit=8):
    return RecursivePathORAM(
        integer_database(n), positions_per_block=chi, client_map_limit=limit,
        rng=rng.spawn("recursive"),
    )


class TestConstruction:
    def test_rejects_empty(self, rng):
        with pytest.raises(ValueError):
            RecursivePathORAM([], rng=rng)

    def test_rejects_bad_chi(self, rng, small_db):
        with pytest.raises(ValueError):
            RecursivePathORAM(small_db, positions_per_block=1, rng=rng)

    def test_rejects_bad_limit(self, rng, small_db):
        with pytest.raises(ValueError):
            RecursivePathORAM(small_db, client_map_limit=0, rng=rng)

    def test_level_count_grows_with_n(self, rng):
        shallow = _oram(rng, n=64, chi=4, limit=8)
        deep = _oram(rng, n=1024, chi=4, limit=8)
        assert deep.levels > shallow.levels

    def test_client_map_fits_limit(self, rng):
        oram = _oram(rng, n=512, chi=4, limit=8)
        assert oram.client_position_entries <= 8

    def test_small_db_single_level(self, rng):
        oram = RecursivePathORAM(integer_database(16),
                                 client_map_limit=64, rng=rng)
        assert oram.levels == 1
        assert oram.roundtrips_per_access == 1

    def test_chi_reduces_levels(self, rng):
        narrow = _oram(rng, n=1024, chi=2, limit=8)
        wide = _oram(rng, n=1024, chi=16, limit=8)
        assert wide.levels < narrow.levels


class TestCorrectness:
    def test_initial_reads(self, rng):
        oram = _oram(rng, n=128)
        db = integer_database(128)
        for index in range(0, 128, 7):
            assert oram.read(index) == db[index]

    def test_write_then_read(self, rng):
        oram = _oram(rng, n=64)
        oram.write(9, encode_int(999))
        assert oram.read(9) == encode_int(999)

    def test_random_workload(self, rng):
        oram = _oram(rng, n=128)
        reference = {i: encode_int(i) for i in range(128)}
        source = rng.spawn("ops")
        for step in range(300):
            index = source.randbelow(128)
            if source.random() < 0.4:
                value = encode_int(50_000 + step)
                oram.write(index, value)
                reference[index] = value
            else:
                assert oram.read(index) == reference[index]

    def test_repeated_same_index(self, rng):
        # Stresses map-block churn: the same packed map block is hit
        # every access.
        oram = _oram(rng, n=64)
        for step in range(50):
            oram.write(5, encode_int(step))
            assert oram.read(5) == encode_int(step)

    def test_out_of_range(self, rng):
        oram = _oram(rng, n=32)
        with pytest.raises(RetrievalError):
            oram.read(32)
        with pytest.raises(RetrievalError):
            oram.write(-1, b"x")


class TestAccounting:
    def test_blocks_per_access_sums_levels(self, rng):
        oram = _oram(rng, n=256)
        per_level = [level.blocks_per_access() for level in oram._levels]
        assert oram.blocks_per_access() == sum(per_level)

    def test_server_operations_measured(self, rng):
        oram = _oram(rng, n=128)
        before = oram.server_operations()
        oram.read(0)
        oram.flush()  # every level's write-back, sent on its own
        moved = oram.server_operations() - before
        assert moved == oram.blocks_per_access()

    def test_roundtrips_equal_levels(self, rng):
        oram = _oram(rng, n=512, chi=4, limit=8)
        assert oram.roundtrips_per_access == oram.levels >= 4

    def test_roundtrips_are_measured(self, rng):
        # One request a level an access, each write-back riding in that
        # level's next request — but none where the level's whole path is
        # in its held write-back; the flush sends one more a level.
        oram = RecursivePathORAM(
            integer_database(512), positions_per_block=4,
            client_map_limit=8, rng=rng.spawn("link"),
            backend_factory=NetworkBackendFactory(LAN),
        )

        def roundtrips():
            return sum(server.backend.roundtrips for server in oram.servers())

        views = [Transcript() for _ in oram.servers()]
        for server, view in zip(oram.servers(), views):
            server.attach_transcript(view)
        accesses = 100
        for index in range(accesses):
            oram.read(index)
        downloaded = sum(
            len({e.query for e in view if e.kind is AccessKind.DOWNLOAD})
            for view in views
        )
        # Levels of 2^9, 2^7, 2^5 and 2^3 leaves: ~17 of 400 level
        # accesses find their whole path held.
        assert accesses * oram.levels - 40 < downloaded < accesses * oram.levels
        assert roundtrips() == downloaded
        oram.flush()
        assert roundtrips() == downloaded + oram.levels

    def test_harness_integration(self, rng):
        from repro.simulation.harness import run_trace
        from repro.workloads.generators import read_write_trace

        n = 128
        database = integer_database(n)
        oram = _oram(rng, n=n)
        trace = read_write_trace(n, 60, rng.spawn("t"), write_fraction=0.3)
        metrics = run_trace(oram, trace, initial=database)
        assert metrics.mismatches == 0
        # At most: a level access leaves out the nodes its path shares
        # with the write-back it holds.
        assert metrics.blocks_per_operation < oram.blocks_per_access()
        assert metrics.client_peak_blocks == oram.client_peak_blocks

    def test_query_counter(self, rng):
        oram = _oram(rng, n=64)
        oram.read(0)
        oram.write(1, encode_int(1))
        assert oram.query_count == 2

    def test_only_accesses_that_happened_are_counted(self, fail_rounds):
        oram = repro.build(
            "recursive_path_oram", blocks=integer_database(64, 8), seed=1
        )
        with pytest.raises(BlockSizeError):
            oram.write(0, b"x")  # the wrong size: refused before a coin
        fail_rounds(oram, True)  # the top level's request faults
        with pytest.raises(ServerFault):
            oram.read(0)
        counts = [level.query_count for level in oram._levels]
        assert (oram.query_count, counts) == (0, [0] * oram.levels)
        oram.read(0)
        assert oram.query_count == 1


def _client_state(oram):
    return (
        [
            (list(level._stash.items()), level._link.held, level.query_count)
            for level in oram._levels
        ],
        list(oram._client_map), oram.query_count,
    )


class TestFaultedRequests:
    def test_a_faulted_data_level_request_commits_no_level(
        self, rng, fail_rounds
    ):
        # Every map level's request has come back when the data level's
        # faults; had they committed, the map would point the block at a
        # leaf its level never moved it to.
        # Each map level's request also came back without the top nodes
        # its path shares with the level's held write-back; those must
        # stay unsent: cleared when the request came back, the next access
        # read them from a server that never had them ("block 0 missing
        # from path and stash").
        oram = _oram(rng, n=64)
        assert oram.levels >= 3
        oram.write(5, encode_int(55))
        before = _client_state(oram)
        unsent = [level._link.blocks for level in oram._levels]
        fail_rounds(oram, *[False] * (oram.levels - 1), True)
        with pytest.raises(ServerFault):
            oram.read(5)
        assert _client_state(oram) == before
        for level, held in zip(oram._levels[1:], unsent[1:]):
            assert 0 < level._link.blocks <= held
        _answers_as_the_model_does(oram, rng, {5: encode_int(55)})

    @pytest.mark.parametrize(
        "coin_mode, script",
        [("per_round", [False, True]), ("per_slot", [False] * 5 + [True])],
        ids=["per_round", "per_slot"],
    )
    def test_a_fault_inside_a_merged_map_level_request_loses_nothing(
        self, rng, fail_rounds, coin_mode, script
    ):
        # The top level's request is served (per round), or the fault
        # lands mid-way through the merged write-back it carries (per
        # slot); nothing commits and every later access is model-equal.
        oram = _oram(rng, n=64)
        oram.write(5, encode_int(55))
        before = _client_state(oram)
        fail_rounds(oram, *script, coin_mode=coin_mode)
        with pytest.raises(ServerFault):
            oram.read(5)
        assert _client_state(oram) == before
        _answers_as_the_model_does(oram, rng, {5: encode_int(55)})


def _answers_as_the_model_does(oram, rng, written):
    """Mixed accesses, then a flush and every record, each model-equal."""
    model = {index: written.get(index, encode_int(index)) for index in range(64)}
    source = rng.spawn("after")
    for step in range(150):
        index = source.randbelow(64)
        if step % 3:
            assert oram.read(index) == model[index]
        else:
            model[index] = encode_int(5000 + step)
            oram.write(index, model[index])
    oram.flush()
    assert [oram.read(index) for index in range(64)] == [
        model[index] for index in range(64)
    ]
