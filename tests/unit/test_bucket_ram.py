"""Tests for repro.core.bucket_ram (Appendix E)."""

import pytest
from dp_ram_view import record_bucket_pairs

from repro.core import bucket_ram
from repro.core.bucket_ram import BucketDPRAM
from repro.crypto.rng import SeededRandomSource
from repro.storage.backends import NetworkBackendFactory
from repro.storage.errors import BlockSizeError, RetrievalError, StorageError
from repro.storage.faults import ServerFault
from repro.storage.network import LAN
from repro.storage.transcript import Transcript


def _blocks(count, size=8):
    return [bytes([i]) * size for i in range(count)]


def _recorded(ram):
    """``ram``, keeping the bucket ``(d_j, o_j)`` of every query it commits
    in ``ram.pairs`` (the scheme itself keeps no pair history)."""
    ram.pairs = record_bucket_pairs(ram)
    return ram


def _disjoint_ram(rng, p=0.3):
    """Four disjoint buckets of two nodes each."""
    buckets = [(0, 1), (2, 3), (4, 5), (6, 7)]
    return _recorded(BucketDPRAM(_blocks(8), buckets, stash_probability=p,
                                 rng=rng.spawn("bram")))


def _overlapping_ram(rng, p=0.3):
    """Three buckets sharing node 6 (a common ancestor)."""
    buckets = [(0, 1, 6), (2, 3, 6), (4, 5, 6)]
    return _recorded(BucketDPRAM(_blocks(7), buckets, stash_probability=p,
                                 rng=rng.spawn("bram-overlap")))


class TestConstruction:
    def test_rejects_empty_blocks(self, rng):
        with pytest.raises(ValueError):
            BucketDPRAM([], [(0,)], 0.5, rng=rng)

    def test_rejects_empty_buckets(self, rng):
        with pytest.raises(ValueError):
            BucketDPRAM(_blocks(2), [], 0.5, rng=rng)

    def test_rejects_empty_bucket_tuple(self, rng):
        with pytest.raises(ValueError):
            BucketDPRAM(_blocks(2), [()], 0.5, rng=rng)

    def test_rejects_out_of_range_node(self, rng):
        with pytest.raises(StorageError):
            BucketDPRAM(_blocks(2), [(0, 5)], 0.5, rng=rng)

    def test_rejects_bad_probability(self, rng):
        with pytest.raises(ValueError):
            BucketDPRAM(_blocks(2), [(0,)], 0.0, rng=rng)

    def test_server_holds_ciphertexts(self, rng):
        ram = _disjoint_ram(rng)
        assert ram.server.peek(0) != _blocks(8)[0]


class TestQueryLifecycle:
    def test_download_returns_contents(self, rng):
        ram = _disjoint_ram(rng)
        snapshot = ram.query(1)
        assert snapshot == {2: _blocks(8)[2], 3: _blocks(8)[3]}

    def test_update_persists(self, rng):
        ram = _disjoint_ram(rng)
        ram.query(0, new_contents={0: b"UPDATED!"})
        assert ram.query(0)[0] == b"UPDATED!"

    def test_partial_update_keeps_other_nodes(self, rng):
        ram = _disjoint_ram(rng)
        ram.query(0, new_contents={0: b"UPDATED!"})
        assert ram.query(0)[1] == _blocks(8)[1]

    def test_repeated_updates_under_stash_churn(self, rng):
        ram = BucketDPRAM(_blocks(4), [(0, 1), (2, 3)],
                          stash_probability=0.7, rng=rng.spawn("churn"))
        expected = {0: _blocks(4)[0], 1: _blocks(4)[1]}
        for step in range(100):
            payload = bytes([step % 256]) * 8
            ram.query(0, new_contents={0: payload})
            expected[0] = payload
            assert ram.query(0) == expected

    def test_finish_twice_rejected(self, rng):
        ram = _disjoint_ram(rng)
        pending = ram.begin_query([0])
        ram.finish_query(pending)
        with pytest.raises(RetrievalError):
            ram.finish_query(pending)

    def test_update_to_foreign_node_rejected(self, rng):
        ram = _disjoint_ram(rng)
        pending = ram.begin_query([0])
        with pytest.raises(StorageError):
            ram.finish_query(pending, {5: b"not-in-bucket"})
        # The rejected call consumed nothing: the same handle still runs
        # the upload round and closes the batch.
        ram.finish_query(pending, {0: b"in-bckt!"})
        assert ram.query(0)[0] == b"in-bckt!"
        assert len(ram.pairs) == 2

    def test_query_with_foreign_node_still_closes_the_batch(self, rng):
        ram = _disjoint_ram(rng)
        with pytest.raises(StorageError):
            ram.query(0, {5: b"not-in-bucket"})
        # The download round had run: it was finished as a read.
        assert len(ram.pairs) == 1
        assert ram.query(0) == {0: _blocks(8)[0], 1: _blocks(8)[1]}

    def test_bucket_out_of_range(self, rng):
        ram = _disjoint_ram(rng)
        with pytest.raises(RetrievalError):
            ram.begin_query([9])
        with pytest.raises(RetrievalError):
            ram.begin_query([])

    def test_repeated_bucket_in_a_batch_rejected(self, rng):
        ram = _disjoint_ram(rng)
        with pytest.raises(RetrievalError):
            ram.begin_query([0, 0])
        ram.query(0)  # the rejected batch was never opened

    def test_finish_query_refuses_a_superseded_or_committed_stage(self):
        # p = 1: every bucket is stashed, so a stage committed over a
        # moved stash would unpin what is no longer pinned.
        ram, twin = (
            _recorded(BucketDPRAM(_blocks(8), [(0, 1), (2, 3), (4, 5), (6, 7)],
                                  1.0, rng=SeededRandomSource(4)))
            for _ in range(2)
        )
        stale = ram.begin_query([0])
        # The twin never staged it; its coin stream is moved up instead.
        twin._rng._rng.setstate(ram._rng._rng.getstate())
        ram.finish_query(ram.begin_query([0, 1]), {2: b"written!"})
        fresh = twin.begin_query([0, 1])
        twin.finish_query(fresh, {2: b"written!"})
        before = _client_state(ram)
        for refused, stage in ((ram, stale), (twin, fresh)):
            # Superseded by a later commit; committed already.
            with pytest.raises(RetrievalError, match="has committed since"):
                refused.finish_query(stage)
            assert _client_state(ram) == before == _client_state(twin)
        assert ram.query(1)[2] == twin.query(1)[2] == b"written!"
        assert _client_state(ram) == _client_state(twin)


class TestOverlapConsistency:
    def test_shared_node_update_visible_to_sibling(self, rng):
        ram = _overlapping_ram(rng)
        ram.query(0, new_contents={6: b"SHAREDv1"})
        assert ram.query(1)[6] == b"SHAREDv1"
        assert ram.query(2)[6] == b"SHAREDv1"

    def test_shared_node_survives_stash_churn(self, rng):
        ram = BucketDPRAM(
            _blocks(5), [(0, 4), (1, 4), (2, 4), (3, 4)],
            stash_probability=0.8, rng=rng.spawn("hot"),
        )
        current = _blocks(5)[4]
        source = rng.spawn("driver")
        for step in range(150):
            bucket = source.randbelow(4)
            if step % 3 == 0:
                current = bytes([step % 251]) * 8
                ram.query(bucket, new_contents={4: current})
            else:
                assert ram.query(bucket)[4] == current

    def test_private_nodes_stay_independent(self, rng):
        ram = _overlapping_ram(rng)
        ram.query(0, new_contents={0: b"bucket0!"})
        assert ram.query(1)[2] == _blocks(7)[2]
        assert ram.query(0)[0] == b"bucket0!"


class TestTwoBucketBatch:
    def test_two_buckets_one_batch(self, rng):
        ram = _disjoint_ram(rng)
        pending = ram.begin_query([0, 1])
        first, second = pending.contents
        assert first[0] == _blocks(8)[0]
        assert second[2] == _blocks(8)[2]
        ram.finish_query(pending, {0: b"newA0000", 2: b"newB0000"})
        assert ram.query(0)[0] == b"newA0000"
        assert ram.query(1)[2] == b"newB0000"
        assert len(ram.pairs) == 4

    def test_batch_with_shared_node(self, rng):
        ram = _overlapping_ram(rng)
        pending = ram.begin_query([0, 1])
        # One rewrite reaches the node through both buckets of the batch.
        ram.finish_query(pending, {6: b"JOINT-v2"})
        assert ram.query(2)[6] == b"JOINT-v2"

    def test_batch_is_one_request(self, rng):
        ram = BucketDPRAM(_blocks(7), [(0, 1, 6), (2, 3, 6), (4, 5, 6)],
                          stash_probability=0.5, rng=rng.spawn("rounds"),
                          backend_factory=NetworkBackendFactory(LAN))
        link = ram.server.backend
        pending = ram.begin_query([0, 1])
        assert link.roundtrips == 1
        ram.finish_query(pending, {6: b"JOINT-v2"})
        assert link.roundtrips == 1  # sealed and held, not sent
        assert ram.server.writes == 0
        ram.query(2)  # the held upload and this batch's downloads
        assert link.roundtrips == 2
        assert ram.server.writes > 0
        ram.flush()  # the last upload, on its own
        assert link.roundtrips == 3
        ram.flush()  # nothing is held any more
        assert link.roundtrips == 3


def _client_state(ram):
    return (
        set(ram._stashed), dict(ram._overlay), dict(ram._pins),
        list(ram.pairs), ram.query_count, ram.client_peak_blocks,
    )


class TestFaultedRounds:
    @pytest.mark.parametrize("p", [1e-12, 1.0])
    def test_faulted_download_round_leaves_the_client_untouched(
        self, rng, fail_rounds, p
    ):
        # p = 1: both buckets are stashed, so an opened batch would
        # unstash and unpin them.
        ram = _overlapping_ram(rng, p)
        before = _client_state(ram)
        fail_rounds(ram, True)
        with pytest.raises(ServerFault):
            ram.begin_query([0, 1])
        assert _client_state(ram) == before
        assert ram.query(0) == {n: _blocks(7)[n] for n in (0, 1, 6)}

    def test_faulted_request_keeps_the_upload_held(self, rng, fail_rounds):
        # The upload round of old is gone: a batch's upload rides in the
        # next request, and a request that faults leaves it held.
        ram = _overlapping_ram(rng, p=1e-12)
        fail_rounds(ram, False, True, True)
        pending = ram.begin_query([0, 1])
        ram.finish_query(pending, {6: b"SHAREDv2", 0: b"bucket0!"})
        with pytest.raises(RetrievalError):
            ram.finish_query(pending)  # the handle is consumed
        held, before = ram._link.held, _client_state(ram)
        assert {node for node, _ in held[1]} == {0, 1, 2, 3, 6}
        assert ram.client_blocks == 5 and ram._overlay == {}
        with pytest.raises(ServerFault):
            ram.begin_query([1])
        with pytest.raises(ServerFault):
            ram.flush()
        assert ram._link.held is held and _client_state(ram) == before
        assert ram.server.writes == 0  # the server copies are still stale
        # The next request sends the upload first, then reads.
        assert ram.query(1) == {
            2: _blocks(7)[2], 3: _blocks(7)[3], 6: b"SHAREDv2"
        }
        assert ram.query(0)[0] == b"bucket0!"
        ram.flush()
        assert ram.client_blocks == 0


def _observable(ram, rng):
    """What a client, the server and a seeded replay can tell apart."""
    server = ram.server
    return _client_state(ram) + (
        server.reads, server.writes,
        [server.peek(slot) for slot in range(server.capacity)],
        rng.random(),
    )


class TestWrongSizeWrites:
    # A stream cipher hides everything but length, so an odd-sized node
    # would tell the server which upload was a real write.  The twins
    # below never made the rejected call.

    @staticmethod
    def _pair(buckets):
        rngs = SeededRandomSource(11), SeededRandomSource(11)
        rams = [
            _recorded(BucketDPRAM(_blocks(8), buckets, stash_probability=0.4,
                                  rng=rng))
            for rng in rngs
        ]
        for ram in rams:
            for step in range(12):
                ram.query(step % len(buckets))
        return rams, rngs

    def test_write_rejected_before_a_coin_or_a_round(self):
        (ram, twin), (rng, twin_rng) = self._pair([(n,) for n in range(8)])
        for bad in (b"", b"short", bytes(7), bytes(9)):
            with pytest.raises(BlockSizeError):
                ram.write(3, bad)
        assert _observable(ram, rng) == _observable(twin, twin_rng)
        for each in (ram, twin):
            each.write(3, b"8 bytes!")
        assert ram.read(3) == twin.read(3) == b"8 bytes!"
        assert _observable(ram, rng) == _observable(twin, twin_rng)
        assert {len(ram.server.peek(slot)) for slot in range(8)} == {24}

    def test_finish_query_rejects_and_leaves_the_batch_open(self):
        (ram, twin), (rng, twin_rng) = self._pair([(0, 1, 6), (2, 3, 6)])
        pending, twin_pending = ram.begin_query([0, 1]), twin.begin_query([0, 1])
        for bad in ({6: b"short"}, {0: b"8 bytes!", 1: bytes(9)}):
            with pytest.raises(BlockSizeError):
                ram.finish_query(pending, bad)
        # Nothing was consumed: the same handle still runs the upload.
        ram.finish_query(pending, {6: b"SHAREDv2"})
        twin.finish_query(twin_pending, {6: b"SHAREDv2"})
        assert _observable(ram, rng) == _observable(twin, twin_rng)
        assert ram.query(1)[6] == twin.query(1)[6] == b"SHAREDv2"

    def test_ragged_node_blocks_rejected_before_the_key_or_a_coin(self):
        # The constructor twin: node 0 sets the size, and the 5-byte node
        # would be a 21-byte ciphertext among 32-byte ones until its first
        # upload.  The rejected constructor drew nothing.
        rng = SeededRandomSource(11)
        with pytest.raises(BlockSizeError, match="block 1 has 5"):
            BucketDPRAM([b"a" * 16, b"b" * 5], [(0,), (1,)], 0.5, rng=rng)
        with pytest.raises(BlockSizeError, match="block 2 has 17"):
            BucketDPRAM([bytes(16), bytes(16), bytes(17), bytes(5)],
                        [(0, 1), (2, 3)], 0.5, rng=rng)
        assert rng.random() == SeededRandomSource(11).random()

    def test_query_closes_the_batch_as_a_read(self):
        (ram, twin), (rng, twin_rng) = self._pair([(0, 1, 6), (2, 3, 6)])
        with pytest.raises(BlockSizeError):
            ram.query(0, {6: b"far too long"})
        # The download round had run, so the twin made a read.
        twin.query(0)
        assert _observable(ram, rng) == _observable(twin, twin_rng)
        assert {len(ram.server.peek(slot)) for slot in range(8)} == {24}


class TestOneBatch:
    # ``begin_query`` stages a batch and moves nothing of the client's;
    # ``finish_query`` is the one commit point, and ``batch`` runs both.

    @staticmethod
    def _pair(p):
        rams = [_overlapping_ram(SeededRandomSource(6), p) for _ in range(2)]
        for ram in rams:
            ram.query(2, {6: b"SHAREDv1"})
        return rams

    @pytest.mark.parametrize("p", [1e-12, 0.5, 1.0])
    def test_a_dropped_stage_leaves_the_client_as_it_was(self, p):
        # p = 1: both staged buckets are stashed, and staging them used
        # to unstash and unpin them.
        ram, twin = self._pair(p)
        ram.begin_query([0, 1])  # staged, never committed
        twin._rng._rng.setstate(ram._rng._rng.getstate())
        assert _client_state(ram) == _client_state(twin)
        # Its request landed the held upload; the twin's next one does.
        assert ram.query(0) == twin.query(0)
        assert _client_state(ram) == _client_state(twin)
        for each in (ram, twin):
            each.flush()
        assert [ram.server.peek(n) for n in range(7)] == [
            twin.server.peek(n) for n in range(7)
        ]

    @pytest.mark.parametrize("p", [1e-12, 0.5, 1.0])
    def test_a_raising_transform_commits_the_batch_as_a_read(self, p):
        ram, twin = self._pair(p)

        def refuse(contents):
            raise LookupError("no room")

        with pytest.raises(LookupError, match="no room"):
            ram.batch([0, 1], refuse)
        twin.batch([0, 1])
        for each in (ram, twin):
            each.flush()
        assert _observable(ram, ram._rng) == _observable(twin, twin._rng)

    def test_batch_answers_what_the_download_found(self, rng):
        ram = _overlapping_ram(rng)
        assert ram.batch([0, 1], lambda contents: {6: b"JOINT-v2"}) == [
            {n: _blocks(7)[n] for n in nodes} for nodes in ((0, 1, 6), (2, 3, 6))
        ]
        assert ram.batch([2]) == [{4: _blocks(7)[4], 5: _blocks(7)[5],
                                   6: b"JOINT-v2"}]


class TestNonIntegerBucket:
    # A float bucket was found in the stash (0.0 == 0), so the request
    # went out — the held upload, then cover downloads — before a lookup
    # raised; an unstashed one raised first.  Whether the call reached
    # the server told the server whether the bucket was stashed.

    @staticmethod
    def _build(p):
        ram = _recorded(BucketDPRAM(_blocks(8), [(i,) for i in range(8)], p,
                                    rng=SeededRandomSource(3)))
        ram.query(1, {1: b"x" * 8})
        return ram

    @pytest.mark.parametrize("p", [1e-9, 1.0])
    def test_refused_before_a_coin_or_a_request(self, p):
        ram, twin = self._build(p), self._build(p)
        log = Transcript()
        ram.server.attach_transcript(log)
        for call in (lambda: ram.query(0.0), lambda: ram.begin_query([2, 0.0])):
            with pytest.raises(TypeError):
                call()
        assert len(log) == 0
        assert ram._link.held == twin._link.held
        assert _observable(ram, ram._rng) == _observable(twin, twin._rng)

    def test_integer_types_still_query(self):
        numpy = pytest.importorskip("numpy")
        ram, twin = self._build(0.5), self._build(0.5)
        for bucket in (True, numpy.int64(3), numpy.uint8(0)):
            assert ram.query(bucket) == twin.query(int(bucket))
        assert ram.batch([numpy.int32(4), False]) == twin.batch([4, 0])
        assert _observable(ram, ram._rng) == _observable(twin, twin._rng)


class TestSealingAttribution:
    def test_upload_seals_through_the_public_bulk_entry_point(
        self, rng, monkeypatch
    ):
        # The benchmark's tracer wraps ``encrypt_many`` where this module
        # imported it and sizes a call by its second positional argument;
        # a private or keyword-only sealing path books the upload's crypto
        # to ``core.bucket_ram`` instead.
        sealed = []

        def spy(key, plaintexts, *args, **kwargs):
            sealed.append(len(plaintexts))
            return real(key, plaintexts, *args, **kwargs)

        ram = _overlapping_ram(rng)
        real = bucket_ram.encrypt_many
        monkeypatch.setattr(bucket_ram, "encrypt_many", spy)
        pending = ram.begin_query([0, 1])
        assert sealed == []
        ram.finish_query(pending)
        # One call, every node of o_1 ∪ o_2 once: the two overwrite
        # buckets share node 6, and only its last copy would survive.
        distinct = {
            node
            for _, overwrite in ram.pairs
            for node in ram.bucket_nodes(overwrite)
        }
        assert sealed == [len(distinct)] == [len(ram._link.held[1])]
        assert len(distinct) < 6
        ram.flush()  # sealed then, sent now: not sealed again
        assert sealed == [ram.server.writes]


class TestTranscriptShape:
    def test_pairs_per_query(self, rng):
        ram = _disjoint_ram(rng)
        ram.query(0)
        ram.query(3)
        assert len(ram.pairs) == 2

    def test_unstashed_query_targets_itself(self, rng):
        ram = _recorded(BucketDPRAM(_blocks(4), [(0, 1), (2, 3)],
                                    stash_probability=1e-12,
                                    rng=rng.spawn("cold")))
        ram.query(1)
        assert ram.pairs == [(1, 1)]

    def test_bandwidth_per_query(self, rng):
        # Each query: download the nodes of d_j and o_j, each once, and
        # upload o_j — three buckets' worth when d_j != o_j, two when
        # they are one bucket.
        ram = _disjoint_ram(rng)
        shapes = set()
        for step in range(60):
            reads_before = ram.server.reads
            writes_before = ram.server.writes
            ram.query(step % 4)
            download, overwrite = ram.pairs[-1]
            assert ram.server.reads - reads_before == (
                2 if download == overwrite else 4
            )
            # The upload that lands is the previous query's.
            assert ram.server.writes - writes_before == 2 * (step > 0)
            shapes.add(download == overwrite)
        assert shapes == {True, False}
        ram.flush()
        assert ram.server.writes == 2 * 60

    def test_query_count(self, rng):
        ram = _disjoint_ram(rng)
        ram.query(0)
        ram.query(0)
        assert ram.query_count == 2


class TestClientAccounting:
    def test_peak_tracks_overlay(self, rng):
        ram = BucketDPRAM(_blocks(4), [(0, 1), (2, 3)],
                          stash_probability=1.0, rng=rng.spawn("full"))
        # p = 1: both buckets permanently stashed -> overlay holds all nodes.
        assert ram.client_blocks == 4
        ram.query(0)
        assert ram.client_peak_blocks >= 4

    def test_cold_client_holds_nothing(self, rng):
        ram = BucketDPRAM(_blocks(4), [(0, 1), (2, 3)],
                          stash_probability=1e-12, rng=rng.spawn("cold2"))
        ram.query(0)
        ram.query(1)
        assert ram.client_blocks == 2  # the upload held for the next request
        ram.flush()
        assert ram.client_blocks == 0

    def test_stashed_bucket_count(self, rng):
        ram = BucketDPRAM(_blocks(4), [(0, 1), (2, 3)],
                          stash_probability=1.0, rng=rng.spawn("full2"))
        assert ram.stashed_buckets == 2
