"""Tests for repro.core.dp_ram (Algorithms 2-3)."""

import math
import random
from collections import Counter

import pytest
from dp_ram_view import record_plans, seen_pairs, watch

from repro.core.dp_ram import DPRAM, ReadOnlyDPRAM
from repro.crypto.encryption import generate_key
from repro.crypto.rng import SeededRandomSource
from repro.storage.backends import InMemoryBackend
from repro.storage.blocks import encode_int, integer_database
from repro.storage.errors import BlockSizeError, RetrievalError
from repro.storage.transcript import Transcript


def _ram(rng, n=32, p=None, phi=None):
    return DPRAM(
        integer_database(n), stash_probability=p, phi=phi, rng=rng.spawn("ram")
    )


class TestConstruction:
    def test_rejects_empty_database(self, rng):
        with pytest.raises(ValueError):
            DPRAM([], rng=rng)

    def test_rejects_both_p_and_phi(self, rng, small_db):
        with pytest.raises(ValueError):
            DPRAM(small_db, stash_probability=0.1, phi=8, rng=rng)

    def test_default_params_resolve(self, rng, small_db):
        ram = DPRAM(small_db, rng=rng)
        assert 0 < ram.stash_probability <= 1

    def test_server_stores_ciphertexts(self, rng, small_db):
        ram = DPRAM(small_db, rng=rng)
        stored = ram.server.peek(0)
        assert stored != small_db[0]  # encrypted, not plaintext
        assert len(stored) > len(small_db[0])  # nonce overhead

    def test_initial_stash_rate(self, rng):
        # p = 0.5 over 400 records: stash should start near 200.
        ram = _ram(rng, n=400, p=0.5)
        assert 150 < ram.stash_size < 250


class TestCorrectness:
    def test_read_returns_initial_values(self, rng):
        ram = _ram(rng, n=32, p=0.3)
        db = integer_database(32)
        for index in range(32):
            assert ram.read(index) == db[index]

    def test_write_then_read(self, rng):
        ram = _ram(rng, n=32, p=0.3)
        ram.write(5, encode_int(999))
        assert ram.read(5) == encode_int(999)

    def test_repeated_read_write_cycles(self, rng):
        ram = _ram(rng, n=16, p=0.4)
        reference = {i: encode_int(i) for i in range(16)}
        source = rng.spawn("ops")
        for step in range(300):
            index = source.randbelow(16)
            if source.random() < 0.5:
                value = encode_int(10_000 + step)
                ram.write(index, value)
                reference[index] = value
            else:
                assert ram.read(index) == reference[index]

    def test_correct_under_p_one(self, rng):
        # Everything always stashed: server traffic is pure cover.
        ram = _ram(rng, n=8, p=1.0)
        ram.write(3, encode_int(77))
        assert ram.read(3) == encode_int(77)

    def test_correct_under_tiny_p(self, rng):
        ram = _ram(rng, n=8, p=1e-9)
        ram.write(2, encode_int(55))
        assert ram.read(2) == encode_int(55)

    def test_out_of_range(self, rng):
        ram = _ram(rng, n=8)
        with pytest.raises(RetrievalError):
            ram.read(8)
        with pytest.raises(RetrievalError):
            ram.write(-1, b"x")


class TestNonIntegerIndex:
    # A float index found a stashed record (3.0 == 3) and was answered;
    # an unstashed one drew the coins, landed the held upload and only
    # then failed in the backend.  Whether the call reached the server
    # told the server whether the record was stashed.

    @staticmethod
    def _build(scheme_type):
        ram = scheme_type(
            integer_database(16), stash_probability=0.5,
            rng=SeededRandomSource(1),
        )
        ram.read(5)  # a DP-RAM now holds this query's upload
        return ram

    @pytest.mark.parametrize("scheme_type", [DPRAM, ReadOnlyDPRAM])
    def test_refused_before_a_coin_or_a_request(self, scheme_type):
        ram, twin = self._build(scheme_type), self._build(scheme_type)
        stashed = {index for index, _ in ram._stash.items()}
        unstashed = set(range(ram.n)) - stashed
        log = Transcript()
        ram.attach_transcript(log)
        operations = ram.server.operations
        for index in (float(min(stashed)), float(min(unstashed))):
            with pytest.raises(TypeError):
                ram.read(index)
            if ram.writable:
                with pytest.raises(TypeError):
                    ram.write(index, bytes(ram.block_size))
        assert len(log) == 0 and ram.server.operations == operations
        assert ram._link.held == twin._link.held
        assert ram._link.blocks == twin._link.blocks == ram.writable
        assert dict(ram._stash.items()) == dict(twin._stash.items())
        assert ram.query_count == twin.query_count == 1
        assert ram._rng.random() == twin._rng.random()

    @pytest.mark.parametrize("scheme_type", [DPRAM, ReadOnlyDPRAM])
    def test_integer_types_still_read(self, scheme_type):
        ram, twin = self._build(scheme_type), self._build(scheme_type)
        logs = watch(ram), watch(twin)
        numpy = pytest.importorskip("numpy")
        for index in (True, numpy.int64(3), numpy.uint8(0)):
            assert ram.read(index) == twin.read(int(index))
        assert seen_pairs(logs[0], ram) == seen_pairs(logs[1], twin)


class TestWrongSizeWrites:
    def test_rejected_like_a_twin_that_never_saw_the_call(self):
        # A stream cipher hides everything but length: a 5-byte value
        # would sit on the server as a 21-byte ciphertext among 32-byte
        # ones.  The write is refused before a coin is drawn or the server
        # touched, so the history equals one that never made the call.
        def history(reject):
            rng = SeededRandomSource(3)
            ram = DPRAM(integer_database(64, 16), stash_probability=0.2,
                        rng=rng)
            log = watch(ram)
            answers = []
            for step in range(40):
                index = (7 * step) % 64
                if reject and step % 4 == 1:
                    for bad in (b"", b"short", bytes(15), bytes(17)):
                        with pytest.raises(BlockSizeError):
                            ram.write(index, bad)
                if step % 3:
                    answers.append(ram.read(index))
                else:
                    ram.write(index, bytes([step]) * 16)
            server = ram.server
            return {
                "answers": answers,
                "pairs": seen_pairs(log, ram),
                "queries": ram.query_count,
                "reads": server.reads,
                "writes": server.writes,
                "stash": ram.stash_size,
                "storage": [server.peek(slot) for slot in range(64)],
                "next coin": rng.random(),
            }

        rejecting, twin = history(True), history(False)
        for name, value in twin.items():
            assert rejecting[name] == value, name
        assert {len(block) for block in rejecting["storage"]} == {32}

    @pytest.mark.parametrize("scheme_type", [DPRAM, ReadOnlyDPRAM])
    @pytest.mark.parametrize("ragged", [1, 3])
    def test_ragged_database_rejected_before_the_key_or_a_coin(
        self, scheme_type, ragged
    ):
        # The constructor twin: block 0 sets the size, and a shorter block
        # further down would sit on the server as a 21-byte ciphertext
        # among 32-byte ones until its first write changed that length.
        blocks = [b"a" * 16, b"b" * 16, b"c" * 16, b"d" * 16]
        blocks[ragged] = b"short"
        rng = SeededRandomSource(3)
        with pytest.raises(BlockSizeError, match=f"block {ragged} has 5"):
            scheme_type(blocks, stash_probability=0.2, rng=rng)
        # Nothing was drawn: the handed rng is where a fresh one starts.
        assert rng.random() == SeededRandomSource(3).random()


class TestBandwidth:
    def test_three_transfers_less_the_shared_slot(self, rng):
        # Theorem 6.1's three blocks are the worst case: d_j and o_j go in
        # one download round that lists a slot once, so a query whose
        # d_j = o_j (no stash hit, no restash) moves two.  The upload is
        # held: it reaches the server in the next query's request.
        ram = _ram(rng, n=64, p=0.2)
        log = watch(ram)
        source = rng.spawn("mix")
        shared = 0
        for step in range(100):
            reads_before = ram.server.reads
            writes_before = ram.server.writes
            index = source.randbelow(64)
            if source.random() < 0.5:
                ram.write(index, encode_int(1))
            else:
                ram.read(index)
            download, overwrite = seen_pairs(log, ram)[-1]
            assert ram.server.reads - reads_before == 2 - (download == overwrite)
            assert ram.server.writes - writes_before == (step > 0)
            shared += download == overwrite
        assert 0 < shared < 100
        assert ram.server.operations == 3 * 100 - shared - 1
        ram.flush()  # the last query's upload
        assert ram.server.operations == 3 * 100 - shared

    def test_bandwidth_independent_of_n(self, rng):
        # p ~ 0: nothing is stashed, every query is d_j = o_j = q_j — two
        # blocks at any n; p = 1 at a large n: both slots drawn at random,
        # three blocks unless they meet.
        for n in (16, 256, 4096):
            ram = _ram(rng, n=n, p=1e-12)
            before = ram.server.operations
            ram.read(0)
            ram.flush()
            assert ram.server.operations - before == 2
            ram = _ram(rng, n=n, p=1.0)
            log = watch(ram)
            for index in range(8):
                before = ram.server.operations
                ram.read(index)
                ram.flush()
                download, overwrite = seen_pairs(log, ram)[-1]
                assert ram.server.operations - before == 3 - (
                    download == overwrite
                )


class _CountingDPRAM(DPRAM):
    """DP-RAM whose cipher counts its calls, through the ``_cipher`` seam."""

    def _cipher(self):
        encrypt, decrypt, encrypt_all = super()._cipher()
        self.calls = Counter()

        def counted(name, call):
            def counting(*args):
                self.calls[name] += 1
                return call(*args)
            return counting

        return counted("encrypt", encrypt), counted("decrypt", decrypt), (
            encrypt_all
        )


class TestCipherCalls:
    def test_decrypts_only_what_the_client_reads_or_re_encrypts(self):
        # A query seals one upload.  It opens the record's download only
        # to answer a read — a write replaces the record, so its download
        # goes out for the server's view and is never decrypted — and the
        # cover block only when it restashes and must re-encrypt it.
        ram = _CountingDPRAM(
            integer_database(16), stash_probability=0.5,
            rng=SeededRandomSource(7),
        )
        plan = random.Random(7)
        branches = Counter()
        for _ in range(400):
            index = plan.randrange(16)
            write = plan.random() < 0.5
            stashed = index in ram._stash
            before = Counter(ram.calls)
            if write:
                ram.write(index, bytes(ram.block_size))
            else:
                ram.read(index)
            restash = index in ram._stash  # only a restash puts it back
            branch = ("write" if write else "read", stashed, restash)
            calls = ram.calls - before
            assert (calls["decrypt"], calls["encrypt"]) == (
                (not write and not stashed) + restash, 1
            ), branch
            branches[branch] += 1
        # Every branch: a write to an unstashed record (0 / 1), to a
        # stashed one (0 decrypts), with a restash (1 / 1, the cover
        # block), and reads of both (1 decrypt when unstashed).
        assert len(branches) == 8 and min(branches.values()) >= 20


class TestTranscript:
    def test_pairs_recorded_per_query(self, rng):
        ram = _ram(rng, n=16, p=0.3)
        log = watch(ram)
        ram.read(3)
        ram.write(4, encode_int(1))
        pairs = seen_pairs(log, ram)  # the write's upload is still held
        assert len(pairs) == 2
        assert all(len(pair) == 2 for pair in pairs)

    def test_unstashed_read_touches_own_slot(self, rng):
        # With p ~ 0 nothing is stashed, so d_j = o_j = q_j always.
        ram = _ram(rng, n=16, p=1e-12)
        log = watch(ram)
        ram.read(7)
        assert seen_pairs(log, ram) == [(7, 7)]

    def test_stashed_read_downloads_random(self, rng):
        # With p = 1 everything is stashed; downloads are uniform.
        ram = _ram(rng, n=64, p=1.0)
        log = watch(ram)
        for _ in range(200):
            ram.read(0)
        downloads = {download for download, _ in seen_pairs(log, ram)}
        assert len(downloads) > 30  # spread over many slots, not pinned to 0

    def test_event_transcript_matches_pairs(self, rng):
        # (d_j, o_j) is still read off the wire, two-event queries
        # (d_j = o_j) and three-event ones alike: the pairs the client
        # planned are the pairs the server saw.
        ram = _ram(rng, n=16, p=0.3)
        transcript = watch(ram)
        planned = record_plans(ram)
        for index in range(16):
            ram.read(index)
            ram.write(index, encode_int(index))
        assert len(transcript.for_query(31)) in (1, 2)  # its upload is held
        ram.flush()
        assert transcript.dp_ram_pairs() == planned
        lengths = {len(transcript.for_query(query)) for query in range(32)}
        assert lengths == {2, 3}

    def test_reads_and_writes_look_identical(self, rng):
        # Same query index: the (d, o) marginal supports are identical for
        # read and write (encryption hides the payload difference).
        ram_r = _ram(rng, n=8, p=0.5)
        ram_w = DPRAM(
            integer_database(8), stash_probability=0.5, rng=rng.spawn("ram")
        )  # same spawn label -> same randomness as ram_r
        logs = watch(ram_r), watch(ram_w)
        ram_r.read(3)
        ram_w.write(3, encode_int(42))
        assert seen_pairs(logs[0], ram_r) == seen_pairs(logs[1], ram_w)


class TestStash:
    def test_stash_concentration(self, rng):
        # Lemma D.1: stash stays near p*n.
        n, p = 2000, 0.02
        ram = _ram(rng, n=n, p=p)
        source = rng.spawn("load")
        for _ in range(500):
            ram.read(source.randbelow(n))
        expected = p * n  # 40
        assert ram.stash_peak < math.e * expected + 10

    def test_stash_peak_monotone(self, rng):
        ram = _ram(rng, n=64, p=0.5)
        peak_before = ram.stash_peak
        for _ in range(50):
            ram.read(rng.randbelow(64))
        assert ram.stash_peak >= peak_before

    def test_params_epsilon_bound_positive(self, rng):
        ram = _ram(rng, n=64)
        assert ram.params.epsilon_bound > 0


class TestReadOnlyDPRAM:
    def test_plaintext_server(self, rng, small_db):
        ram = ReadOnlyDPRAM(small_db, rng=rng)
        assert ram.server.peek(0) == small_db[0]

    def test_reads_correct(self, rng, small_db):
        ram = ReadOnlyDPRAM(small_db, stash_probability=0.4, rng=rng)
        for index in range(len(small_db)):
            assert ram.read(index) == small_db[index]

    def test_repeated_reads_correct(self, rng, small_db):
        ram = ReadOnlyDPRAM(small_db, stash_probability=0.6, rng=rng)
        for _ in range(200):
            index = rng.randbelow(len(small_db))
            assert ram.read(index) == small_db[index]

    def test_no_uploads_ever(self, rng, small_db):
        ram = ReadOnlyDPRAM(small_db, rng=rng)
        for _ in range(50):
            ram.read(rng.randbelow(len(small_db)))
        assert ram.server.writes == 0

    def test_two_downloads_less_the_shared_slot(self, rng, small_db):
        ram = ReadOnlyDPRAM(small_db, stash_probability=0.3, rng=rng)
        log = watch(ram)
        shapes = set()
        for index in range(len(small_db)):
            before = ram.server.reads
            ram.read(index)
            download, overwrite = seen_pairs(log, ram)[-1]
            assert ram.server.reads - before == 2 - (download == overwrite)
            shapes.add(download == overwrite)
        assert shapes == {True, False}

    def test_pairs_distribution_shape(self, rng):
        ram = ReadOnlyDPRAM(
            integer_database(16), stash_probability=1e-12, rng=rng
        )
        log = watch(ram)
        ram.read(5)
        assert seen_pairs(log, ram) == [(5, 5)]

    def test_rejects_both_parameters(self, rng, small_db):
        with pytest.raises(ValueError):
            ReadOnlyDPRAM(small_db, stash_probability=0.1, phi=8, rng=rng)

    def test_refuses_a_key(self, rng, small_db):
        # The server holds plaintext, so a key would only mislead; a
        # backend factory passed in the fifth position lands there too.
        with pytest.raises(ValueError):
            ReadOnlyDPRAM(small_db, key=generate_key(rng), rng=rng)
        with pytest.raises(ValueError):
            ReadOnlyDPRAM(small_db, 0.1, None, rng, InMemoryBackend)

    def test_out_of_range(self, rng, small_db):
        ram = ReadOnlyDPRAM(small_db, rng=rng)
        with pytest.raises(RetrievalError):
            ram.read(len(small_db))
