"""Property-based tests for the crypto substrate."""

import hashlib
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest
from dp_ram_view import seen_pairs, watch

from repro.crypto import encryption
from repro.crypto.encryption import (
    IntegrityError,
    SecretKey,
    decrypt,
    decrypt_authenticated,
    decrypt_authenticated_many,
    decrypt_many,
    encrypt,
    encrypt_authenticated,
    encrypt_authenticated_many,
    encrypt_many,
)
from repro.core.dp_ram import DPRAM
from repro.crypto.prf import PRF
from repro.crypto.rng import SeededRandomSource
from repro.storage.blocks import integer_database


keys = st.binary(min_size=32, max_size=32).map(SecretKey)
payloads = st.binary(min_size=0, max_size=512)
batches = st.lists(st.binary(min_size=0, max_size=128), max_size=12)
seeds = st.integers(min_value=0, max_value=2**63)
# Block sizes around every boundary a keystream crosses: empty, one byte,
# the SHAKE-256 rate (136 bytes per squeeze) and its multiples, the common
# DP-RAM record sizes, a DP-KVS node block (330) and a long blob.
edge_sizes = st.sampled_from(
    [0, 1, 31, 32, 33, 64, 135, 136, 137, 272, 273, 330, 4096]
)
mixed_batches = st.lists(
    edge_sizes.flatmap(lambda size: st.binary(min_size=size, max_size=size)),
    max_size=8,
)


# -- tile boundaries ----------------------------------------------------------
#
# The bulk kernel XORs a batch tile by tile (``encryption._TILE_BYTES`` of
# joined blocks at most).  Random batches of a few hundred bytes never
# leave the first tile, so the reference-equivalence tests below also run
# these: joined sizes of 0, 1, tile - 1, tile, tile + 1 and 3 tile + 7
# bytes, equal and mixed block sizes, and blocks as long as a tile and
# longer.  Every property that holds inside one tile must hold across
# them, to the byte and to the rng position.

_TILE = encryption._TILE_BYTES


def _carved(total, sizes):
    """A batch of ``total`` joined bytes, block sizes cycling ``sizes``."""
    source = random.Random(total)
    blocks, turn = [], 0
    while total:
        size = min(sizes[turn % len(sizes)], total)
        blocks.append(source.randbytes(size))
        total -= size
        turn += 1
    return blocks


_TILE_BATCHES = [
    [],
    [b"\x5a"],
    _carved(_TILE - 1, [64]),
    _carved(_TILE, [64]),
    _carved(_TILE + 1, [64]),
    _carved(_TILE + 1, [330]),
    _carved(3 * _TILE + 7, [330, 64, 0, 1, 137, 4096]),
    [b"head", *_carved(_TILE, [_TILE]), b"", *_carved(_TILE + 5, [_TILE + 5]),
     b"tail" * 80],
]


def across_tiles(test):
    """Run a ``(key, plaintexts, seed)`` property on every tile batch too."""
    for number, batch in enumerate(_TILE_BATCHES):
        test = example(
            key=SecretKey(bytes(range(number, number + 32))),
            plaintexts=batch,
            seed=number,
        )(test)
    return test


# -- the oracle ---------------------------------------------------------------
#
# The construction in its textbook form — per block: one 16-byte nonce
# draw, one SHAKE-256 call, a byte-by-byte generator XOR, the tag
# likewise — written against ``hashlib`` alone.  It is the ground truth
# the optimized entry points are compared to, directly and through a
# DP-RAM built on it (``_ReferenceCipherDPRAM`` below).  Do not optimize.


def _reference_keystream(key, nonce, length):
    return hashlib.shake_256(key.material + b"stream:" + nonce).digest(length)


def encrypt_reference(key, plaintext, rng):
    nonce = rng.bytes(16)
    stream = _reference_keystream(key, nonce, len(plaintext))
    return nonce + bytes(p ^ s for p, s in zip(plaintext, stream))


def decrypt_reference(key, ciphertext):
    if len(ciphertext) < 16:
        raise ValueError(f"ciphertext too short: {len(ciphertext)}")
    nonce, body = ciphertext[:16], ciphertext[16:]
    stream = _reference_keystream(key, nonce, len(body))
    return bytes(c ^ s for c, s in zip(body, stream))


def encrypt_authenticated_reference(key, plaintext, rng):
    ciphertext = encrypt_reference(key, plaintext, rng)
    tag = hashlib.shake_256(key.material + b"mac:" + ciphertext).digest(16)
    return ciphertext + tag


class _LoggedSource:
    """A seeded source that notes the length of every ``bytes`` draw."""

    def __init__(self, seed):
        self._inner = SeededRandomSource(seed)
        self.draws = []

    def bytes(self, length):
        self.draws.append(length)
        return self._inner.bytes(length)


class _FixedNonce:
    """Hands out one fixed nonce per 16 bytes asked for."""

    def __init__(self, nonce):
        self._nonce = nonce

    def bytes(self, length):
        return self._nonce * (length // len(self._nonce))


class TestEncryptionProperties:
    @given(key=keys, plaintext=payloads, seed=seeds)
    @settings(max_examples=60)
    def test_roundtrip(self, key, plaintext, seed):
        rng = SeededRandomSource(seed)
        assert decrypt(key, encrypt(key, plaintext, rng)) == plaintext

    @given(key=keys, plaintext=payloads, seed=seeds)
    @settings(max_examples=60)
    def test_length_preserving_plus_nonce(self, key, plaintext, seed):
        rng = SeededRandomSource(seed)
        assert len(encrypt(key, plaintext, rng)) == len(plaintext) + 16

    @given(key=keys, plaintext=payloads, seed=seeds)
    @settings(max_examples=60)
    def test_authenticated_adds_nonce_and_tag(self, key, plaintext, seed):
        rng = SeededRandomSource(seed)
        sealed = encrypt_authenticated(key, plaintext, rng)
        assert len(sealed) == len(plaintext) + 32
        assert decrypt_authenticated(key, sealed) == plaintext

    @given(key=keys, plaintext=st.binary(min_size=1, max_size=64),
           seed=seeds)
    @settings(max_examples=60)
    def test_reencryption_unlinkable(self, key, plaintext, seed):
        rng = SeededRandomSource(seed)
        assert encrypt(key, plaintext, rng) != encrypt(key, plaintext, rng)

    @across_tiles
    @given(key=keys, plaintexts=batches, seed=seeds)
    @settings(max_examples=60)
    def test_one_fresh_nonce_per_block_in_the_same_draws(
        self, key, plaintexts, seed
    ):
        # What a seeded replay sees of the cipher: one 16-byte draw per
        # single-block call, ONE K*16-byte draw per bulk call (none for an
        # empty batch), each block led by its own slice of the draw.
        rng, probe = _LoggedSource(seed), SeededRandomSource(seed)
        singles = [encrypt(key, p, rng) for p in plaintexts]
        singles += [encrypt_authenticated(key, p, rng) for p in plaintexts]
        assert rng.draws == [16] * (2 * len(plaintexts))
        assert [c[:16] for c in singles] == [
            probe.bytes(16) for _ in singles
        ]
        rng.draws.clear()
        bulk = encrypt_many(key, plaintexts, rng)
        bulk += encrypt_authenticated_many(key, plaintexts, rng)
        assert rng.draws == ([16 * len(plaintexts)] * 2 if plaintexts else [])
        assert [c[:16] for c in bulk] == [probe.bytes(16) for _ in bulk]
        nonces = [c[:16] for c in singles + bulk]
        assert len(set(nonces)) == len(nonces)


class TestBulkEncryptionProperties:
    @across_tiles
    @given(key=keys, plaintexts=batches, seed=seeds)
    @settings(max_examples=60)
    def test_encrypt_many_equals_sequential_loop(
        self, key, plaintexts, seed
    ):
        # Same rng seed, identical ciphertexts AND identical generator
        # state afterwards: the bulk nonce draw is invisible.
        bulk_rng = SeededRandomSource(seed)
        loop_rng = SeededRandomSource(seed)
        bulk = encrypt_many(key, plaintexts, bulk_rng)
        loop = [encrypt(key, p, loop_rng) for p in plaintexts]
        assert bulk == loop
        assert bulk_rng.bytes(16) == loop_rng.bytes(16)

    @across_tiles
    @given(key=keys, plaintexts=batches, seed=seeds)
    @settings(max_examples=60)
    def test_optimized_matches_reference_implementation(
        self, key, plaintexts, seed
    ):
        # The whole-batch word-wise XOR over one bulk nonce draw must be
        # bit-identical to the textbook per-block form, and leave the
        # generator where the per-block draws leave it.
        opt_rng = SeededRandomSource(seed)
        ref_rng = SeededRandomSource(seed)
        assert encrypt_many(key, plaintexts, opt_rng) == [
            encrypt_reference(key, p, ref_rng) for p in plaintexts
        ]
        assert opt_rng.bytes(16) == ref_rng.bytes(16)

    @given(key=keys, plaintexts=batches, seed=seeds)
    @settings(max_examples=60)
    def test_decrypt_many_inverts_encrypt_many(self, key, plaintexts, seed):
        rng = SeededRandomSource(seed)
        ciphertexts = encrypt_many(key, plaintexts, rng)
        assert decrypt_many(key, ciphertexts) == list(plaintexts)

    @across_tiles
    @given(key=keys, plaintexts=batches, seed=seeds)
    @settings(max_examples=60)
    def test_authenticated_bulk_roundtrip_matches_reference(
        self, key, plaintexts, seed
    ):
        bulk_rng = SeededRandomSource(seed)
        loop_rng = SeededRandomSource(seed)
        ref_rng = SeededRandomSource(seed)
        ciphertexts = encrypt_authenticated_many(key, plaintexts, bulk_rng)
        assert ciphertexts == [
            encrypt_authenticated(key, p, loop_rng) for p in plaintexts
        ]
        assert ciphertexts == [
            encrypt_authenticated_reference(key, p, ref_rng)
            for p in plaintexts
        ]
        assert bulk_rng.bytes(16) == loop_rng.bytes(16) == ref_rng.bytes(16)
        assert decrypt_authenticated_many(key, ciphertexts) == list(
            plaintexts
        )
        assert [decrypt_authenticated(key, c) for c in ciphertexts] == list(
            plaintexts
        )

    @across_tiles
    @given(key=keys, plaintexts=mixed_batches, seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_mixed_size_batches_match_reference(self, key, plaintexts, seed):
        # One batch mixes empty blocks, sub-rate and multi-squeeze
        # keystreams (K = 0 included).  Bulk, the per-block loop and the
        # textbook reference must agree on ciphertexts, tags and the rng
        # position after every call.
        bulk_rng = SeededRandomSource(seed)
        loop_rng = SeededRandomSource(seed)
        ref_rng = SeededRandomSource(seed)
        ciphertexts = encrypt_many(key, plaintexts, bulk_rng)
        assert ciphertexts == [encrypt(key, p, loop_rng) for p in plaintexts]
        assert ciphertexts == [
            encrypt_reference(key, p, ref_rng) for p in plaintexts
        ]
        assert bulk_rng.bytes(16) == loop_rng.bytes(16) == ref_rng.bytes(16)
        assert decrypt_many(key, ciphertexts) == list(plaintexts)
        assert [decrypt(key, c) for c in ciphertexts] == list(plaintexts)
        assert [decrypt_reference(key, c) for c in ciphertexts] == list(
            plaintexts
        )
        sealed = encrypt_authenticated_many(key, plaintexts, bulk_rng)
        assert sealed == [
            encrypt_authenticated(key, p, loop_rng) for p in plaintexts
        ]
        assert sealed == [
            encrypt_authenticated_reference(key, p, ref_rng)
            for p in plaintexts
        ]
        assert bulk_rng.bytes(16) == loop_rng.bytes(16) == ref_rng.bytes(16)
        assert decrypt_authenticated_many(key, sealed) == list(plaintexts)

    @across_tiles
    @given(key=keys, plaintexts=mixed_batches, seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_predrawn_nonces_seal_like_a_draw_of_the_same_bytes(
        self, key, plaintexts, seed
    ):
        # The bucket DP-RAM draws a round's nonces before its download
        # round and seals after it: same bytes in, same ciphertexts out.
        nonces = SeededRandomSource(seed).bytes(16 * len(plaintexts))
        assert encrypt_many(key, plaintexts, nonces=nonces) == encrypt_many(
            key, plaintexts, SeededRandomSource(seed)
        )

    def test_predrawn_nonces_must_match_the_batch(self):
        key = SecretKey(bytes(32))
        for nonces in (b"", bytes(16), bytes(31), bytes(33), bytes(48)):
            with pytest.raises(ValueError):
                encrypt_many(key, [b"a", b"b"], nonces=nonces)
        with pytest.raises(TypeError):
            encrypt_many(key, [b"a"])
        with pytest.raises(TypeError):
            encrypt_many(key, [b"a"], SeededRandomSource(1), nonces=bytes(16))

    @given(key=keys,
           plaintexts=st.lists(st.binary(min_size=0, max_size=64),
                               min_size=1, max_size=8),
           seed=seeds,
           data=st.data())
    @settings(max_examples=60)
    def test_authenticated_rejects_tampering_per_block(
        self, key, plaintexts, seed, data
    ):
        # Flipping any bit of any block in the batch must be detected.
        rng = SeededRandomSource(seed)
        ciphertexts = encrypt_authenticated_many(key, plaintexts, rng)
        victim = data.draw(
            st.integers(min_value=0, max_value=len(ciphertexts) - 1)
        )
        block = bytearray(ciphertexts[victim])
        position = data.draw(
            st.integers(min_value=0, max_value=len(block) - 1)
        )
        block[position] ^= 1 << data.draw(
            st.integers(min_value=0, max_value=7)
        )
        tampered = list(ciphertexts)
        tampered[victim] = bytes(block)
        with pytest.raises(IntegrityError):
            decrypt_authenticated_many(key, tampered)


# Body and tag of ``encrypt_authenticated`` under ``_KAT_KEY`` and
# ``_KAT_NONCE`` for the plaintext ``(7 i + 3) mod 256`` of each length,
# computed once from ``hashlib.shake_256`` alone.  They hold the format —
# key ‖ label ‖ nonce, tag over nonce ‖ body, nonce ‖ body ‖ tag — still
# across interpreters and rewrites.
_KAT_KEY = SecretKey(bytes(range(32)))
_KAT_NONCE = bytes(range(0xA0, 0xB0))
_KAT = {
    0: ("", "87844c5a3110ec575d00a2311c56f516"),
    1: ("d1", "020f0daacb517e9cfe226bbdf16bf530"),
    64: (
        "d12d79de714683b7f17ca0b740bf5fa427486666b92f4d5940ac6201715fed16"
        "36c32461870ec75edd55372bd44dc2ed0b093773f998ba6b51b4a7d69351b196",
        "1a8d47770e3b4ccc0cc89d8ab3c40b17",
    ),
    330: (
        "d12d79de714683b7f17ca0b740bf5fa427486666b92f4d5940ac6201715fed16"
        "36c32461870ec75edd55372bd44dc2ed0b093773f998ba6b51b4a7d69351b196"
        "81a646b05210ba2ecbd14bb2e9f0f374a1f14ef46c44bd2571c119922cb5e418"
        "a117713591036d793af5c9f1cc5a7cf31b040c9b9922ac7eba4bbb0546d61f1b"
        "1475e8f319588e10593e2150825b2023b583d1e85dde230cdd6d6f4bd100f626"
        "e3b340e1dc6b30c623ff5db002fceacd2081e92770eae744d80d733489c4a9dc"
        "cbd12297ddad15cc9557f0fe759f8f1c09ad8f048e3660cf12f8466c703c161c"
        "40aa55a0076c8de00b54c1727cd7b5a759104227d31f56b45ee25faf948f355c"
        "7ac63959874dcb56b7c63a8b606daf1394922d9776ef3496e8e2e482129d773d"
        "fbfb8541c7143518e42fa7cc9b4de51eeb76a276630252b403a06f753c5b5d5c"
        "d872aa23a0099d2eec4f",
        "5738d061d5f3ff5ff9c4109c3d6ffaae",
    ),
}


class TestKnownAnswers:
    @pytest.mark.parametrize("length", sorted(_KAT))
    def test_every_entry_point_yields_the_vector(self, length):
        plaintext = bytes((7 * i + 3) % 256 for i in range(length))
        body, tag = (bytes.fromhex(part) for part in _KAT[length])
        plain = _KAT_NONCE + body
        sealed = plain + tag
        rng = _FixedNonce(_KAT_NONCE)
        assert encrypt(_KAT_KEY, plaintext, rng) == plain
        assert encrypt_authenticated(_KAT_KEY, plaintext, rng) == sealed
        assert encrypt_many(_KAT_KEY, [plaintext] * 3, rng) == [plain] * 3
        assert encrypt_many(
            _KAT_KEY, [plaintext] * 3, nonces=_KAT_NONCE * 3
        ) == [plain] * 3
        assert encrypt_authenticated_many(
            _KAT_KEY, [plaintext] * 3, rng
        ) == [sealed] * 3
        assert decrypt(_KAT_KEY, plain) == plaintext
        assert decrypt_authenticated(_KAT_KEY, sealed) == plaintext
        assert decrypt_many(_KAT_KEY, [plain] * 3) == [plaintext] * 3
        assert decrypt_authenticated_many(
            _KAT_KEY, [sealed] * 3
        ) == [plaintext] * 3


def _tamperings(sealed):
    """One flipped bit in the nonce, the body and the tag; a truncated and
    an extended ciphertext."""
    flips = {"nonce": 5, "body": 16 + (len(sealed) - 32) // 2, "tag": -3}
    for part, position in flips.items():
        if part == "body" and len(sealed) == 32:
            continue  # an empty body has no bit to flip
        forged = bytearray(sealed)
        forged[position] ^= 0x10
        yield part, bytes(forged)
    yield "truncated", sealed[:-1]
    yield "cut below nonce + tag", sealed[:31]
    yield "extended", sealed + b"\x00"


class TestTamperMatrix:
    @pytest.mark.parametrize("length", [0, 1, 64, 330])
    def test_every_tampering_raises_before_any_decryption(
        self, length, monkeypatch
    ):
        key = SecretKey(bytes(range(1, 33)))
        rng = SeededRandomSource(length)
        sealed = encrypt_authenticated(key, bytes(length), rng)
        # A full tile of honest blocks: the forged one, put last, falls
        # in a tile of its own behind it.
        others = encrypt_authenticated_many(
            key, [bytes(length)] * (_TILE // (length + 16)), rng
        )

        # Every XOF call of the module, by domain label.
        labels = []

        def spy(data):
            labels.append(bytes(data[32:36]))
            return hashlib.shake_256(data)

        monkeypatch.setattr(encryption, "shake_256", spy)
        for what, forged in _tamperings(sealed):
            with pytest.raises(IntegrityError):
                decrypt_authenticated(key, forged)
            # The forged block sits last: the bulk path verifies the whole
            # batch before it decrypts the first block of the first tile.
            with pytest.raises(IntegrityError):
                decrypt_authenticated_many(key, [*others, forged])
            assert b"stre" not in labels, what
        assert labels.count(b"mac:") > 0
        # The spy does see a keystream once a ciphertext verifies, and one
        # per block once the whole batch does.
        assert decrypt_authenticated(key, sealed) == bytes(length)
        assert labels.count(b"stre") == 1
        assert decrypt_authenticated_many(key, [*others, sealed]) == (
            [bytes(length)] * (len(others) + 1)
        )
        assert labels.count(b"stre") == len(others) + 2


class TestDomainSeparation:
    @given(key=keys, nonce=st.binary(min_size=16, max_size=16))
    @settings(max_examples=60)
    def test_keystream_is_not_the_tag_of_an_empty_body(self, key, nonce):
        # Same key, same nonce, the two labels: the 16 keystream bytes an
        # all-zero plaintext exposes are not the tag of ``nonce ‖ b""``.
        rng = _FixedNonce(nonce)
        keystream = encrypt(key, bytes(16), rng)[16:]
        tag = encrypt_authenticated(key, b"", rng)[16:]
        assert len(keystream) == len(tag) == 16
        assert keystream != tag

    @given(key=keys, other=keys,
           nonce=st.binary(min_size=16, max_size=16),
           other_nonce=st.binary(min_size=16, max_size=16))
    @settings(max_examples=60)
    def test_streams_of_two_keys_or_two_nonces_are_unrelated(
        self, key, other, nonce, other_nonce
    ):
        # Zero plaintexts expose the keystreams; "unrelated" is checked as
        # no shared 8-byte window at any offset of 128 bytes.
        def stream(k, n):
            return encrypt(k, bytes(128), _FixedNonce(n))[16:]

        def windows(data):
            return {data[i:i + 8] for i in range(len(data) - 7)}

        base = stream(key, nonce)
        assert base == stream(key, nonce)
        if other != key:
            assert not windows(base) & windows(stream(other, nonce))
        if other_nonce != nonce:
            assert not windows(base) & windows(stream(key, other_nonce))


class _ReferenceCipherDPRAM(DPRAM):
    """Oracle: DP-RAM on the textbook per-block reference cipher
    (:func:`encrypt_reference` above), setup included — slower,
    bit-identical, the baseline the bulk-crypto invariance witnesses
    compare against."""

    def _cipher(self):
        def encrypt_all(key, blocks, rng):
            return [encrypt_reference(key, block, rng) for block in blocks]

        return encrypt_reference, decrypt_reference, encrypt_all


class TestDPRAMOnBulkCrypto:
    def test_identical_to_the_per_block_reference_to_the_stored_byte(self):
        # Bulk encryption against the reference cipher, both over the
        # list backend, one seeded 200-op history with 25 % writes:
        # nothing a client or the server can observe moves.
        n, seed = 256, 0x2B5
        blocks = integer_database(n)
        workload = SeededRandomSource(seed + 1)
        plan = [
            (workload.randbelow(n), workload.random() < 0.25)
            for _ in range(200)
        ]
        witnesses = []
        for scheme_type in (_ReferenceCipherDPRAM, DPRAM):
            scheme = scheme_type(blocks, rng=SeededRandomSource(seed))
            log = watch(scheme)
            answers = [
                scheme.write(index, bytes(scheme.block_size))
                if write else scheme.read(index)
                for index, write in plan
            ]
            witnesses.append({
                "answers": answers,
                "pairs": seen_pairs(log, scheme),
                "reads": scheme.server.reads,
                "writes": scheme.server.writes,
                "epsilon": scheme.params.epsilon_bound,
                "storage": [scheme.server.peek(slot) for slot in range(n)],
            })
        per_block, bulk = witnesses
        for name, value in per_block.items():
            assert bulk[name] == value, name


class TestPrfProperties:
    @given(key=st.binary(min_size=1, max_size=64),
           message=st.binary(max_size=128),
           modulus=st.integers(min_value=1, max_value=10**9))
    @settings(max_examples=60)
    def test_integer_in_range(self, key, message, modulus):
        value = PRF(key).integer(message, modulus)
        assert 0 <= value < modulus

    @given(key=st.binary(min_size=1, max_size=64),
           message=st.binary(max_size=64),
           modulus=st.integers(min_value=1, max_value=1000),
           count=st.integers(min_value=0, max_value=8))
    @settings(max_examples=60)
    def test_choices_shape(self, key, message, modulus, count):
        choices = PRF(key).choices(message, modulus, count)
        assert len(choices) == count
        assert all(0 <= c < modulus for c in choices)
