"""Symmetric encryption with content-independent ciphertexts.

DP-RAM (Section 6) assumes an IND-CPA symmetric scheme ``(Enc, Dec)`` so
that the transcript reveals only *which* server slots were touched, never
what they contain.  We implement a nonce-based stream cipher: a fresh random
nonce is drawn per encryption and the keystream is
``PRG(HMAC(key, nonce))``.  Re-encrypting the same plaintext therefore
yields an unrelated ciphertext, which is exactly the property the paper's
simulator argument relies on (Section 6, "Discussion about encryption").
``PRG`` is the HMAC-counter stream of :mod:`repro.crypto.prg`; past its
first 32-byte chunk a keystream is a single ``hashlib.pbkdf2_hmac`` call
(one-iteration PBKDF2 with a 4-zero-byte salt yields the same blocks, but
numbers them from 1, so chunk 0 is computed apart).

This is a simulation-grade cipher built from the standard library; it is not
meant to resist real adversaries (no authentication tag), and the repository
never claims otherwise.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Sequence

from repro.crypto.prg import counter_stream, hmac_pads
from repro.crypto.rng import RandomSource

NONCE_SIZE = 16
"""Number of nonce bytes prepended to every ciphertext."""

CIPHERTEXT_OVERHEAD = NONCE_SIZE
"""Ciphertext expansion in bytes (the nonce)."""

_KEY_SIZE = 32


@dataclass(frozen=True)
class SecretKey:
    """Wrapper for symmetric key material.

    Using a dedicated type (rather than raw ``bytes``) prevents accidentally
    passing plaintext where a key is expected.
    """

    material: bytes

    def __post_init__(self) -> None:
        if len(self.material) != _KEY_SIZE:
            raise ValueError(
                f"key must be {_KEY_SIZE} bytes, got {len(self.material)}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fingerprint = hashlib.sha256(self.material).hexdigest()[:8]
        return f"SecretKey(fingerprint={fingerprint})"


def generate_key(rng: RandomSource) -> SecretKey:
    """Sample a fresh symmetric key from ``rng``."""
    return SecretKey(rng.bytes(_KEY_SIZE))


# The optimized path computes HMAC-SHA256 "by hand": HMAC(k, m) =
# H(opad_k || H(ipad_k || m)) with the padded-key XOR masks precomputed.
# Two one-shot ``hashlib.sha256`` calls replace the ``hmac`` module's
# object construction, copy, update and finalize round trips, which is
# where the per-block Python overhead lives.  The seed -> keystream step
# (:func:`repro.crypto.prg.counter_stream`) does the same below 64 bytes
# and hands longer streams to PBKDF2.  The bytes produced are the
# textbook HMAC, so they match the frozen reference implementation
# bit for bit (``tests/property/test_prop_crypto.py`` pins this).


def _key_states(key: SecretKey) -> tuple["hashlib._Hash", ...]:
    """Per-key SHA-256 states ``(stream inner, mac inner, outer)``.

    Keying an HMAC re-derives the inner/outer pads from the key on every
    call; we pay that once per key — absorbing the padded key block and
    the ``b"stream:"`` / ``b"mac:"`` domain separators into reusable
    hash states — and cache the result on the (frozen) key object so
    every call site, single-block and bulk, shares one keying.  Each use
    is a ``copy()`` of the cached state, never a mutation.
    """
    states = getattr(key, "_states", None)
    if states is None:
        ipad, opad = hmac_pads(key.material)
        states = (
            hashlib.sha256(ipad + b"stream:"),
            hashlib.sha256(ipad + b"mac:"),
            hashlib.sha256(opad),
        )
        object.__setattr__(key, "_states", states)
    return states


def _keystream(key: SecretKey, nonce: bytes, length: int) -> bytes:
    """``PRG(HMAC(key, b"stream:" + nonce))`` from the cached key states."""
    stream_inner, _, outer = _key_states(key)
    inner = stream_inner.copy()
    inner.update(nonce)
    seed = outer.copy()
    seed.update(inner.digest())
    return counter_stream(seed.digest(), length)


def _xor(data: bytes, stream: bytes) -> bytes:
    """Word-wise XOR of two equal-length byte strings."""
    length = len(data)
    return (
        int.from_bytes(data, "little") ^ int.from_bytes(stream, "little")
    ).to_bytes(length, "little")


def encrypt(key: SecretKey, plaintext: bytes, rng: RandomSource) -> bytes:
    """Encrypt ``plaintext`` under ``key`` with a fresh nonce from ``rng``."""
    nonce = rng.bytes(NONCE_SIZE)
    stream = _keystream(key, nonce, len(plaintext))
    return nonce + _xor(plaintext, stream)


def decrypt(key: SecretKey, ciphertext: bytes) -> bytes:
    """Invert :func:`encrypt`.

    Raises:
        ValueError: if the ciphertext is shorter than the nonce.
    """
    if len(ciphertext) < NONCE_SIZE:
        raise ValueError(
            f"ciphertext too short: {len(ciphertext)} < nonce size {NONCE_SIZE}"
        )
    nonce, body = ciphertext[:NONCE_SIZE], ciphertext[NONCE_SIZE:]
    stream = _keystream(key, nonce, len(body))
    return _xor(body, stream)


# -- bulk variants ------------------------------------------------------------
#
# Every DP-RAM / bucket-RAM round encrypts or decrypts a whole batch of
# blocks back to back under the same key.  The bulk entry points below
# amortize what the per-block loop pays K times: the nonces for a round
# are drawn in ONE ``rng.bytes(K * NONCE_SIZE)`` call and split per
# block, and the keyed HMAC states come from the per-key cache.  For the
# seeded Mersenne source (and trivially for system entropy) one bulk
# draw yields exactly the bytes of K sequential ``bytes(NONCE_SIZE)``
# draws and leaves the generator in the same state, so ciphertexts and
# every downstream coin are bit-identical to the sequential loop —
# ``tests/property/test_prop_crypto.py`` holds that equivalence.


def _keystreams(
    key: SecretKey, nonces: bytes, bodies: Sequence[bytes]
) -> bytes:
    """The keystreams of ``bodies``, joined; ``nonces`` is joined likewise."""
    stream_inner, _, outer = _key_states(key)
    streams: list[bytes] = []
    position = 0
    for body in bodies:
        inner = stream_inner.copy()
        inner.update(nonces[position:position + NONCE_SIZE])
        position += NONCE_SIZE
        seed = outer.copy()
        seed.update(inner.digest())
        streams.append(counter_stream(seed.digest(), len(body)))
    return b"".join(streams)


def _seal_many(
    key: SecretKey, nonces: bytes, plaintexts: Sequence[bytes]
) -> list[bytes]:
    """Seal ``plaintexts`` under already-drawn ``nonces`` (joined, in order).

    The one sealing loop: :func:`encrypt_many` draws the nonces and
    seals at once, the bucket DP-RAM draws them with the rest of a
    query's coins before its download round and seals after it.  The
    caller owes a fresh ``NONCE_SIZE`` bytes per plaintext.
    """
    # One whole-batch XOR: cheaper than a word-wise XOR per block.
    mixed = _xor(b"".join(plaintexts), _keystreams(key, nonces, plaintexts))
    out: list[bytes] = []
    position = 0
    offset = 0
    for plaintext in plaintexts:
        end = offset + len(plaintext)
        out.append(nonces[position:position + NONCE_SIZE] + mixed[offset:end])
        position += NONCE_SIZE
        offset = end
    return out


def encrypt_many(
    key: SecretKey, plaintexts: Sequence[bytes], rng: RandomSource
) -> list[bytes]:
    """Encrypt a batch; bit-identical to a sequential :func:`encrypt` loop."""
    if not plaintexts:
        return []
    return _seal_many(
        key, rng.bytes(len(plaintexts) * NONCE_SIZE), plaintexts
    )


def decrypt_many(key: SecretKey, ciphertexts: Sequence[bytes]) -> list[bytes]:
    """Invert :func:`encrypt_many` (order-preserving per-block decrypt).

    Raises:
        ValueError: if any ciphertext is shorter than the nonce.
    """
    for ciphertext in ciphertexts:
        if len(ciphertext) < NONCE_SIZE:
            raise ValueError(
                f"ciphertext too short: {len(ciphertext)} < nonce size "
                f"{NONCE_SIZE}"
            )
    nonces = b"".join([ciphertext[:NONCE_SIZE] for ciphertext in ciphertexts])
    bodies = [ciphertext[NONCE_SIZE:] for ciphertext in ciphertexts]
    mixed = _xor(b"".join(bodies), _keystreams(key, nonces, bodies))
    out: list[bytes] = []
    offset = 0
    for body in bodies:
        end = offset + len(body)
        out.append(mixed[offset:end])
        offset = end
    return out


# -- authenticated variant ---------------------------------------------------
#
# The paper's model is an honest-but-curious server, so plain IND-CPA
# encryption suffices for the privacy proofs.  Deployments facing a server
# that might *tamper* with ciphertexts need integrity too; the
# encrypt-then-MAC pair below adds a 16-byte HMAC tag and detects any
# modification (see repro.storage.faults for the failure-injection tests).

TAG_SIZE = 16
"""Bytes of HMAC tag appended by :func:`encrypt_authenticated`."""

AUTHENTICATED_OVERHEAD = NONCE_SIZE + TAG_SIZE
"""Total expansion of an authenticated ciphertext."""


class IntegrityError(Exception):
    """An authenticated ciphertext failed tag verification."""


def _tag(key: SecretKey, ciphertext: bytes) -> bytes:
    _, mac_inner, outer = _key_states(key)
    inner = mac_inner.copy()
    inner.update(ciphertext)
    tag = outer.copy()
    tag.update(inner.digest())
    return tag.digest()[:TAG_SIZE]


def encrypt_authenticated(
    key: SecretKey, plaintext: bytes, rng: RandomSource
) -> bytes:
    """Encrypt-then-MAC: :func:`encrypt` plus an HMAC-SHA256 tag."""
    ciphertext = encrypt(key, plaintext, rng)
    return ciphertext + _tag(key, ciphertext)


def decrypt_authenticated(key: SecretKey, ciphertext: bytes) -> bytes:
    """Verify the tag, then decrypt.

    Raises:
        IntegrityError: if the ciphertext was modified (or is too short to
            carry a tag).
    """
    if len(ciphertext) < NONCE_SIZE + TAG_SIZE:
        raise IntegrityError(
            f"authenticated ciphertext too short: {len(ciphertext)} bytes"
        )
    body, tag = ciphertext[:-TAG_SIZE], ciphertext[-TAG_SIZE:]
    if not hmac.compare_digest(tag, _tag(key, body)):
        raise IntegrityError("ciphertext failed integrity verification")
    return decrypt(key, body)


def encrypt_authenticated_many(
    key: SecretKey, plaintexts: Sequence[bytes], rng: RandomSource
) -> list[bytes]:
    """Bulk encrypt-then-MAC; bit-identical to the sequential loop."""
    ciphertexts = encrypt_many(key, plaintexts, rng)
    _, mac_inner, outer = _key_states(key)
    out: list[bytes] = []
    for ciphertext in ciphertexts:
        inner = mac_inner.copy()
        inner.update(ciphertext)
        tag = outer.copy()
        tag.update(inner.digest())
        out.append(ciphertext + tag.digest()[:TAG_SIZE])
    return out


def decrypt_authenticated_many(
    key: SecretKey, ciphertexts: Sequence[bytes]
) -> list[bytes]:
    """Verify every tag, then bulk-decrypt.

    Verification is per block: the first tampered block raises, naming
    nothing about the others (callers needing per-block recovery fall
    back to :func:`decrypt_authenticated` one block at a time).

    Raises:
        IntegrityError: if any ciphertext was modified or is too short.
    """
    bodies: list[bytes] = []
    for ciphertext in ciphertexts:
        if len(ciphertext) < NONCE_SIZE + TAG_SIZE:
            raise IntegrityError(
                f"authenticated ciphertext too short: {len(ciphertext)} bytes"
            )
        body, tag = ciphertext[:-TAG_SIZE], ciphertext[-TAG_SIZE:]
        if not hmac.compare_digest(tag, _tag(key, body)):
            raise IntegrityError("ciphertext failed integrity verification")
        bodies.append(body)
    return decrypt_many(key, bodies)


# -- frozen reference implementation ------------------------------------------
#
# The original (pre-bulk) code path, kept verbatim: a fresh HMAC keying
# per block, a stateful counter generator with an HMAC keying per
# 32-byte keystream segment, and the byte-by-byte generator XOR.  It is
# the ground truth ``tests/property/test_prop_crypto.py`` compares the
# optimized outputs to, directly and through a DP-RAM built on it
# (``_ReferenceCipherDPRAM`` there).  Do not optimize these.


class _ReferenceCounterPRG:
    """The seed repository's ``CounterPRG``, preserved verbatim."""

    def __init__(self, seed: bytes) -> None:
        if not isinstance(seed, (bytes, bytearray)):
            raise TypeError(
                f"PRG seed must be bytes, got {type(seed).__name__}"
            )
        if len(seed) == 0:
            raise ValueError("PRG seed must be non-empty")
        self._seed = bytes(seed)
        self._counter = 0
        self._buffer = b""

    def read(self, length: int) -> bytes:
        if length < 0:
            raise ValueError(f"length must be non-negative, got {length}")
        while len(self._buffer) < length:
            block = hmac.new(
                self._seed, self._counter.to_bytes(8, "big"), hashlib.sha256
            ).digest()
            self._counter += 1
            self._buffer += block
        out, self._buffer = self._buffer[:length], self._buffer[length:]
        return out

    @classmethod
    def expand(cls, seed: bytes, length: int) -> bytes:
        return cls(seed).read(length)


def _reference_keystream(key: SecretKey, nonce: bytes, length: int) -> bytes:
    seed = hmac.new(key.material, b"stream:" + nonce, hashlib.sha256).digest()
    return _ReferenceCounterPRG.expand(seed, length)


def encrypt_reference(
    key: SecretKey, plaintext: bytes, rng: RandomSource
) -> bytes:
    """The seed implementation of :func:`encrypt` (per-byte XOR)."""
    nonce = rng.bytes(NONCE_SIZE)
    stream = _reference_keystream(key, nonce, len(plaintext))
    body = bytes(p ^ s for p, s in zip(plaintext, stream))
    return nonce + body


def decrypt_reference(key: SecretKey, ciphertext: bytes) -> bytes:
    """The seed implementation of :func:`decrypt` (per-byte XOR)."""
    if len(ciphertext) < NONCE_SIZE:
        raise ValueError(
            f"ciphertext too short: {len(ciphertext)} < nonce size {NONCE_SIZE}"
        )
    nonce, body = ciphertext[:NONCE_SIZE], ciphertext[NONCE_SIZE:]
    stream = _reference_keystream(key, nonce, len(body))
    return bytes(c ^ s for c, s in zip(body, stream))


def encrypt_authenticated_reference(
    key: SecretKey, plaintext: bytes, rng: RandomSource
) -> bytes:
    """The seed implementation of :func:`encrypt_authenticated`."""
    ciphertext = encrypt_reference(key, plaintext, rng)
    tag = hmac.new(
        key.material, b"mac:" + ciphertext, hashlib.sha256
    ).digest()[:TAG_SIZE]
    return ciphertext + tag
