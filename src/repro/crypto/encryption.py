"""Symmetric encryption with content-independent ciphertexts.

DP-RAM (Section 6) assumes an IND-CPA symmetric scheme ``(Enc, Dec)`` so
that the transcript reveals only *which* server slots were touched, never
what they contain.  We implement a nonce-based stream cipher on a keyed
extendable-output function (SHAKE-256, FIPS 202), one C call per block:

* keystream ``= SHAKE256(key ‖ "stream:" ‖ nonce)``, read to the
  plaintext's length and XORed onto it;
* tag ``= SHAKE256(key ‖ "mac:" ‖ nonce ‖ body)``, 16 bytes, checked before
  a byte is decrypted — the authenticated variant, for a server that may
  *tamper* (the paper's is honest-but-curious; IND-CPA suffices for it);
* ciphertext ``= nonce ‖ body [‖ tag]`` with a fresh 16-byte nonce drawn
  from the caller's ``rng`` per block.

Re-encrypting the same plaintext therefore yields an unrelated
ciphertext, which is exactly the property the paper's simulator argument
relies on (Section 6, "Discussion about encryption").  A bare key prefix
is enough because a sponge, unlike a Merkle–Damgård hash, has no length
extension: ``SHAKE256(key ‖ message)`` with a *fixed-length* key is a PRF
and a MAC — the rationale of KMAC (NIST SP 800-185), which differs only in
how it frames the key.  The key is always 32 bytes and the two labels
differ in their first byte, so no stream input is ever a tag input.

The ``*_many`` entry points do the same per block over ONE nonce draw and
XOR the batch a tile of ``_TILE_BYTES`` at a time, so sealing a whole
database at setup needs a tile of scratch memory, not copies of the
database (see "bulk variants" below).

This is a simulation-grade cipher built from the standard library; it is
not meant to resist real adversaries (its nonces come from whatever
``rng`` the caller hands in, seeded ones included), and the repository
never claims otherwise.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass
from hashlib import sha256, shake_256
from typing import Sequence

from repro.crypto.rng import RandomSource

NONCE_SIZE = 16
"""Number of nonce bytes prepended to every ciphertext."""

CIPHERTEXT_OVERHEAD = NONCE_SIZE
"""Ciphertext expansion in bytes (the nonce)."""

TAG_SIZE = 16
"""Bytes of tag appended by :func:`encrypt_authenticated`."""

AUTHENTICATED_OVERHEAD = NONCE_SIZE + TAG_SIZE
"""Total expansion of an authenticated ciphertext."""

_KEY_SIZE = 32
_STREAM = b"stream:"
_MAC = b"mac:"


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
        fingerprint = sha256(self.material).hexdigest()[:8]
        return f"SecretKey(fingerprint={fingerprint})"


class IntegrityError(Exception):
    """An authenticated ciphertext failed tag verification."""


def generate_key(rng: RandomSource) -> SecretKey:
    """Sample a fresh symmetric key from ``rng``."""
    return SecretKey(rng.bytes(_KEY_SIZE))


def _xor(data: bytes, stream: bytes) -> bytes:
    """Word-wise XOR of two equal-length byte strings."""
    return (
        int.from_bytes(data, "little") ^ int.from_bytes(stream, "little")
    ).to_bytes(len(data), "little")


def _tag(key: SecretKey, nonce_and_body: bytes) -> bytes:
    return shake_256(key.material + _MAC + nonce_and_body).digest(TAG_SIZE)


def _verified(key: SecretKey, ciphertext: bytes) -> bytes:
    """``nonce ‖ body`` of an authenticated ciphertext whose tag holds."""
    if len(ciphertext) < AUTHENTICATED_OVERHEAD:
        raise IntegrityError(
            f"authenticated ciphertext too short: {len(ciphertext)} bytes"
        )
    nonce_and_body, tag = ciphertext[:-TAG_SIZE], ciphertext[-TAG_SIZE:]
    if not hmac.compare_digest(tag, _tag(key, nonce_and_body)):
        raise IntegrityError("ciphertext failed integrity verification")
    return nonce_and_body


def encrypt(key: SecretKey, plaintext: bytes, rng: RandomSource) -> bytes:
    """Encrypt ``plaintext`` under ``key`` with a fresh nonce from ``rng``."""
    nonce = rng.bytes(NONCE_SIZE)
    stream = shake_256(key.material + _STREAM + nonce).digest(len(plaintext))
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
    stream = shake_256(key.material + _STREAM + nonce).digest(len(body))
    return _xor(body, stream)


def encrypt_authenticated(
    key: SecretKey, plaintext: bytes, rng: RandomSource
) -> bytes:
    """Encrypt-then-MAC: :func:`encrypt` plus a tag over ``nonce ‖ body``."""
    ciphertext = encrypt(key, plaintext, rng)
    return ciphertext + _tag(key, ciphertext)


def decrypt_authenticated(key: SecretKey, ciphertext: bytes) -> bytes:
    """Verify the tag, then decrypt.

    Raises:
        IntegrityError: if the ciphertext was modified or is too short.
    """
    return decrypt(key, _verified(key, ciphertext))


# -- bulk variants ------------------------------------------------------------
# A DP-RAM / bucket-RAM round seals or opens a whole batch under one key:
# its nonces are ONE ``rng.bytes(K * NONCE_SIZE)`` draw and the batch is
# XORed as big integers, cheaper than word-wise block by block.  For the
# seeded Mersenne source (trivially for system entropy) that draw yields the
# bytes of K sequential ``bytes(NONCE_SIZE)`` draws and leaves the generator
# in the same state, so ciphertexts and every later coin equal the per-block
# loop's (``tests/property/test_prop_crypto.py`` holds the equivalence).
#
# Why tiles.  Setup hands a whole database to ONE call, and the XOR's
# operands — joined bodies, joined keystream, two integers, their XOR, its
# bytes — are five more copies of whatever they span.  Spanning the batch,
# they made setup, not steady state, the process's peak memory: sealing the
# DP-KVS node array peaked at 3.56x the ciphertexts it returned.  Spanning a
# tile they are ``_TILE_BYTES`` of scratch however large the batch, and a
# round's batch is a single tile: the XOF calls and the one XOR it always
# made, behind one size pass.  For the same reason nothing made per block —
# nonce slices, stripped bodies, keystream pieces — may outlive its tile: a
# per-block list across the database is one more copy of it, and twice
# took PR 19 over the benchmark's peak-RSS bound.
# ``tests/integration/test_scale.py`` holds the peak with ``tracemalloc``.

_TILE_BYTES = 64 * 1024
"""Block bytes XORed as one integer, at most.  Bytes, not blocks: scratch
memory is what a tile bounds, and blocks run from 64-byte records to 4 KiB
pages.  Measured on the DP-KVS build, time is flat from ~10 KiB to ~2 MiB
and the peak from 1 KiB to ~100 KiB; a DP-KVS round (3.3 KB), a DP-RAM op
and a cluster batch are a single tile.  Not a knob: the kernel below is
its only reader (the tests look it up to build batches around it)."""


def _xor_keystreams(
    key: SecretKey, blocks: Sequence[bytes], nonces: bytes | None
) -> list[bytes]:
    """The bulk kernel: seal ``blocks`` under ``nonces``, or open them.

    With ``nonces`` (joined, ``NONCE_SIZE`` bytes per block) every block is
    a plaintext and comes back as ``nonce ‖ body``; with ``None`` every
    block is a ``nonce ‖ body`` and comes back as its plaintext.  Either
    way the batch is walked in tiles: the keystreams of a tile are made,
    the tile XORed as one integer and cut straight into the output.

    A tile is a run of ``_TILE_BYTES // longest block`` blocks (at least
    one), so it joins ``_TILE_BYTES`` at most unless one block alone is
    longer.  Finding that takes one pass in C and no per-block list, and
    for the equal-sized blocks every scheme seals it is the greedy tiling
    by bytes.
    """
    out: list[bytes] = []
    if not blocks:
        return out
    prefix = key.material + _STREAM
    per_tile = _TILE_BYTES // (max(map(len, blocks)) or 1) or 1
    for first in range(0, len(blocks), per_tile):
        bodies = blocks[first:first + per_tile]
        if nonces is None:
            stream = b"".join([
                shake_256(prefix + block[:NONCE_SIZE]).digest(
                    len(block) - NONCE_SIZE
                )
                for block in bodies
            ])
            bodies = [block[NONCE_SIZE:] for block in bodies]
        else:
            start = first * NONCE_SIZE
            stream = b"".join([
                shake_256(prefix + nonces[at:at + NONCE_SIZE]).digest(len(body))
                for at, body in zip(range(start, len(nonces), NONCE_SIZE), bodies)
            ])
        mixed = _xor(b"".join(bodies), stream)
        offset = 0
        if nonces is None:
            for body in bodies:
                end = offset + len(body)
                out.append(mixed[offset:end])
                offset = end
        else:
            for body in bodies:
                end = offset + len(body)
                out.append(nonces[start:start + NONCE_SIZE] + mixed[offset:end])
                start += NONCE_SIZE
                offset = end
    return out


def encrypt_many(
    key: SecretKey,
    plaintexts: Sequence[bytes],
    rng: RandomSource | None = None,
    *,
    nonces: bytes | None = None,
) -> list[bytes]:
    """Encrypt a batch; bit-identical to a sequential :func:`encrypt` loop.

    The nonces come from ``rng``, or already drawn (``nonces``, joined in
    block order, a fresh ``NONCE_SIZE`` bytes per plaintext) from a caller
    that spends its coins early, as the bucket DP-RAM does before a round.

    Raises:
        TypeError: unless exactly one of ``rng`` and ``nonces`` is given.
        ValueError: if ``nonces`` is not ``NONCE_SIZE`` bytes per plaintext.
    """
    if (rng is None) == (nonces is None):
        raise TypeError("encrypt_many takes exactly one of rng and nonces")
    if nonces is None:
        if not plaintexts:
            return []
        nonces = rng.bytes(len(plaintexts) * NONCE_SIZE)
    elif len(nonces) != len(plaintexts) * NONCE_SIZE:
        raise ValueError(
            f"{len(plaintexts)} plaintexts need {len(plaintexts) * NONCE_SIZE}"
            f" nonce bytes, got {len(nonces)}"
        )
    return _xor_keystreams(key, plaintexts, nonces)


def decrypt_many(key: SecretKey, ciphertexts: Sequence[bytes]) -> list[bytes]:
    """Invert :func:`encrypt_many` (order-preserving per-block decrypt).

    Raises:
        ValueError: if any ciphertext is shorter than the nonce.
    """
    for ciphertext in ciphertexts:
        if len(ciphertext) < NONCE_SIZE:
            raise ValueError(
                f"ciphertext too short: {len(ciphertext)} < nonce size {NONCE_SIZE}"
            )
    return _xor_keystreams(key, ciphertexts, None)


def encrypt_authenticated_many(
    key: SecretKey, plaintexts: Sequence[bytes], rng: RandomSource
) -> list[bytes]:
    """Bulk encrypt-then-MAC; bit-identical to the sequential loop.

    The tags go onto :func:`encrypt_many`'s list in place — a second list
    would be a second copy of a database sealed at setup.
    """
    sealed = encrypt_many(key, plaintexts, rng)
    for index, ciphertext in enumerate(sealed):
        sealed[index] = ciphertext + _tag(key, ciphertext)
    return sealed


def decrypt_authenticated_many(
    key: SecretKey, ciphertexts: Sequence[bytes]
) -> list[bytes]:
    """Verify every tag, then bulk-decrypt.

    The first tampered block raises, naming nothing about the others
    (for per-block recovery, :func:`decrypt_authenticated` one at a time).

    Raises:
        IntegrityError: if any ciphertext was modified or is too short.
    """
    return decrypt_many(
        key, [_verified(key, ciphertext) for ciphertext in ciphertexts]
    )
