"""Counter-mode pseudorandom generator.

Expands a short seed into an arbitrarily long keystream by hashing a counter
under HMAC-SHA256: chunk ``i`` of the stream is
``HMAC(seed, i.to_bytes(8, "big"))`` for ``i = 0, 1, 2, ...``.  Used by
:mod:`repro.crypto.encryption` to build a stream cipher and available
directly for experiments that need long deterministic pseudorandom strings.

:func:`counter_stream` is the one stateless implementation of that stream
(:meth:`CounterPRG.expand` and every keystream of the cipher call it).  It
rests on an identity: block ``i >= 1`` of one-iteration PBKDF2-HMAC-SHA256
is ``HMAC(password, salt + INT32_BE(i))``, and with a salt of four zero
bytes ``salt + INT32_BE(i) == i.to_bytes(8, "big")`` — exactly chunk ``i``
above.  So everything after chunk 0 comes out of ONE C call,
``hashlib.pbkdf2_hmac("sha256", seed, b"\\0\\0\\0\\0", 1, length - 32)``,
instead of a Python loop over 32-byte chunks.  PBKDF2 numbers its blocks
from 1, so chunk 0 cannot come from it and stays a hand-rolled HMAC.
"""

from __future__ import annotations

import hmac

# Imported by name so that an interpreter built without it (it needs
# OpenSSL from 3.12 on) fails here, at import, not in the middle of a query.
from hashlib import pbkdf2_hmac, sha256

_CHUNK_BYTES = 32  # one HMAC-SHA256 output
_TWO_CHUNKS = 2 * _CHUNK_BYTES
_SHA256_BLOCK = 64
_IPAD = int.from_bytes(b"\x36" * _SHA256_BLOCK, "little")
_OPAD = int.from_bytes(b"\x5c" * _SHA256_BLOCK, "little")
_COUNTER_0 = (0).to_bytes(8, "big")
_COUNTER_1 = (1).to_bytes(8, "big")
_PBKDF2_SALT = b"\x00" * 4


def hmac_pads(key: bytes) -> tuple[bytes, bytes]:
    """The ipad/opad-masked 64-byte key blocks of HMAC-SHA256 for ``key``.

    ``HMAC(key, m) = H(opad_block + H(ipad_block + m))``; keys longer
    than one SHA-256 block are hashed first, as RFC 2104 prescribes.
    """
    if len(key) > _SHA256_BLOCK:
        key = sha256(key).digest()
    padded = int.from_bytes(key, "little")  # implicit zero-pad
    return (
        (padded ^ _IPAD).to_bytes(_SHA256_BLOCK, "little"),
        (padded ^ _OPAD).to_bytes(_SHA256_BLOCK, "little"),
    )


def counter_stream(seed: bytes, length: int) -> bytes:
    """The first ``length`` bytes of the stream seeded by ``seed``.

    One- and two-chunk streams (records up to 64 bytes — the common
    DP-RAM block sizes) are HMAC "by hand", two one-shot SHA-256 calls
    per chunk, which beats both the ``hmac`` module's object round trips
    and PBKDF2's fixed cost.  Longer streams (bucket node blobs) take
    chunk 0 the same way and the rest from PBKDF2 (module docstring).
    """
    if length <= 0:
        if length < 0:
            raise ValueError(f"length must be non-negative, got {length}")
        return b""
    # hmac_pads(seed), inlined: one-chunk streams are the DP-RAM hot path
    # and the call alone is a measured 3 % of such a stream.
    key = seed if len(seed) <= _SHA256_BLOCK else sha256(seed).digest()
    padded = int.from_bytes(key, "little")
    inner = (padded ^ _IPAD).to_bytes(_SHA256_BLOCK, "little")
    outer = (padded ^ _OPAD).to_bytes(_SHA256_BLOCK, "little")
    head = sha256(outer + sha256(inner + _COUNTER_0).digest()).digest()
    if length <= _CHUNK_BYTES:
        return head[:length]
    if length <= _TWO_CHUNKS:
        tail = sha256(outer + sha256(inner + _COUNTER_1).digest()).digest()
        return (head + tail)[:length]
    return head + pbkdf2_hmac(
        "sha256", seed, _PBKDF2_SALT, 1, length - _CHUNK_BYTES
    )


def _checked_seed(seed: bytes) -> bytes:
    if not isinstance(seed, (bytes, bytearray)):
        raise TypeError(f"PRG seed must be bytes, got {type(seed).__name__}")
    if len(seed) == 0:
        raise ValueError("PRG seed must be non-empty")
    return bytes(seed)


class CounterPRG:
    """Deterministic byte stream derived from ``seed``.

    The stream is stateful: successive calls to :meth:`read` return
    successive segments.  Use :meth:`expand` for a one-shot stateless
    expansion.
    """

    def __init__(self, seed: bytes) -> None:
        self._seed = _checked_seed(seed)
        # Keyed-but-empty HMAC state: re-deriving the pads from the seed
        # per counter block dominates short expansions, so pay it once.
        # ``copy().update(counter)`` yields bit-identical blocks.
        self._state = hmac.new(self._seed, digestmod=sha256)
        self._counter = 0
        self._buffer = b""

    def read(self, length: int) -> bytes:
        """Return the next ``length`` bytes of the stream."""
        if length < 0:
            raise ValueError(f"length must be non-negative, got {length}")
        while len(self._buffer) < length:
            mac = self._state.copy()
            mac.update(self._counter.to_bytes(8, "big"))
            self._counter += 1
            self._buffer += mac.digest()
        out, self._buffer = self._buffer[:length], self._buffer[length:]
        return out

    @classmethod
    def expand(cls, seed: bytes, length: int) -> bytes:
        """Return the first ``length`` bytes of the stream seeded by ``seed``."""
        return counter_stream(_checked_seed(seed), length)
