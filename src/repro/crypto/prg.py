"""Counter-mode pseudorandom generator.

Expands a short seed into an arbitrarily long keystream by hashing a counter
under HMAC-SHA256: chunk ``i`` of the stream is
``HMAC(seed, i.to_bytes(8, "big"))`` for ``i = 0, 1, 2, ...``.  A public
utility for experiments that need long deterministic pseudorandom strings;
no query path uses it (the cipher of :mod:`repro.crypto.encryption` is a
keyed XOF of its own).

:func:`counter_stream` is the one stateless implementation of that stream
(:meth:`CounterPRG.expand` calls it).  It rests on an identity: block
``i >= 1`` of one-iteration PBKDF2-HMAC-SHA256 is
``HMAC(password, salt + INT32_BE(i))``, and with a salt of four zero bytes
``salt + INT32_BE(i) == i.to_bytes(8, "big")`` — exactly chunk ``i`` above.
So everything after chunk 0 comes out of ONE C call,
``hashlib.pbkdf2_hmac("sha256", seed, b"\\0\\0\\0\\0", 1, length - 32)``,
instead of a Python loop over 32-byte chunks.  PBKDF2 numbers its blocks
from 1, so chunk 0 cannot come from it and is a plain HMAC.
"""

from __future__ import annotations

import hmac

# Imported by name so that an interpreter built without it (it needs
# OpenSSL from 3.12 on) fails here, at import, not in the middle of a query.
from hashlib import pbkdf2_hmac, sha256

_CHUNK_BYTES = 32  # one HMAC-SHA256 output
_COUNTER_0 = (0).to_bytes(8, "big")
_PBKDF2_SALT = b"\x00" * 4


def counter_stream(seed: bytes, length: int) -> bytes:
    """The first ``length`` bytes of the stream seeded by ``seed``."""
    if length <= 0:
        if length < 0:
            raise ValueError(f"length must be non-negative, got {length}")
        return b""
    head = hmac.digest(seed, _COUNTER_0, "sha256")
    if length <= _CHUNK_BYTES:
        return head[:length]
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
