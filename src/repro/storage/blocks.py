"""Fixed-size block helpers.

Records in the balls-and-bins model are opaque, equal-sized blocks.  The
schemes in this repository represent blocks as ``bytes`` of a fixed size;
these helpers build, pad and validate them, and encode integers into block
payloads for tests and examples.
"""

from __future__ import annotations

from typing import Sequence

from repro.storage.errors import BlockSizeError

DEFAULT_BLOCK_SIZE = 64
"""Default record size in bytes used by examples and tests."""


def make_block(payload: bytes, size: int = DEFAULT_BLOCK_SIZE) -> bytes:
    """Return ``payload`` padded with zero bytes to exactly ``size`` bytes.

    Raises:
        BlockSizeError: if ``payload`` is longer than ``size``.
    """
    if len(payload) > size:
        raise BlockSizeError(
            f"payload of {len(payload)} bytes does not fit in a {size}-byte block"
        )
    return payload + b"\x00" * (size - len(payload))


def zero_block(size: int = DEFAULT_BLOCK_SIZE) -> bytes:
    """Return an all-zero block of ``size`` bytes."""
    if size < 0:
        raise BlockSizeError(f"block size must be non-negative, got {size}")
    return b"\x00" * size


def check_block(block: bytes, size: int) -> None:
    """Validate that ``block`` has exactly ``size`` bytes.

    Raises:
        BlockSizeError: on a size mismatch.
    """
    if len(block) != size:
        raise BlockSizeError(f"expected a {size}-byte block, got {len(block)} bytes")


def uniform_block_size(blocks: Sequence[bytes]) -> int:
    """The one size every block of a non-empty database has.

    The ciphers hide a block's content, not its length: a scheme that
    stores ciphertexts calls this before it draws a key or a coin, so a
    ragged database never reaches the server as odd-sized slots.

    Raises:
        BlockSizeError: naming the first block whose size is not block 0's.
    """
    size = len(blocks[0])
    if set(map(len, blocks)) != {size}:
        index = next(i for i, block in enumerate(blocks) if len(block) != size)
        raise BlockSizeError(
            f"block {index} has {len(blocks[index])} bytes, block 0 has {size}: "
            "all blocks of a database must have equal size"
        )
    return size


def encode_int(value: int, size: int = DEFAULT_BLOCK_SIZE) -> bytes:
    """Encode a non-negative integer as a block (big-endian, zero padded)."""
    if value < 0:
        raise ValueError(f"value must be non-negative, got {value}")
    raw = value.to_bytes((max(value.bit_length(), 1) + 7) // 8, "big")
    return make_block(raw.rjust(8, b"\x00"), size)


def decode_int(block: bytes) -> int:
    """Invert :func:`encode_int` (ignores zero padding)."""
    return int.from_bytes(block[:8], "big")


def integer_database(count: int, size: int = DEFAULT_BLOCK_SIZE) -> list[bytes]:
    """Return ``count`` distinct blocks encoding ``0 .. count-1``.

    Convenient for tests and examples: ``decode_int(db[i]) == i``.  Block
    ``i`` is ``encode_int(i, size)``, built in one pass: every builder,
    experiment and test loads its database through here.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if size < 8:
        raise BlockSizeError(f"payload of 8 bytes does not fit in a {size}-byte block")
    padding = b"\x00" * (size - 8)
    return [i.to_bytes(8, "big") + padding for i in range(count)]
