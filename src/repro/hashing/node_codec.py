"""Packing (key, value) entries into fixed-size node blocks.

The balls-and-bins substrate stores opaque equal-sized blocks, so the
tree-node contents of DP-KVS (up to ``t`` entries per node) must serialize
to a fixed size.  Layout::

    [count: 2 bytes big-endian] [entry 0] ... [entry t-1 padding]

where each entry is ``key (key_size bytes) || value (value_size bytes)``.
Entries are kept compacted (no holes), so ``count`` fully describes the
occupied prefix.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.protocols import check_value
from repro.storage.errors import BlockSizeError, CapacityError

_COUNT_BYTES = 2
_LENGTH_BYTES = 2


@dataclass(frozen=True)
class NodeEntry:
    """One stored key-value pair."""

    key: bytes
    value: bytes


@dataclass(frozen=True)
class SizedValueCodec:
    """Length-prefixed values inside a fixed-size storage field.

    The balls-and-bins substrate needs equal-sized blocks, so KVS values
    are stored padded — but the API contract says ``get`` returns the
    exact bytes that were ``put``.  This codec reserves a 2-byte length
    prefix inside the fixed field so the padding a scheme adds can be
    stripped by the scheme itself on the way out.

    Attributes:
        value_size: maximum *user* value length in bytes.
    """

    value_size: int

    def __post_init__(self) -> None:
        if self.value_size < 0:
            raise ValueError(
                f"value_size must be non-negative, got {self.value_size}"
            )
        if self.value_size >= 1 << (8 * _LENGTH_BYTES):
            raise ValueError(
                f"value_size {self.value_size} exceeds the "
                f"{_LENGTH_BYTES}-byte length prefix"
            )

    @property
    def stored_size(self) -> int:
        """Bytes per stored value field (length prefix + padded value)."""
        return _LENGTH_BYTES + self.value_size

    def encode(self, value: bytes) -> bytes:
        """Serialize ``value`` into the fixed-size field; the KVS value
        gate (:func:`~repro.api.protocols.check_value`, at most
        :attr:`value_size` bytes) refuses it first."""
        value = check_value(value, self.value_size, exact=False)
        return (
            len(value).to_bytes(_LENGTH_BYTES, "big")
            + value
            + b"\x00" * (self.value_size - len(value))
        )

    def decode(self, stored: bytes) -> bytes:
        """Invert :meth:`encode`, returning the exact original value.

        Raises:
            BlockSizeError: if ``stored`` has the wrong size or a length
                prefix pointing past the field.
        """
        if len(stored) != self.stored_size:
            raise BlockSizeError(
                f"stored value must be {self.stored_size} bytes, "
                f"got {len(stored)}"
            )
        length = int.from_bytes(stored[:_LENGTH_BYTES], "big")
        if length > self.value_size:
            raise BlockSizeError(
                f"length prefix {length} exceeds value_size {self.value_size}"
            )
        return stored[_LENGTH_BYTES : _LENGTH_BYTES + length]


@dataclass(frozen=True)
class NodeCodec:
    """Serializer for node blocks holding up to ``capacity`` entries.

    Attributes:
        capacity: maximum entries per node (the paper's ``t``).
        key_size: exact key length in bytes.
        value_size: exact value length in bytes.
    """

    capacity: int
    key_size: int
    value_size: int

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity}")
        if self.key_size <= 0:
            raise ValueError(f"key_size must be positive, got {self.key_size}")
        if self.value_size < 0:
            raise ValueError(f"value_size must be non-negative, got {self.value_size}")

    @property
    def entry_size(self) -> int:
        """Bytes per entry."""
        return self.key_size + self.value_size

    @property
    def block_size(self) -> int:
        """Serialized node size in bytes (count prefix + ``t`` entry slots)."""
        return _COUNT_BYTES + self.capacity * self.entry_size

    def empty(self) -> bytes:
        """An encoded empty node."""
        return self.pack([])

    def pack(self, entries: list[NodeEntry]) -> bytes:
        """Serialize ``entries`` into a fixed-size node block.

        Raises:
            CapacityError: if there are more than ``capacity`` entries.
            BlockSizeError: if any key or value has the wrong length.
        """
        if len(entries) > self.capacity:
            raise CapacityError(
                f"{len(entries)} entries exceed node capacity {self.capacity}"
            )
        parts = [len(entries).to_bytes(_COUNT_BYTES, "big")]
        for entry in entries:
            if len(entry.key) != self.key_size:
                raise BlockSizeError(
                    f"key must be {self.key_size} bytes, got {len(entry.key)}"
                )
            if len(entry.value) != self.value_size:
                raise BlockSizeError(
                    f"value must be {self.value_size} bytes, got {len(entry.value)}"
                )
            parts.append(entry.key)
            parts.append(entry.value)
        padding = (self.capacity - len(entries)) * self.entry_size
        parts.append(b"\x00" * padding)
        return b"".join(parts)

    def unpack(self, block: bytes) -> list[NodeEntry]:
        """Invert :meth:`pack`.

        Raises:
            BlockSizeError: if the block has the wrong size.
            CapacityError: if the count prefix is larger than ``capacity``.
        """
        if len(block) != self.block_size:
            raise BlockSizeError(
                f"node block must be {self.block_size} bytes, got {len(block)}"
            )
        count = int.from_bytes(block[:_COUNT_BYTES], "big")
        if count > self.capacity:
            raise CapacityError(
                f"count prefix {count} exceeds node capacity {self.capacity}"
            )
        entries = []
        offset = _COUNT_BYTES
        for _ in range(count):
            key = block[offset : offset + self.key_size]
            offset += self.key_size
            value = block[offset : offset + self.value_size]
            offset += self.value_size
            entries.append(NodeEntry(key=key, value=value))
        return entries

    def normalize_key(self, key: bytes) -> bytes:
        """Pad or reject a user key to exactly ``key_size`` bytes.

        Keys shorter than ``key_size`` are zero-padded on the right, so
        user keys that differ only in trailing NUL bytes are ONE key
        (``b"k"`` and ``b"k\x00"`` collide by design; a caller that needs
        them apart must use fixed-length keys).  Longer keys are rejected,
        never truncated: two keys collide only through that padding.
        """
        if len(key) > self.key_size:
            raise BlockSizeError(
                f"key of {len(key)} bytes exceeds key_size {self.key_size}"
            )
        return key + b"\x00" * (self.key_size - len(key))

    def canonical_key(self, key: bytes) -> bytes:
        """The shortest spelling of ``key``: its :meth:`normalize_key` form
        less the padding.

        Equal for exactly the user keys that normalize to one stored key,
        and itself one of them — the form a front end routes and counts
        keys in (a key without trailing NULs is its own canonical form).
        """
        return self.normalize_key(key).rstrip(b"\x00")

    def normalize_value(self, value: bytes) -> bytes:
        """Pad or reject a user value to exactly ``value_size`` bytes."""
        if len(value) > self.value_size:
            raise BlockSizeError(
                f"value of {len(value)} bytes exceeds value_size {self.value_size}"
            )
        return value + b"\x00" * (self.value_size - len(value))
