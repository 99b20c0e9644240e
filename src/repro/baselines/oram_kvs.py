"""Oblivious key-value storage built on Path ORAM.

The pre-DP-KVS state of the art the paper compares against (Theorem 7.5's
"exponentially better than any previous oblivious KVS scheme built from
ORAMs"): hash each key into one of ``m`` fixed buckets, store each bucket
as one ORAM block, and access buckets through Path ORAM.

With ``m = n`` buckets holding ``n`` keys, the maximum bucket load is
``Θ(log n / log log n)`` w.h.p., so each ORAM block must be sized for that
many entries and every ORAM access moves up to ``2·Z·(L+1)`` such blocks
— a ``Θ(log n)`` block overhead with ``Θ(log n / log log n)``-entry
blocks, versus DP-KVS's ``Θ(log log n)`` node blocks of constant
capacity.  Every operation — ``get``, ``put`` or ``delete``, whatever
it finds — is one access, a
:meth:`~repro.baselines.path_oram.PathORAM.read_modify_write` of its
bucket, so the server cannot tell the three apart.
"""

from __future__ import annotations

import dataclasses
import math

from repro.analysis.datasheet import PrivacyDatasheet
from repro.api.protocols import PrivateKVS
from repro.crypto.prf import PRF
from repro.crypto.rng import RandomSource, SystemRandomSource
from repro.baselines.path_oram import PathORAM
from repro.hashing.node_codec import NodeCodec, NodeEntry, SizedValueCodec
from repro.storage.backends import BackendFactory
from repro.storage.errors import CapacityError
from repro.storage.server import StorageServer


def default_bucket_capacity(buckets: int) -> int:
    """Worst-case one-choice load: ``⌈3·ln m / ln ln m⌉ + 2``.

    A concrete ``Θ(log m / log log m)`` sized so overflow is negligible at
    the experiment scales; the ORAM-KVS counts overflows (expected zero).
    """
    if buckets <= 0:
        raise ValueError(f"buckets must be positive, got {buckets}")
    ln_m = math.log(max(buckets, 3))
    return math.ceil(3.0 * ln_m / math.log(max(ln_m, math.e))) + 2


class ORAMKeyValueStore(PrivateKVS):
    """Oblivious KVS: PRF bucketing + Path ORAM transport.

    Args:
        capacity: maximum number of keys (``n``).
        key_size: exact key length in bytes (shorter keys zero-padded).
        value_size: exact value length in bytes.
        bucket_capacity: entries per bucket; defaults to the one-choice
            worst case :func:`default_bucket_capacity`.
        rng: randomness source.
        prf: PRF for bucket selection.
    """

    def __init__(
        self,
        capacity: int,
        key_size: int = 16,
        value_size: int = 32,
        bucket_capacity: int | None = None,
        rng: RandomSource | None = None,
        prf: PRF | None = None,
        backend_factory: BackendFactory | None = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._buckets = capacity
        self._rng = rng if rng is not None else SystemRandomSource()
        self._prf = prf if prf is not None else PRF(self._rng.bytes(32))
        slots = (
            default_bucket_capacity(self._buckets)
            if bucket_capacity is None
            else bucket_capacity
        )
        if slots <= 0:
            raise ValueError(f"bucket capacity must be positive, got {slots}")
        # Length-prefixed values: ``get`` returns exactly what was ``put``.
        self._values = SizedValueCodec(value_size)
        self._codec = NodeCodec(
            capacity=slots,
            key_size=key_size,
            value_size=self._values.stored_size,
        )
        empty = self._codec.empty()
        self._oram = PathORAM(
            [empty] * self._buckets,
            rng=self._rng.spawn("oram"),
            backend_factory=backend_factory,
        )
        self._size = 0
        self._overflows = 0
        self._operations = 0

    # -- accounting ----------------------------------------------------------

    @property
    def n(self) -> int:
        """Maximum number of keys."""
        return self._capacity

    @property
    def capacity(self) -> int:
        """Maximum number of keys."""
        return self._capacity

    @property
    def value_size(self) -> int:
        """Maximum value length in bytes accepted by :meth:`put`."""
        return self._values.value_size

    @property
    def block_size(self) -> int:
        """Bytes per ORAM block (one serialized bucket)."""
        return self._codec.block_size

    @property
    def size(self) -> int:
        """Number of keys stored."""
        return self._size

    @property
    def bucket_capacity(self) -> int:
        """Entries per bucket — the ``Θ(log n / log log n)`` sizing."""
        return self._codec.capacity

    @property
    def bucket_block_size(self) -> int:
        """Bytes per ORAM block (one serialized bucket)."""
        return self._codec.block_size

    @property
    def oram(self) -> PathORAM:
        """The underlying Path ORAM."""
        return self._oram

    @property
    def server(self) -> StorageServer:
        """The ORAM's slot server (exposes operation counters)."""
        return self._oram.server

    def servers(self) -> tuple[StorageServer, ...]:
        """The ORAM's single slot server."""
        return (self._oram.server,)

    @property
    def client_peak_blocks(self) -> int:
        """Peak client storage in blocks (the ORAM stash peak)."""
        return self._oram.stash_peak

    @property
    def overflow_count(self) -> int:
        """Bucket overflow events (expected zero at the default sizing)."""
        return self._overflows

    @property
    def operation_count(self) -> int:
        """Completed operations."""
        return self._operations

    def blocks_per_operation(self) -> int:
        """Bucket blocks one operation — one ORAM access — moves at most."""
        return self._oram.blocks_per_access()

    def datasheet(self) -> PrivacyDatasheet:
        """Path ORAM's sheet, per operation: every operation is one access,
        so which bucket it touches and whether it writes are perfectly
        hidden, errorless."""
        oram = self._oram.datasheet()
        return dataclasses.replace(
            oram, scheme=type(self).__name__, n=self._capacity
        )

    # -- the KVS interface ------------------------------------------------------

    def canonical_key(self, key: bytes) -> bytes:
        """``key`` less its trailing NULs: every operation zero-pads keys
        to the key size, so ``b"k"`` and ``b"k\x00"`` are one key.

        Raises:
            BlockSizeError: if ``key`` is longer than the key size.
        """
        return self._codec.canonical_key(key)

    def get(self, user_key: bytes) -> bytes | None:
        """Retrieve the exact value for ``user_key``; ``None`` if absent (⊥)."""
        key = self._codec.normalize_key(user_key)
        for entry in self._access(key, None):
            if entry.key == key:
                return self._values.decode(entry.value)
        return None

    def put(self, user_key: bytes, user_value: bytes) -> None:
        """Insert or update ``user_key``.

        Raises:
            CapacityError: if the target bucket is full (counted in
                :attr:`overflow_count`), once the access has completed as
                a read.
        """
        key = self._codec.normalize_key(user_key)
        value = self._values.encode(user_value)

        def store(entries: list[NodeEntry]) -> list[NodeEntry]:
            kept = [entry for entry in entries if entry.key != key]
            if len(kept) == len(entries) >= self._codec.capacity:
                raise CapacityError(
                    f"bucket full at capacity {self._codec.capacity}"
                )
            return kept + [NodeEntry(key, value)]

        before = self._access(key, store)
        self._size += all(entry.key != key for entry in before)

    def delete(self, user_key: bytes) -> bool:
        """Remove ``user_key``; returns whether it existed."""
        key = self._codec.normalize_key(user_key)
        before = self._access(
            key, lambda entries: [entry for entry in entries if entry.key != key]
        )
        found = any(entry.key == key for entry in before)
        self._size -= found
        return found

    def _access(self, key: bytes, change) -> list[NodeEntry]:
        """One ORAM access to ``key``'s bucket: its entries before
        ``change`` rewrote them (``None`` leaves them as they are).

        A ``CapacityError`` from ``change`` is raised once the access has
        completed as a read.
        """
        codec = self._codec

        def transform(block: bytes) -> bytes:
            return block if change is None else codec.pack(change(codec.unpack(block)))

        try:
            before = self._oram.read_modify_write(self._bucket_for(key), transform)
        except CapacityError:
            self._operations += 1
            self._overflows += 1
            raise
        self._operations += 1
        return codec.unpack(before)

    def _bucket_for(self, key: bytes) -> int:
        return self._prf.integer(key, self._buckets)
