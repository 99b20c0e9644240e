"""No-privacy baselines: direct server access.

Every overhead number in the experiments is "blocks moved per query
relative to plaintext access"; these classes are that denominator, and
double as reference implementations for correctness checks.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.analysis.datasheet import PrivacyDatasheet
from repro.api.protocols import PrivateKVS, PrivateRAM, check_index, check_value
from repro.hashing.node_codec import SizedValueCodec
from repro.storage.backends import BackendFactory
from repro.storage.errors import RetrievalError
from repro.storage.server import StorageServer


class PlaintextRAM(PrivateRAM):
    """Direct read/write access — one block per query, zero privacy."""

    def __init__(
        self,
        blocks: Sequence[bytes],
        backend_factory: BackendFactory | None = None,
    ) -> None:
        if not blocks:
            raise ValueError("the database must contain at least one block")
        self._n = len(blocks)
        self._block_size = len(blocks[0])
        self._server = StorageServer(
            self._n, backend=backend_factory(self._n) if backend_factory else None
        )
        self._server.load(blocks)
        self._queries = 0

    @property
    def n(self) -> int:
        """Database size."""
        return self._n

    @property
    def block_size(self) -> int:
        """Bytes per database record."""
        return self._block_size

    @property
    def server(self) -> StorageServer:
        """The passive server (exposes operation counters)."""
        return self._server

    def servers(self) -> tuple[StorageServer, ...]:
        """The single passive server."""
        return (self._server,)

    @property
    def query_count(self) -> int:
        """Number of queries issued so far."""
        return self._queries

    def datasheet(self) -> PrivacyDatasheet:
        """No privacy — the server reads the index (``δ = 1`` at every
        ε) — and one block an operation."""
        return PrivacyDatasheet(
            scheme=type(self).__name__, n=self._n,
            epsilon=math.inf, epsilon_kind="exact", delta=1.0,
            error_probability=0.0, blocks_per_query=1.0, roundtrips=1,
            client_blocks=None, server_blocks=self._server.capacity,
        )

    def read(self, index: int) -> bytes:
        """Retrieve record ``index``."""
        index = check_index(index, self._n)
        self._server.begin_query(self._queries)
        self._queries += 1
        return self._server.read(index)

    def write(self, index: int, value: bytes) -> None:
        """Overwrite record ``index``."""
        index = check_index(index, self._n)
        value = check_value(value, self._block_size)
        self._server.begin_query(self._queries)
        self._queries += 1
        self._server.write(index, value)


class PlaintextKVS(PrivateKVS):
    """Direct-access key-value store over a server-resident slot array.

    The client keeps a key → slot directory (metadata, not balls, mirroring
    how the paper accounts for keys versus records) and touches exactly one
    server slot per operation.
    """

    def __init__(
        self,
        capacity: int,
        value_size: int = 32,
        backend_factory: BackendFactory | None = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._values = SizedValueCodec(value_size)
        self._server = StorageServer(
            capacity, backend=backend_factory(capacity) if backend_factory else None
        )
        self._server.load([self._values.encode(b"")] * capacity)
        self._directory: dict[bytes, int] = {}
        self._free = list(range(capacity - 1, -1, -1))
        self._operations = 0

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
        """Bytes per stored value slot (length prefix + padded value)."""
        return self._values.stored_size

    @property
    def size(self) -> int:
        """Number of keys stored."""
        return len(self._directory)

    @property
    def server(self) -> StorageServer:
        """The passive server (exposes operation counters)."""
        return self._server

    def servers(self) -> tuple[StorageServer, ...]:
        """The single passive server."""
        return (self._server,)

    @property
    def operation_count(self) -> int:
        """Completed operations."""
        return self._operations

    def datasheet(self) -> PrivacyDatasheet:
        """No privacy — the server reads the slot (``δ = 1`` at every ε)
        — and one block an operation at most: a miss or a delete moves
        none, so the expected figure is an upper estimate.  The key
        directory is metadata, not blocks."""
        return PrivacyDatasheet(
            scheme=type(self).__name__, n=self._capacity,
            epsilon=math.inf, epsilon_kind="exact", delta=1.0,
            error_probability=0.0, blocks_per_query=1.0, roundtrips=1,
            client_blocks=0.0, server_blocks=self._server.capacity,
            expected_blocks_per_query=1.0,
        )

    def get(self, key: bytes) -> bytes | None:
        """Retrieve the exact value for ``key``; ``None`` if absent."""
        key = self.canonical_key(key)
        self._operations += 1
        slot = self._directory.get(key)
        if slot is None:
            return None
        return self._values.decode(self._server.read(slot))

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or update ``key``."""
        key = self.canonical_key(key)
        encoded = self._values.encode(value)
        self._operations += 1
        slot = self._directory.get(key)
        if slot is None:
            if not self._free:
                raise RetrievalError(f"store is at capacity {self._capacity}")
            slot = self._free.pop()
            self._directory[key] = slot
        self._server.write(slot, encoded)

    def delete(self, key: bytes) -> bool:
        """Remove ``key``; returns whether it existed."""
        key = self.canonical_key(key)
        self._operations += 1
        slot = self._directory.pop(key, None)
        if slot is None:
            return False
        self._free.append(slot)
        return True
