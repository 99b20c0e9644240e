"""Trivial linear-scan PIR.

The simplest errorless oblivious IR: download (equivalently, have the
server operate on) every record for every query.  Theorem 3.3 shows any
errorless ``(ε, δ)``-DP-IR must do ``(1−δ)·n`` operations *regardless of
ε*, so this scheme is asymptotically optimal for the errorless setting —
which is exactly why the paper pivots to schemes with error ``α > 0``.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.datasheet import PrivacyDatasheet
from repro.api.protocols import PrivateIR, check_index
from repro.storage.backends import BackendFactory
from repro.storage.blocks import uniform_block_size
from repro.storage.server import StorageServer


class LinearScanPIR(PrivateIR):
    """Errorless, perfectly oblivious IR: every query touches all ``n``."""

    def __init__(
        self,
        blocks: Sequence[bytes],
        backend_factory: BackendFactory | None = None,
    ) -> None:
        if not blocks:
            raise ValueError("the database must contain at least one block")
        self._n = len(blocks)
        self._block_size = uniform_block_size(blocks)
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
    def epsilon(self) -> float:
        """Perfect obliviousness: ``ε = 0``."""
        return 0.0

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
        """Perfectly oblivious and errorless: all ``n`` blocks, every query."""
        return PrivacyDatasheet(
            scheme=type(self).__name__, n=self._n,
            epsilon=0.0, epsilon_kind="perfect", delta=0.0,
            error_probability=0.0,
            blocks_per_query=float(self._n), roundtrips=1,
            client_blocks=None, server_blocks=self._server.capacity,
        )

    def query(self, index: int) -> bytes:
        """Retrieve record ``index`` by scanning the whole database.

        The scan is one batched
        :meth:`~repro.storage.server.StorageServer.read_many` round over
        all ``n`` slots — the downloaded set (everything, in order) is
        what makes the scheme perfectly oblivious, batched or not.
        """
        index = check_index(index, self._n)
        self._server.begin_query(self._queries)
        self._queries += 1
        return self._server.read_many(range(self._n))[index]
