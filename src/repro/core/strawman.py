"""The insecure strawman of Section 4.

The tempting construction: always download the desired block, and download
every other block independently with probability ``1/n``.  Expected
bandwidth is O(1), correctness is perfect — and the scheme is **broken**:
for any two queries ``i ≠ j`` the event "``B_i`` was not downloaded" has
probability 0 under query ``i`` and ``(n−1)/n`` under query ``j``, forcing
``δ ≥ (n−1)/n`` in Definition 2.1.  An adversary that simply checks set
membership distinguishes queries almost perfectly
(:mod:`repro.analysis.attacks` measures this).

The class exists so the experiments can demonstrate the failure mode the
paper warns about; do not use it for anything else.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.analysis.datasheet import PrivacyDatasheet
from repro.api.protocols import PrivateIR, check_index
from repro.crypto.rng import RandomSource, SystemRandomSource
from repro.storage.backends import BackendFactory
from repro.storage.blocks import uniform_block_size
from repro.storage.server import StorageServer


class StrawmanIR(PrivateIR):
    """The Section 4 construction: real block always, others w.p. ``1/n``."""

    def __init__(
        self,
        blocks: Sequence[bytes],
        rng: RandomSource | None = None,
        backend_factory: BackendFactory | None = None,
    ) -> None:
        if not blocks:
            raise ValueError("the database must contain at least one block")
        self._n = len(blocks)
        self._rng = rng if rng is not None else SystemRandomSource()
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
        """No privacy: ``δ = 1 − 1/n`` at every ε (Section 4); the real
        block plus ``(n−1)/n`` noise blocks on average, and no worst case
        short of ``n``."""
        n = self._n
        return PrivacyDatasheet(
            scheme=type(self).__name__, n=n,
            epsilon=math.inf, epsilon_kind="exact", delta=1.0 - 1.0 / n,
            error_probability=0.0,
            blocks_per_query=1.0 + (n - 1) / n, roundtrips=1,
            client_blocks=None, server_blocks=self._server.capacity,
        )

    def query(self, index: int) -> bytes:
        """Retrieve block ``index`` — always succeeds (and always leaks)."""
        index = check_index(index, self._n)
        download_set = self._draw_set(index)
        self._server.begin_query(self._queries)
        self._queries += 1
        order = sorted(download_set)
        blocks = self._server.read_many(order)
        return blocks[order.index(index)]

    def sample_query_set(self, index: int) -> frozenset[int]:
        """Sample the download set without touching the server."""
        return frozenset(self._draw_set(check_index(index, self._n)))

    def _draw_set(self, index: int) -> set[int]:
        noise_rate = 1.0 / self._n
        download_set = {index}
        for other in range(self._n):
            if other != index and self._rng.random() < noise_rate:
                download_set.add(other)
        return download_set
