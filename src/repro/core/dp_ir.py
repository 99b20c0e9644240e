"""ε-DP information retrieval with errors (Section 5, Algorithm 1).

The client downloads a uniformly random *pad set* ``T`` of ``K`` blocks.
With probability ``1 − α`` the desired block is forced into ``T`` (and the
query succeeds); with probability ``α`` the set is fully random and the
query errs — returning ``None`` — regardless of whether the desired block
happened to land in ``T``.  The error event depends only on the scheme's
internal coin, never on the query or the data, exactly as Theorem 3.4
requires.

Appendix B computes the exact privacy: ``ε = ln((1−α)·n/(α·K) + 1)``, which
matches the Theorem 3.4 lower bound for every ``ε ≥ 0`` and gives constant
bandwidth once ``ε = Θ(log n)``.

IR is stateless on both sides (Section 2.1): the server holds the plaintext
database (the initialization is public) and the client keeps nothing
between queries.

That client is written once, as ``_Algorithm1Client``; :class:`DPIR` puts
the database on one server, and ``batch_ir``, ``multi_server`` and
``sharded_ir`` each add one thing to it (a union, a replica pool, a range
layout).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

from repro.analysis.datasheet import PrivacyDatasheet
from repro.api.protocols import PrivateIR, check_index
from repro.core.params import DPIRParams
from repro.core.sampling import draw_pad_set
from repro.crypto.rng import RandomSource, SystemRandomSource
from repro.storage.backends import BackendFactory
from repro.storage.blocks import uniform_block_size
from repro.storage.server import StorageServer


class _Algorithm1Client(PrivateIR):
    """The client of Algorithm 1, before it is told where the blocks live.

    Everything Appendix B's proof talks about is here: the parameters
    and the one draw of one pad set, spent on an index the entry point
    has already checked (:func:`~repro.api.protocols.check_index`).  A
    subclass places the database on servers (after ``super().__init__``,
    so a refused database builds none) and turns a drawn set into reads.

    The arguments are :class:`DPIR`'s, less the backend.

    Raises:
        ValueError: on an empty database, or both or neither of
            ``epsilon`` / ``pad_size``.
        BlockSizeError: naming the first block whose size is not block 0's.
    """

    def __init__(
        self,
        blocks: Sequence[bytes],
        epsilon: float | None,
        pad_size: int | None,
        alpha: float,
        rng: RandomSource | None,
    ) -> None:
        if not blocks:
            raise ValueError("the database must contain at least one block")
        if (epsilon is None) == (pad_size is None):
            raise ValueError("provide exactly one of epsilon or pad_size")
        self._block_size = uniform_block_size(blocks)
        n = len(blocks)
        if pad_size is not None:
            self._params = DPIRParams.from_pad_size(n, pad_size, alpha)
        else:
            self._params = DPIRParams.from_epsilon(n, epsilon, alpha)
        self._rng = rng if rng is not None else SystemRandomSource()
        self._queries = 0
        self._errors = 0

    # -- parameters & accounting ---------------------------------------------

    @property
    def n(self) -> int:
        """Database size."""
        return self._params.n

    @property
    def pad_size(self) -> int:
        """Blocks downloaded per query (``K``), across all servers."""
        return self._params.pad_size

    @property
    def alpha(self) -> float:
        """Error probability."""
        return self._params.alpha

    @property
    def epsilon(self) -> float:
        """Exact privacy budget achieved (Appendix B)."""
        return self._params.epsilon

    @property
    def params(self) -> DPIRParams:
        """The resolved parameter bundle."""
        return self._params

    @property
    def block_size(self) -> int:
        """Bytes per database record."""
        return self._block_size

    @property
    def query_count(self) -> int:
        """Number of queries issued so far."""
        return self._queries

    @property
    def error_count(self) -> int:
        """Number of queries that erred (should be ≈ α of all queries)."""
        return self._errors

    def datasheet(self) -> PrivacyDatasheet:
        """Appendix B's exact ε at α, ``K`` blocks in one round, a
        stateless client, and every server's slots (a replica pool holds
        the database once per server)."""
        params = self._params
        return PrivacyDatasheet(
            scheme=type(self).__name__, n=params.n,
            epsilon=params.epsilon, epsilon_kind="exact", delta=0.0,
            error_probability=params.alpha,
            blocks_per_query=float(params.pad_size), roundtrips=1,
            client_blocks=None,
            server_blocks=sum(server.capacity for server in self.servers()),
        )

    # -- querying ------------------------------------------------------------

    def _draw_set(self, index: int) -> tuple[list[int], bool]:
        """One draw for a checked index: ``(pad set, whether the real
        block counts)``."""
        params = self._params
        return draw_pad_set(
            self._rng, params.n, params.pad_size, params.alpha, index
        )


class DPIR(_Algorithm1Client):
    """Single-server ε-DP-IR (Algorithm 1).

    Args:
        blocks: the database ``B_1..B_n`` (each an opaque ``bytes`` record).
        epsilon: target privacy budget; resolved to the pad size
            ``K = ⌈(1−α)n/(e^ε−1)⌉``.  Mutually exclusive with ``pad_size``.
        pad_size: explicit pad size ``K``.
        alpha: error probability in ``(0, 1)``.
        rng: randomness source (defaults to system entropy).
        backend_factory: optional slot-storage backend for the server.

    The *exact* budget achieved by the resolved ``K`` is available as
    :attr:`epsilon`.
    """

    def __init__(
        self,
        blocks: Sequence[bytes],
        epsilon: float | None = None,
        pad_size: int | None = None,
        alpha: float = 0.05,
        rng: RandomSource | None = None,
        backend_factory: BackendFactory | None = None,
    ) -> None:
        super().__init__(blocks, epsilon, pad_size, alpha, rng)
        n = len(blocks)
        self._server = StorageServer(
            n, backend=backend_factory(n) if backend_factory else None
        )
        self._server.load(blocks)

    @property
    def server(self) -> StorageServer:
        """The passive server (exposes operation counters)."""
        return self._server

    def servers(self) -> tuple[StorageServer, ...]:
        """The single passive server."""
        return (self._server,)

    def query(self, index: int) -> bytes | None:
        """Retrieve block ``index``; returns ``None`` on the α-error event.

        The pad set is downloaded in sorted slot order as one batched
        :meth:`~repro.storage.server.StorageServer.read_many` round and
        only the real block — when the error coin spares it — is
        retained.
        """
        index = check_index(index, self._params.n)
        download_set, include_real = self._draw_set(index)
        self._server.begin_query(self._queries)
        self._queries += 1
        order = sorted(download_set)
        blocks = self._server.read_many(order)
        if not include_real:
            self._errors += 1
            return None
        return blocks[bisect_left(order, index)]

    def sample_query_set(self, index: int) -> frozenset[int]:
        """Sample the download set for ``index`` without touching the server.

        Used by the privacy auditors to build transcript distributions
        cheaply; draws from exactly the same distribution as :meth:`query`.
        """
        download_set, _ = self._draw_set(check_index(index, self._params.n))
        return frozenset(download_set)
