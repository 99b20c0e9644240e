"""Multi-server DP-IR (Appendix C).

The database is replicated on ``D`` non-colluding servers; an adversary
corrupts a ``t = D_A/D`` fraction of them and sees only their transcripts.
Theorem C.1 lower-bounds the total expected work by
``Ω(((1−α)·t − δ)·n / e^ε)``.

The construction here is the natural multi-server analogue of Algorithm 1
(the shape of the scheme of Toledo, Danezis and Goldberg [49], which the
paper proves optimal for constant ``t``): draw a pad set exactly as in
Algorithm 1 and route every element — including the real one — to an
independently uniform server.  The real fetch is visible to the adversary
only when its server is corrupted (probability ``t``), so the adversary's
view is a further randomized projection of the single-server view and the
single-server exact budget ``ln((1−α)n/(αK)+1)`` is an upper bound on the
privacy loss; the per-corrupted-server load is ``t·K/D`` in expectation.
Experiment E12 audits the corrupted view empirically against Theorem C.1.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

from repro.api.protocols import PrivateIR
from repro.core.params import DPIRParams
from repro.core.sampling import draw_pad_set
from repro.crypto.rng import RandomSource, SystemRandomSource
from repro.parallel.executor import Executor, resolve_executor
from repro.storage.backends import BackendFactory
from repro.storage.errors import RetrievalError
from repro.storage.server import ServerPool, StorageServer


class MultiServerDPIR(PrivateIR):
    """Replicated ε-DP-IR across ``server_count`` non-colluding servers.

    Args:
        blocks: the database ``B_1..B_n``.
        server_count: number of replicas ``D``.
        epsilon: target budget, resolved to the pad size exactly as in the
            single-server scheme.  Mutually exclusive with ``pad_size``.
        pad_size: explicit total pad size ``K``.
        alpha: error probability in ``(0, 1)``.
        rng: randomness source.
        executor: fan-out policy for the one-batched-leg-per-server reads
            (``"serial"``/``"parallel"``/``"simulated"`` or an
            :class:`~repro.parallel.executor.Executor`).  Executors change
            wall-clock accounting only — every server still sees exactly
            one :meth:`~repro.storage.server.StorageServer.read_many`
            round per query, in deterministic order, so draws, answers
            and transcripts are executor-invariant.
    """

    def __init__(
        self,
        blocks: Sequence[bytes],
        server_count: int = 2,
        epsilon: float | None = None,
        pad_size: int | None = None,
        alpha: float = 0.05,
        rng: RandomSource | None = None,
        backend_factory: BackendFactory | None = None,
        executor: Executor | str | None = None,
    ) -> None:
        if not blocks:
            raise ValueError("the database must contain at least one block")
        if server_count <= 0:
            raise ValueError(f"server count must be positive, got {server_count}")
        if (epsilon is None) == (pad_size is None):
            raise ValueError("provide exactly one of epsilon or pad_size")
        n = len(blocks)
        if pad_size is not None:
            self._params = DPIRParams.from_pad_size(n, pad_size, alpha)
        else:
            self._params = DPIRParams.from_epsilon(n, epsilon, alpha)
        self._rng = rng if rng is not None else SystemRandomSource()
        self._block_size = len(blocks[0])
        self._pool = ServerPool(server_count, n, backend_factory=backend_factory)
        self._pool.load_replicas(blocks)
        self._owns_executor = not isinstance(executor, Executor)
        self._executor = resolve_executor(executor)
        self._wall_ops = 0.0
        self._queries = 0
        self._errors = 0

    # -- parameters & accounting ---------------------------------------------

    @property
    def n(self) -> int:
        """Database size."""
        return self._params.n

    @property
    def server_count(self) -> int:
        """Number of replicas ``D``."""
        return len(self._pool)

    @property
    def pad_size(self) -> int:
        """Total blocks downloaded per query across all servers."""
        return self._params.pad_size

    @property
    def alpha(self) -> float:
        """Error probability."""
        return self._params.alpha

    @property
    def epsilon(self) -> float:
        """Single-server exact budget — an upper bound on the loss against
        any corrupted subset (the corrupted view is a projection)."""
        return self._params.epsilon

    @property
    def block_size(self) -> int:
        """Bytes per database record."""
        return self._block_size

    @property
    def pool(self) -> ServerPool:
        """The replica pool (exposes per-server operation counters)."""
        return self._pool

    def servers(self) -> tuple[StorageServer, ...]:
        """Every replica server in the pool."""
        return tuple(self._pool)

    @property
    def query_count(self) -> int:
        """Number of queries issued so far."""
        return self._queries

    @property
    def error_count(self) -> int:
        """Number of queries that erred."""
        return self._errors

    def wall_operations(self) -> float:
        """Overlap-accounted op-units: each query's per-server legs cost
        what the configured executor says (max over concurrent legs, the
        plain sum under the serial default)."""
        return self._wall_ops

    def close(self) -> None:
        """Release executor worker threads.

        Only shuts down an executor this scheme resolved itself from a
        name; a caller-supplied instance stays alive for its owner.
        """
        if self._owns_executor:
            self._executor.close()

    def __enter__(self) -> "MultiServerDPIR":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- querying ------------------------------------------------------------

    def query(self, index: int) -> bytes | None:
        """Retrieve block ``index``; ``None`` on the α-error event.

        Every contacted server serves its share of the pad set as one
        batched :meth:`~repro.storage.server.StorageServer.read_many`
        round — one leg per server instead of ``K`` per-slot calls.
        """
        plan, real_server = self._draw_plan(index)
        self._pool.begin_query(self._queries)
        self._queries += 1
        result: bytes | None = None
        legs = self._read_per_server(plan)
        if real_server is not None:
            order, blocks = legs[real_server]
            result = blocks[bisect_left(order, index)]
        if real_server is None:
            self._errors += 1
            return None
        return result

    def query_many(self, indices: Sequence[int]) -> list[bytes | None]:
        """Serve ``indices`` in one round, coalescing per-replica reads.

        Each query draws its own independent plan (so the privacy
        argument is untouched — revealing the per-server unions is
        post-processing of the independent per-query transcripts), but
        slots routed to the same replica by several queries are fetched
        once — one batched leg per server, fanned out through the
        configured executor.  Transcript events for the whole batch are
        attributed to the ordinal of its first query: the coalesced
        union is a single joint observation and cannot be split per
        query (the same convention
        :class:`~repro.core.batch_ir.BatchDPIR` uses for its batch
        counter).  ``query_count`` still advances by one per logical
        query.
        """
        if not indices:
            return []
        # Every index is checked before the first coin: a rejected batch
        # must leave the rng stream where a batch never sent would.
        n = self._params.n
        for index in indices:
            if not 0 <= index < n:
                raise RetrievalError(f"index {index} out of range for n={n}")
        plans = [self._draw_plan(index) for index in indices]
        per_server: list[set[int]] = [set() for _ in range(len(self._pool))]
        for plan, _ in plans:
            for server_id, slots in enumerate(plan):
                per_server[server_id].update(slots)
        self._pool.begin_query(self._queries)
        legs = self._read_per_server(per_server)
        answers: list[bytes | None] = []
        for index, (_, real_server) in zip(indices, plans):
            self._queries += 1
            if real_server is None:
                self._errors += 1
                answers.append(None)
            else:
                order, blocks = legs[real_server]
                answers.append(blocks[bisect_left(order, index)])
        return answers

    def _read_per_server(
        self, per_server: Sequence[set[int]]
    ) -> list[tuple[list[int], list[bytes]]]:
        """One batched ``read_many`` leg per server, through the executor.

        Legs run in deterministic submission order (``ordered=True``:
        the pool's servers may share one attached transcript, and the
        draw-free reads must interleave identically under every
        executor) while the stage is *accounted* as overlapped — the
        wall-clock cost is the slowest server's share of the pad set,
        not the sum.
        """
        orders = [sorted(slots) for slots in per_server]
        pool = self._pool
        results = self._executor.fan_out(
            [
                (lambda server=pool[server_id], order=order:
                    server.read_many(order))
                for server_id, order in enumerate(orders)
            ],
            ordered=True,
        )
        self._wall_ops += self._executor.stage_cost(
            [float(len(order)) for order in orders]
        )
        return [
            (order, result.unwrap())
            for order, result in zip(orders, results)
        ]

    def sample_corrupted_view(
        self, index: int, corrupted: set[int]
    ) -> frozenset[tuple[int, int]]:
        """Sample the ``(server, slot)`` pairs a corrupted subset would see.

        Draws from the same distribution as :meth:`query` without touching
        the servers; used by the E12 privacy audit.
        """
        plan, _ = self._draw_plan(index)
        view = {
            (server_id, slot)
            for server_id, slots in enumerate(plan)
            for slot in slots
            if server_id in corrupted
        }
        return frozenset(view)

    # -- internals ----------------------------------------------------------

    def _draw_plan(self, index: int) -> tuple[list[set[int]], int | None]:
        """Draw the per-server download plan for one query.

        Returns ``(plan, real_server)`` where ``plan[s]`` is the slot set
        sent to server ``s`` and ``real_server`` is the replica serving the
        real fetch (``None`` on the error event).
        """
        n = self._params.n
        if not 0 <= index < n:
            raise RetrievalError(f"index {index} out of range for n={n}")
        chosen, include_real = draw_pad_set(
            self._rng, n, self._params.pad_size, self._params.alpha, index
        )
        plan: list[set[int]] = [set() for _ in range(len(self._pool))]
        real_server: int | None = None
        for slot in chosen:
            target = self._rng.randbelow(len(self._pool))
            plan[target].add(slot)
            if include_real and slot == index:
                real_server = target
        return plan, real_server
