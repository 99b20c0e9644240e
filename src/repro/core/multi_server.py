"""Multi-server DP-IR (Appendix C).

The database is replicated on ``D`` non-colluding servers; an adversary
corrupts a ``t = D_A/D`` fraction of them and sees only their transcripts.
Theorem C.1 lower-bounds the total expected work by
``Ω(((1−α)·t − δ)·n / e^ε)``.

The construction here is the natural multi-server analogue of Algorithm 1
(the shape of the scheme of Toledo, Danezis and Goldberg [49], which the
paper proves optimal for constant ``t``): draw a pad set exactly as in
Algorithm 1 — the draw is the shared client core of
:mod:`repro.core.dp_ir`; this module adds the replica pool, the routing
coins and the executor — and route every element, including the real one,
to an independently uniform server.  The real fetch is visible to the adversary
only when its server is corrupted (probability ``t``), so the adversary's
view is a further randomized projection of the single-server view and the
single-server exact budget ``ln((1−α)n/(αK)+1)`` is an upper bound on the
privacy loss; the per-corrupted-server load is ``t·K/D`` in expectation.
Experiment E12 audits the corrupted view empirically against Theorem C.1.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

from repro.api.protocols import check_index, check_indices
from repro.core.dp_ir import _Algorithm1Client
from repro.crypto.rng import RandomSource
from repro.parallel.executor import Executor, resolve_executor
from repro.storage.backends import BackendFactory
from repro.storage.server import ServerPool, StorageServer


class MultiServerDPIR(_Algorithm1Client):
    """Replicated ε-DP-IR across ``server_count`` non-colluding servers.

    Args:
        blocks: the database ``B_1..B_n``.
        server_count: number of replicas ``D``.
        epsilon, pad_size, alpha, rng, backend_factory: as in
            :class:`~repro.core.dp_ir.DPIR`; ``K`` is the total over servers.
        executor: fan-out pricing for the one-batched-leg-per-server
            reads (``"serial"``/``"parallel"`` or an
            :class:`~repro.parallel.executor.Executor`).  Executors change
            wall-clock accounting only — every server still sees exactly
            one :meth:`~repro.storage.server.StorageServer.read_many`
            round per query, in deterministic order, so draws, answers
            and transcripts are executor-invariant.

    :attr:`epsilon` is the single-server exact budget — an upper bound on
    the loss against any corrupted subset (its view is a projection).
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
        super().__init__(blocks, epsilon, pad_size, alpha, rng)
        if server_count <= 0:
            raise ValueError(f"server count must be positive, got {server_count}")
        self._pool = ServerPool(server_count, self.n, backend_factory=backend_factory)
        self._pool.load_replicas(blocks)
        self._executor = resolve_executor(executor)
        self._wall_ops = 0.0

    # -- the pool --------------------------------------------------------------

    @property
    def server_count(self) -> int:
        """Number of replicas ``D``."""
        return len(self._pool)

    @property
    def pool(self) -> ServerPool:
        """The replica pool (exposes per-server operation counters)."""
        return self._pool

    def servers(self) -> tuple[StorageServer, ...]:
        """Every replica server in the pool."""
        return tuple(self._pool)

    def wall_operations(self) -> float:
        """Overlap-accounted op-units: each query's per-server legs cost
        what the configured executor says (max over concurrent legs, the
        plain sum under the serial default)."""
        return self._wall_ops

    # -- querying ------------------------------------------------------------

    def query(self, index: int) -> bytes | None:
        """Retrieve block ``index``; ``None`` on the α-error event.

        A batch of one: every server serves its share of the pad set as
        one batched :meth:`~repro.storage.server.StorageServer.read_many`
        round — one leg per server instead of ``K`` per-slot calls.
        """
        return self.query_many([index])[0]

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
        indices = check_indices(indices, self._params.n)
        if not indices:
            return []
        # Draw, then route, per query: drawing every pad set first would
        # reorder the coins and move every seeded transcript.
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

        Legs run in submission order (the pool's servers may share one
        attached transcript, and the draw-free reads interleave
        identically under every executor); a concurrent executor prices
        the stage as overlapped — the wall-clock cost is the slowest
        server's share of the pad set, not the sum.
        """
        orders = [sorted(slots) for slots in per_server]
        pool = self._pool
        results = self._executor.fan_out(
            [
                (lambda server=pool[server_id], order=order:
                    server.read_many(order))
                for server_id, order in enumerate(orders)
            ]
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
        plan, _ = self._draw_plan(check_index(index, self._params.n))
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
        chosen, include_real = self._draw_set(index)
        plan: list[set[int]] = [set() for _ in range(len(self._pool))]
        real_server: int | None = None
        for slot in chosen:
            target = self._rng.randbelow(len(self._pool))
            plan[target].add(slot)
            if include_real and slot == index:
                real_server = target
        return plan, real_server
