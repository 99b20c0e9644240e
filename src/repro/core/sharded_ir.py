"""Sharded DP-IR: multi-server deployment without replication.

:class:`~repro.core.multi_server.MultiServerDPIR` replicates the database
on every server (``D·n`` total storage).  Large deployments shard
instead: server ``s`` stores the contiguous range of ``≈ n/D`` records
assigned to it, and a query downloads its pad set from whichever shards
the chosen indices live on.

The draw is the shared Algorithm-1 client core of :mod:`repro.core.dp_ir`;
this module adds only the range layout and the per-shard reads.  Privacy
against a subset of corrupted shards follows from the same Algorithm-1
argument, applied per shard: the view of any shard is a
uniformly random subset of *its own* records, with the real record forced
in (probability ``1−α``) only when it lives on that shard.  The worst-case
pair of adjacent queries lands both records on one corrupted shard, where
the ratio is that of a single-server DP-IR over the shard — so the scheme
keeps the single-server exact budget while cutting per-server storage to
``n/D``.  What sharding gives up versus replication is *load hiding*: the
shard holding a hot record serves more pad traffic (the experiments can
measure this with the per-server counters).
"""

from __future__ import annotations

from typing import Sequence

from repro.api.protocols import check_index
from repro.core.dp_ir import _Algorithm1Client
from repro.crypto.rng import RandomSource
from repro.storage.backends import BackendFactory
from repro.storage.errors import StorageError
from repro.storage.server import StorageServer


class ShardedDPIR(_Algorithm1Client):
    """ε-DP-IR over ``D`` contiguous shards (no replication).

    Args:
        blocks: the database ``B_1..B_n``.
        shard_count: number of shards ``D`` (each holds ``⌈n/D⌉`` or
            ``⌊n/D⌋`` consecutive records).
        epsilon, pad_size, alpha, rng, backend_factory: as in
            :class:`~repro.core.dp_ir.DPIR`; ``K`` is the total over shards.
    """

    def __init__(
        self,
        blocks: Sequence[bytes],
        shard_count: int = 2,
        epsilon: float | None = None,
        pad_size: int | None = None,
        alpha: float = 0.05,
        rng: RandomSource | None = None,
        backend_factory: BackendFactory | None = None,
    ) -> None:
        super().__init__(blocks, epsilon, pad_size, alpha, rng)
        if shard_count <= 0:
            raise ValueError(f"shard count must be positive, got {shard_count}")
        n = len(blocks)
        if shard_count > n:
            raise ValueError(f"cannot split {n} blocks into {shard_count} shards")

        # Contiguous range partition: shard s holds [starts[s], starts[s+1]).
        base, extra = divmod(n, shard_count)
        self._starts = [0]
        for shard in range(shard_count):
            size = base + (1 if shard < extra else 0)
            self._starts.append(self._starts[-1] + size)
        self._shards = []
        for shard in range(shard_count):
            lo, hi = self._starts[shard], self._starts[shard + 1]
            server = StorageServer(
                hi - lo,
                server_id=shard,
                backend=backend_factory(hi - lo) if backend_factory else None,
            )
            server.load(blocks[lo:hi])
            self._shards.append(server)

    # -- layout ----------------------------------------------------------------

    @property
    def shard_count(self) -> int:
        """Number of shards ``D``."""
        return len(self._shards)

    @property
    def shards(self) -> list[StorageServer]:
        """Per-shard servers (exposes per-shard operation counters)."""
        return list(self._shards)

    def servers(self) -> tuple[StorageServer, ...]:
        """Every shard server."""
        return tuple(self._shards)

    def shard_of(self, index: int) -> int:
        """Which shard stores global record ``index``."""
        if not 0 <= index < self._params.n:
            raise StorageError(f"index {index} out of range")
        lo, hi = 0, len(self._shards) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._starts[mid] <= index:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def total_storage_blocks(self) -> int:
        """Server storage across shards — ``n``, not ``D·n``."""
        return sum(server.capacity for server in self._shards)

    # -- querying ------------------------------------------------------------

    def query(self, index: int) -> bytes | None:
        """Retrieve block ``index``; ``None`` on the α-error event.

        The pad set is served as one batched
        :meth:`~repro.storage.server.StorageServer.read_many` round per
        touched shard.  Shards hold contiguous ranges, so visiting the
        shards in order and their local slots sorted preserves exactly
        the global sorted access order of the per-slot loop.
        """
        index = check_index(index, self._params.n)
        chosen, include_real = self._draw_set(index)
        for server in self._shards:
            server.begin_query(self._queries)
        self._queries += 1
        per_shard: dict[int, list[int]] = {}
        for global_index in sorted(chosen):
            shard = self.shard_of(global_index)
            per_shard.setdefault(shard, []).append(
                global_index - self._starts[shard]
            )
        home = self.shard_of(index)
        result: bytes | None = None
        for shard in sorted(per_shard):
            locals_ = per_shard[shard]
            blocks = self._shards[shard].read_many(locals_)
            if include_real and shard == home:
                result = blocks[locals_.index(index - self._starts[home])]
        if not include_real:
            self._errors += 1
        return result

    def sample_shard_view(
        self, index: int, corrupted: set[int]
    ) -> frozenset[int]:
        """Global indices a corrupted shard subset would see for one query.

        Sampling only — no server operations are performed.
        """
        chosen, _ = self._draw_set(check_index(index, self._params.n))
        return frozenset(
            g for g in chosen if self.shard_of(g) in corrupted
        )
