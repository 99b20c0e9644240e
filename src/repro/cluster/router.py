"""Shard placement: mapping logical indices and keys to shard groups.

Two policies, both deterministic:

* :class:`RangeRouter` — contiguous index ranges (the layout of
  :class:`~repro.core.sharded_ir.ShardedDPIR`), natural for
  index-addressed IR databases and the only policy that supports
  load-weighted :meth:`~RangeRouter.rebalanced` boundaries.
* :class:`HashRouter` — SHA-256 placement of indices or keys, the usual
  choice for KVS key universes (uniform spread, no boundary metadata).

Routers are pure placement metadata: they never touch servers, so the
cluster can build a candidate router (say, rebalanced boundaries) and
inspect the resulting assignment before migrating anything.
"""

from __future__ import annotations

import abc
import hashlib
from typing import Sequence


class ShardRouter(abc.ABC):
    """Placement policy of a cluster: which shard owns which record."""

    #: Policy name recorded in reports (``"range"`` / ``"hash"``).
    policy: str = "router"

    def __init__(self, n: int, shard_count: int) -> None:
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        if shard_count <= 0:
            raise ValueError(
                f"shard count must be positive, got {shard_count}"
            )
        if shard_count > n:
            raise ValueError(
                f"cannot split {n} records into {shard_count} shards"
            )
        self._n = n
        self._shard_count = shard_count

    @property
    def n(self) -> int:
        """Size of the logical index space."""
        return self._n

    @property
    def shard_count(self) -> int:
        """Number of shard groups ``D``."""
        return self._shard_count

    @abc.abstractmethod
    def shard_of(self, index: int) -> int:
        """The shard group owning logical ``index``."""

    def shard_of_key(self, key: bytes) -> int:
        """The shard group owning ``key`` (hash placement by default)."""
        return hash_shard_of_key(key, self._shard_count)

    def assignment(self) -> list[list[int]]:
        """Per-shard lists of owned global indices, in index order."""
        shards: list[list[int]] = [[] for _ in range(self._shard_count)]
        for index in range(self._n):
            shards[self.shard_of(index)].append(index)
        return shards

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self._n:
            raise ValueError(f"index {index} out of range for n={self._n}")


class RangeRouter(ShardRouter):
    """Contiguous-range placement: shard ``s`` owns ``[starts[s], starts[s+1])``.

    Args:
        n: logical index space size.
        shard_count: number of shards ``D``.
        boundaries: optional explicit start offsets (``D + 1`` ascending
            values from 0 to ``n``); the default splits evenly.
    """

    policy = "range"

    def __init__(
        self,
        n: int,
        shard_count: int,
        boundaries: Sequence[int] | None = None,
    ) -> None:
        super().__init__(n, shard_count)
        if boundaries is None:
            base, extra = divmod(n, shard_count)
            starts = [0]
            for shard in range(shard_count):
                starts.append(starts[-1] + base + (1 if shard < extra else 0))
        else:
            starts = list(boundaries)
            if len(starts) != shard_count + 1:
                raise ValueError(
                    f"expected {shard_count + 1} boundaries, got {len(starts)}"
                )
            if starts[0] != 0 or starts[-1] != n:
                raise ValueError("boundaries must span [0, n]")
            if any(hi <= lo for lo, hi in zip(starts, starts[1:])):
                raise ValueError("every shard range must be non-empty")
        self._starts = starts

    @property
    def boundaries(self) -> tuple[int, ...]:
        """The ``D + 1`` range start offsets."""
        return tuple(self._starts)

    def assignment(self) -> list[list[int]]:
        """Each shard's range, sliced from the boundaries."""
        starts = self._starts
        return [list(range(lo, hi)) for lo, hi in zip(starts, starts[1:])]

    def shard_of(self, index: int) -> int:
        """Binary search over the range boundaries."""
        self._check_index(index)
        lo, hi = 0, self._shard_count - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._starts[mid] <= index:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def rebalanced(self, loads: Sequence[float]) -> "RangeRouter":
        """New boundaries equalizing the *observed* per-shard load.

        Each current shard's load is assumed uniform over its own range
        (the cluster only tracks per-shard counters, not per-index
        ones); the cumulative load curve is then cut into ``D`` equal
        parts.  A hot shard gets split across more of the new shards, a
        cold one is merged into fewer — the classic range-rebalance
        move.

        Args:
            loads: per-shard observed load (operation counts); all-zero
                loads fall back to the even split.
        """
        if len(loads) != self._shard_count:
            raise ValueError(
                f"expected {self._shard_count} loads, got {len(loads)}"
            )
        if any(load < 0 for load in loads):
            raise ValueError("loads must be non-negative")
        total = float(sum(loads))
        if total == 0.0:
            return RangeRouter(self._n, self._shard_count)
        # Per-index load density, uniform within each current range.
        density = []
        for shard, load in enumerate(loads):
            size = self._starts[shard + 1] - self._starts[shard]
            density.extend([load / size] * size)
        target = total / self._shard_count
        starts = [0]
        cumulative = 0.0
        for index, weight in enumerate(density):
            cumulative += weight
            while (
                len(starts) < self._shard_count
                and cumulative >= target * len(starts)
                and index + 1 > starts[-1]
                # Leave enough indices for the remaining shards.
                and self._n - (index + 1) >= self._shard_count - len(starts)
            ):
                starts.append(index + 1)
        while len(starts) < self._shard_count:
            starts.append(self._n - (self._shard_count - len(starts)))
        starts.append(self._n)
        return RangeRouter(self._n, self._shard_count, boundaries=starts)


class HashRouter(ShardRouter):
    """Deterministic hash placement of indices and keys.

    Keys (an unbounded universe) place by SHA-256 modulo ``D``.  The
    *finite* index space instead orders all indices by their hash and
    deals them round-robin, which keeps the pseudorandom spread but
    guarantees every shard owns ``⌈n/D⌉`` or ``⌊n/D⌋`` records — plain
    ``hash mod D`` can leave a shard empty for small ``n/D``, which
    would be an unbuildable (and unstorable) shard group.
    """

    policy = "hash"

    def __init__(self, n: int, shard_count: int) -> None:
        super().__init__(n, shard_count)
        ranked = sorted(
            range(n), key=lambda i: (_hash_bytes(i.to_bytes(8, "big")), i)
        )
        self._shard_of_index = [0] * n
        for position, index in enumerate(ranked):
            self._shard_of_index[index] = position % shard_count

    def shard_of(self, index: int) -> int:
        self._check_index(index)
        return self._shard_of_index[index]


def _hash_bytes(data: bytes) -> int:
    digest = hashlib.sha256(b"shard:" + data).digest()
    return int.from_bytes(digest[:8], "big")


def hash_shard_of_key(key: bytes, shard_count: int) -> int:
    """The shard owning ``key`` under plain hash placement.

    The one routing rule for unbounded key universes; KVS clusters use
    it directly (no index table to precompute), and
    :meth:`ShardRouter.shard_of_key` delegates here.
    """
    if shard_count <= 0:
        raise ValueError(f"shard count must be positive, got {shard_count}")
    return _hash_bytes(key) % shard_count


def make_router(
    placement: str | ShardRouter, n: int, shard_count: int
) -> ShardRouter:
    """Resolve a placement name (``"range"`` / ``"hash"``) to a router."""
    if isinstance(placement, ShardRouter):
        return placement
    if placement == "range":
        return RangeRouter(n, shard_count)
    if placement == "hash":
        return HashRouter(n, shard_count)
    raise ValueError(
        f"unknown placement {placement!r}; expected 'range', 'hash' "
        "or a ShardRouter"
    )
