"""Pluggable slot-storage backends.

:class:`~repro.storage.server.StorageServer` owns the balls-and-bins
*semantics* — operation counters, transcript recording, size validation —
but delegates the actual slot persistence to a :class:`StorageBackend`.
Separating the two is what lets every scheme swap where its blocks live
(in-memory array, latency-injecting simulated link, and later shards,
caches or real object stores) without touching any privacy logic.

Two backends ship today:

* :class:`InMemoryBackend` — a plain Python list; the default, and the
  behaviour of the original seed implementation.
* :class:`NetworkBackend` — wraps any inner backend and charges every
  slot access against a :class:`~repro.storage.network.NetworkModel`,
  accumulating the simulated wall-clock cost so experiments can report
  response times for LAN/WAN/mobile deployments.  Slot calls bracketed
  by ``begin_round()`` / ``end_round()`` are one request: one roundtrip.

Backends are created per server; schemes accept a *backend factory*
(``capacity -> StorageBackend``) so multi-server constructions can build
one backend per replica/shard/level.  A backend's link time and
roundtrips are read off the backend itself — walk ``scheme.servers()``
— never off the factory that made it.
"""

from __future__ import annotations

import abc
from typing import Callable, Sequence

from repro.storage.errors import StorageError
from repro.storage.network import NetworkModel

BackendFactory = Callable[[int], "StorageBackend"]
"""Build a fresh backend for a server of the given slot capacity."""


class StorageBackend(abc.ABC):
    """Where a server's slots actually live.

    The contract mirrors Definition 3.1's two operations plus the public
    setup-time bulk load: single-slot reads and writes, with ``None``
    marking a slot that was never written.  Index validation is the
    server's job; backends may assume ``0 <= index < capacity``.

    The server calls only the batched :meth:`read_slots` /
    :meth:`write_slots`, once per round (a single-slot read or write is
    a batch of one); the defaults loop per slot, and backends that can
    amortize (one in-memory pass, one network roundtrip) override them.

    :meth:`begin_round` / :meth:`end_round` bracket the slot calls of one
    client request — "write these slots, then read those" is a
    ``write_slots`` and a ``read_slots`` inside one bracket.  Where the
    slots live the bracket means nothing, so the defaults do nothing; a
    backend that prices requests (:class:`NetworkBackend`) charges one
    for the whole bracket.
    """

    __slots__ = ()

    @property
    @abc.abstractmethod
    def capacity(self) -> int:
        """Number of slots this backend holds."""

    @abc.abstractmethod
    def read_slot(self, index: int) -> bytes | None:
        """Return the block at ``index``, or ``None`` if never written."""

    @abc.abstractmethod
    def write_slot(self, index: int, block: bytes) -> None:
        """Store ``block`` into slot ``index``."""

    @abc.abstractmethod
    def load(self, blocks: Sequence[bytes]) -> None:
        """Install the initial database (setup is public; not a query)."""

    def read_slots(self, indices: Sequence[int]) -> list[bytes | None]:
        """Read several slots in one dispatched round, in order."""
        return [self.read_slot(index) for index in indices]

    def write_slots(self, items: Sequence[tuple[int, bytes]]) -> None:
        """Store several ``(index, block)`` pairs in one dispatched round."""
        for index, block in items:
            self.write_slot(index, block)

    def begin_round(self) -> None:
        """The slot calls up to :meth:`end_round` are one client request."""

    def end_round(self) -> None:
        """Close the request :meth:`begin_round` opened."""

    def peek_slot(self, index: int) -> bytes | None:
        """Inspect a slot without charging any access cost.

        Backends that account per-access costs (network time, quotas)
        override this to bypass the accounting; the default simply reads.
        """
        return self.read_slot(index)

    @property
    def missing_slots(self) -> int | None:
        """Number of never-written slots, or ``None`` when not tracked.

        Backends that track presence return an exact count so the
        server's batched read path can skip its ``None`` scan once the
        database is fully loaded; ``None`` (the default) means "unknown
        — scan every round".
        """
        return None


class InMemoryBackend(StorageBackend):
    """The default backend: a plain in-process list of blocks."""

    __slots__ = ("_slots", "_missing")

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise StorageError(
                f"capacity must be non-negative, got {capacity}"
            )
        self._slots: list[bytes | None] = [None] * capacity
        self._missing = capacity

    @property
    def capacity(self) -> int:
        """Number of slots."""
        return len(self._slots)

    @property
    def missing_slots(self) -> int:
        """Exact count of never-written slots."""
        return self._missing

    def read_slot(self, index: int) -> bytes | None:
        """Return the block at ``index``, or ``None`` if never written."""
        return self._slots[index]

    def write_slot(self, index: int, block: bytes) -> None:
        """Store ``block`` into slot ``index``."""
        slots = self._slots
        if slots[index] is None:
            self._missing -= 1
        slots[index] = bytes(block)

    def read_slots(self, indices: Sequence[int]) -> list[bytes | None]:
        """One pass over the slot list — no per-slot method dispatch."""
        slots = self._slots
        return [slots[index] for index in indices]

    def write_slots(self, items: Sequence[tuple[int, bytes]]) -> None:
        """One pass storing every ``(index, block)`` pair."""
        slots = self._slots
        missing = self._missing
        for index, block in items:
            if missing and slots[index] is None:
                missing -= 1
            slots[index] = bytes(block)
        self._missing = missing

    def load(self, blocks: Sequence[bytes]) -> None:
        """Replace all slots with ``blocks``."""
        if len(blocks) != len(self._slots):
            raise StorageError(
                f"expected {len(self._slots)} blocks, got {len(blocks)}"
            )
        # The constructor's placeholder array goes before the copy is
        # made (a slice assignment would hold a third array of old items
        # while it runs), and ``bytes`` blocks are stored as handed in.
        self._slots.clear()
        self._slots = slots = list(blocks)
        if set(map(type, slots)) != {bytes}:
            for index, block in enumerate(slots):
                if type(block) is not bytes:
                    slots[index] = bytes(block)
        self._missing = 0


class NetworkBackend(StorageBackend):
    """A backend behind a simulated client-server link.

    Every slot access is one roundtrip plus the serialization time of the
    moved block under ``model``; the accumulated cost is exposed as
    :attr:`simulated_ms`.  Bulk :meth:`load` is free, matching the paper's
    treatment of setup as public and outside the per-query accounting.

    Batched accesses through :meth:`read_slots` / :meth:`write_slots`
    are priced as *one* roundtrip carrying the whole batch — that is the
    point of the wire-level ``read_many`` protocol: a K-block pad set
    costs ``rtt + transfer(K · block)`` instead of ``K · rtt + ...``.

    The slot calls made between :meth:`begin_round` and :meth:`end_round`
    are one request and one response: ONE roundtrip plus the transfer of
    every byte moved in either direction, charged when the bracket
    closes (nothing, if it held no slot call).  That is how an upload
    rides in the next operation's download request; no byte is
    discounted.  Calls outside a bracket are priced as above.

    Args:
        inner: the backend that actually stores the blocks, or an ``int``
            capacity to wrap a fresh :class:`InMemoryBackend`.
        model: the link parameters (RTT and bandwidth).
    """

    __slots__ = ("_inner", "_model", "_simulated_ms", "_roundtrips", "_round")

    def __init__(self, inner: StorageBackend | int, model: NetworkModel) -> None:
        if isinstance(inner, int):
            inner = InMemoryBackend(inner)
        self._inner = inner
        self._model = model
        self._simulated_ms = 0.0
        self._roundtrips = 0
        # Bytes per slot call of the open bracket; ``None`` outside one.
        self._round: list[int] | None = None

    @property
    def capacity(self) -> int:
        """Number of slots (delegated to the inner backend)."""
        return self._inner.capacity

    @property
    def model(self) -> NetworkModel:
        """The simulated link."""
        return self._model

    @property
    def simulated_ms(self) -> float:
        """Total simulated link time spent on slot accesses."""
        return self._simulated_ms

    @property
    def roundtrips(self) -> int:
        """Total requests charged: slot calls outside a bracket, brackets."""
        return self._roundtrips

    def begin_round(self) -> None:
        """Open a request: slot calls accumulate until :meth:`end_round`."""
        self._round = []

    def end_round(self) -> None:
        """Charge the open request: one roundtrip, all its bytes."""
        moved, self._round = self._round, None
        if moved:
            self._charge(sum(moved))

    def read_slot(self, index: int) -> bytes | None:
        """Download one slot, charging one roundtrip plus transfer time."""
        block = self._inner.read_slot(index)
        moved = len(block) if block is not None else 0
        self._charge(moved)
        return block

    def write_slot(self, index: int, block: bytes) -> None:
        """Upload one slot, charging one roundtrip plus transfer time."""
        self._charge(len(block))
        self._inner.write_slot(index, block)

    def read_slots(self, indices: Sequence[int]) -> list[bytes | None]:
        """Download a batch as one roundtrip plus the combined transfer."""
        blocks = self._inner.read_slots(indices)
        if indices:
            self._charge(
                sum(len(block) for block in blocks if block is not None)
            )
        return blocks

    def write_slots(self, items: Sequence[tuple[int, bytes]]) -> None:
        """Upload a batch as one roundtrip plus the combined transfer."""
        if items:
            self._charge(sum(len(block) for _, block in items))
        self._inner.write_slots(items)

    def load(self, blocks: Sequence[bytes]) -> None:
        """Install the initial database without charging link time."""
        self._inner.load(blocks)

    def peek_slot(self, index: int) -> bytes | None:
        """Inspect a slot without charging link time (test helper path)."""
        return self._inner.peek_slot(index)

    def _charge(self, moved_bytes: int) -> None:
        if self._round is not None:
            self._round.append(moved_bytes)
            return
        self._roundtrips += 1
        self._simulated_ms += self._model.rtt_ms + self._model.transfer_ms(
            moved_bytes
        )


class NetworkBackendFactory:
    """A :data:`BackendFactory` whose backends share one simulated link.

    It keeps nothing but the model: a scheme's link time is read off
    the backends of its servers, so a reshard's drained generation is
    freed with its servers.
    """

    def __init__(self, model: NetworkModel) -> None:
        self._model = model

    def __call__(self, capacity: int) -> NetworkBackend:
        """Create a backend for a ``capacity``-slot server."""
        return NetworkBackend(capacity, self._model)

    @property
    def model(self) -> NetworkModel:
        """The simulated link shared by every created backend."""
        return self._model
