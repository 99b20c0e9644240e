"""Path ORAM (Stefanov et al. [48]) — the oblivious RAM comparator.

The standard tree ORAM: server storage is a complete binary tree of
``2^L`` leaves whose nodes hold ``Z`` block slots; every logical block is
mapped to a uniformly random leaf, stored somewhere on the path to that
leaf (or in the client stash), and remapped on every access.  An access
reads one full path and writes it back, moving at most ``2·Z·(L+1)``
slots — the ``Θ(log n)`` overhead that the paper's DP-RAM beats with
O(1).

**One request per access.**  An access's request downloads its path,
with the previous access's write-back in front; its own write-back is
held for the next request (:mod:`repro.storage.held` states the
protocol).  The two paths share their top nodes — the root at least,
``2 − 2^−L`` on average — and the client holds those nodes' bytes, so
the request carries them neither way (*path merging*: Zhang et al.'s
Fork Path, restricted to what the client already holds): an access moves
``2·Z·(L − 1 + 2^−L)`` slots on average, and one whose whole path is held
sends no request.  Which nodes are left out follows from two public,
i.i.d.-uniform leaves, so the server's view is a function of the
two-message one and obliviousness is untouched.
An access commits — remap, stash, peak, query number, held write-back —
only once its request is back, in one step that
:class:`~repro.baselines.recursive_oram.RecursivePathORAM` defers until
the data level's request is back too; until then the shared nodes stay
held, unsent.  The held write-back never adds to client storage: its
real blocks were all in the stash right after this access's path read,
and by the time the next path comes back they have left, or — those in
the shared nodes — are that path's own blocks, read into its stash.

Each slot is serialized as ``index (8B) || leaf tag (4B) || payload`` with
an all-ones index marking dummies.  Carrying the leaf tag inside the
block makes blocks self-describing: eviction never consults the position
map, so the map can be externalized — which is exactly what
:class:`~repro.baselines.recursive_oram.RecursivePathORAM` does by
plugging a recursive resolver into ``position_resolver``.  A stash entry
keeps its block's slot sealed, ``(tag, slot)``: an unchanged block goes back
as the bytes it came in, and an access encodes one header, its block's.

Eviction rule.  Write-back fills the accessed path from the leaf up;
each node takes the first ``Z`` stash blocks, in stash (insertion)
order, whose own tagged path passes through it.  A block tagged ``t``
shares the path to ``leaf`` down to level ``L - (t ^ leaf).bit_length()``
(the length of the two labels' common prefix), so one pass over the
stash ranks every block by that depth and each level then chooses among
its own rank plus whatever the levels below could not hold.  That is
choice-for-choice the greedy scan — rescan the stash per node, walk
leaf-to-root per block — at ``O(Z·(L+1) + |stash|)`` instead of
``O(L²·|stash|)`` per access; the scan survives as the oracle in
``tests/property/test_prop_schemes.py``.  The path moves in whole nodes,
runs of ``Z`` slot ids; the read skips a node of dummies in one compare.

(Encryption is orthogonal to the bandwidth accounting these experiments
need and is omitted for speed; a real deployment would wrap slots with
:mod:`repro.crypto.encryption`.)
"""

from __future__ import annotations

import struct
from itertools import chain
from typing import Callable, Sequence

from repro.analysis.datasheet import PrivacyDatasheet
from repro.api.protocols import PrivateRAM, check_index, check_value
from repro.crypto.rng import RandomSource, SystemRandomSource
from repro.storage.backends import BackendFactory
from repro.storage.errors import RetrievalError
from repro.storage.held import HeldRequest
from repro.storage.server import StorageServer

_DUMMY = (1 << 64) - 1
_HEADER = struct.Struct(">QI")  # index (8B) || leaf tag (4B)

PositionResolver = Callable[[int, int], int]
"""``resolve(index, new_leaf) -> old_leaf``: look up and remap in one shot."""


class PathORAM(PrivateRAM):
    """Path ORAM with bucket size ``Z`` (default 4).

    Args:
        blocks: initial database ``B_1..B_n``.
        bucket_size: slots per tree node (``Z``).
        rng: randomness source.
        position_resolver: optional external position map.  When given, it
            is called once per access, before the access's request, with
            ``(index, new_leaf)`` and must return the block's current
            leaf, remapping it no earlier than the access commits; the
            default keeps a plain in-client list (``n`` labels of
            metadata), remapped when the access commits.

    The client state is the position map (unless externalized) and the
    stash, whose peak occupancy is tracked because Path ORAM's stash bound
    is itself a classic result.
    """

    def __init__(
        self,
        blocks: Sequence[bytes],
        bucket_size: int = 4,
        rng: RandomSource | None = None,
        position_resolver: PositionResolver | None = None,
        backend_factory: BackendFactory | None = None,
    ) -> None:
        if not blocks:
            raise ValueError("the database must contain at least one block")
        if bucket_size <= 0:
            raise ValueError(f"bucket size must be positive, got {bucket_size}")
        self._n = len(blocks)
        self._z = bucket_size
        self._rng = rng if rng is not None else SystemRandomSource()
        self._block_size = len(blocks[0])
        for block in blocks:
            if len(block) != self._block_size:
                raise ValueError("all blocks must have equal size")

        self._height = max(1, (self._n - 1).bit_length())  # L
        self._leaves = 1 << self._height
        self._nodes = 2 * self._leaves - 1
        # Per level, root first: its first heap id and a leaf's shift.
        self._path_levels = [
            ((1 << level) - 1, self._height - level)
            for level in range(self._height + 1)
        ]
        slot_count = self._nodes * self._z
        self._link = HeldRequest(
            StorageServer(
                slot_count,
                backend=backend_factory(slot_count) if backend_factory else None,
            )
        )
        initial_positions = [
            self._rng.randbelow(self._leaves) for _ in range(self._n)
        ]
        # The in-client map, or ``None`` when ``position_resolver`` keeps
        # it: a local map is remapped once the access's request is back.
        self._position: list[int] | None = (
            initial_positions if position_resolver is None else None
        )
        self._resolver = position_resolver
        # stash: index -> (current leaf, sealed slot: header || payload)
        self._stash: dict[int, tuple[int, bytes]] = {}
        self._stash_peak = 0
        self._queries = 0
        # The leaf of the last committed access, whose write-back is held.
        self._held_leaf = 0
        # Every empty slot holds these same bytes: compared on the way in
        # (no decode) and reused on the way out (no encode).
        self._dummy_slot = _HEADER.pack(_DUMMY, 0) + bytes(self._block_size)
        self._offline_load(blocks, initial_positions)

    # -- geometry -------------------------------------------------------------

    @property
    def n(self) -> int:
        """Database size."""
        return self._n

    @property
    def height(self) -> int:
        """Tree height ``L`` (paths have ``L+1`` nodes)."""
        return self._height

    @property
    def leaves(self) -> int:
        """Number of leaves (``2^L``) — the label space of the position map."""
        return self._leaves

    @property
    def bucket_size(self) -> int:
        """Slots per node (``Z``)."""
        return self._z

    @property
    def block_size(self) -> int:
        """Bytes per logical record payload."""
        return self._block_size

    @property
    def server(self) -> StorageServer:
        """The passive slot server (exposes operation counters)."""
        return self._link.server

    def servers(self) -> tuple[StorageServer, ...]:
        """The single slot server."""
        return (self._link.server,)

    @property
    def stash_size(self) -> int:
        """Current client stash occupancy."""
        return len(self._stash)

    @property
    def stash_peak(self) -> int:
        """Largest stash occupancy observed."""
        return self._stash_peak

    @property
    def client_peak_blocks(self) -> int:
        """Peak client storage in blocks: the stash peak.

        The held write-back is counted too, and fits: its real blocks were
        in the stash right after the path read that peak measures, and it
        leaves in the next request before the next path comes back, but
        for the nodes the two paths share, whose blocks that path reads.
        """
        return self._stash_peak

    @property
    def query_count(self) -> int:
        """Number of accesses performed."""
        return self._queries

    @property
    def initial_positions(self) -> list[int]:
        """The leaf labels assigned at load time.

        External position maps must start from these (the recursion seeds
        its map ORAMs with them).
        """
        return list(self._initial_positions)

    def blocks_per_access(self) -> int:
        """Slots an access moves at most: ``2·Z·(L+1)``, what one moves
        with nothing held (the first, or the first after a flush).  Any
        other leaves out, both ways, the nodes its path shares with the
        held write-back: ``2·Z·(L − 1 + 2^−L)`` on average."""
        return 2 * self._z * (self._height + 1)

    def datasheet(self) -> PrivacyDatasheet:
        """Perfectly oblivious and errorless; one request an access.

        The path's write-back rides in the next access's request; its
        blocks left the stash, so it adds no client storage.  A request
        carries neither way the ``2 − 2^−L`` nodes two uniform paths share
        on average; with nothing held (the first access, or the first
        after a flush) an access moves them all.
        """
        z, height = self._z, self._height
        return PrivacyDatasheet(
            scheme=type(self).__name__, n=self._n,
            epsilon=0.0, epsilon_kind="perfect", delta=0.0,
            error_probability=0.0,
            blocks_per_query=float(self.blocks_per_access()), roundtrips=1,
            client_blocks=float(self._n),  # position map + stash
            server_blocks=self._link.server.capacity,
            expected_blocks_per_query=2 * z * (height - 1 + 2.0**-height),
        )

    # -- the RAM interface ------------------------------------------------------

    def read(self, index: int) -> bytes:
        """Retrieve the current version of record ``index``."""
        return self._access(check_index(index, self._n), None)

    def write(self, index: int, value: bytes) -> None:
        """Overwrite record ``index`` with ``value``."""
        index = check_index(index, self._n)
        self._access(index, check_value(value, self._block_size))

    def read_modify_write(self, index: int, transform) -> bytes:
        """Atomically replace record ``index`` with ``transform(old)``.

        A *single* ORAM access (one request) — what the
        recursive position-map construction needs for its packed label
        blocks.  Returns the old value.  If ``transform`` raises or
        returns a value of the wrong size, the access still completes —
        as a plain read — and the error is raised afterwards.
        """
        index = check_index(index, self._n)
        if not callable(transform):
            raise TypeError("transform must be callable")
        return self._access(index, None, transform=transform)

    # -- internals ----------------------------------------------------------

    def _access(
        self, index: int, new_value: bytes | None, transform=None
    ) -> bytes:
        commit, result, failure = self._stage(index, new_value, transform)
        commit()
        if failure is not None:
            raise failure
        return result

    def _stage(self, index: int, new_value: bytes | None, transform=None):
        """Run an access up to its commit: ``(commit, result, failure)``.

        The request goes out and the path's write-back is built, but the
        client — map, stash, peak, query number, held write-back — moves
        only when ``commit()`` is called.  Until then, or if it never is,
        the client is as an access never made would leave it (the coins
        stay spent).  ``failure`` is a ``transform`` error, to be raised
        once the access has committed.
        """
        new_leaf = self._rng.randbelow(self._leaves)
        position = self._position
        leaf = (
            self._resolver(index, new_leaf) if position is None
            else position[index]
        )

        # The access's one request, and its one point of failure: this
        # path, less its top nodes that the held write-back's path shares
        # (the root at least) while they are still unsent — those the
        # client has, so they are neither uploaded nor downloaded.
        z, height = self._z, self._height
        node_slots = [  # each path node's Z slot ids, root first
            range(first := (base + (leaf >> shift)) * z, first + z)
            for base, shift in self._path_levels
        ]
        link = self._link
        shared = min(
            link.blocks,
            z * (height + 1 - (leaf ^ self._held_leaf).bit_length()),
        )
        query = self._queries
        fetched = link.send(
            query, list(chain.from_iterable(node_slots[shared // z :])), shared
        )

        # Read the path into a copy of the stash, root first (the held
        # write-back lists its nodes leaf-up, so the shared ones are its
        # tail), skipping a node of dummies in one compare; the copy
        # becomes the stash when the access commits.
        stash = dict(self._stash)
        dummy = self._dummy_slot
        dummies = [dummy] * z
        if shared:
            items = link.held[1]
            for end in range(len(items), len(items) - shared, -z):
                for _, raw in items[end - z : end]:
                    if raw is not dummy:
                        stored_index, tag = _HEADER.unpack_from(raw)
                        stash[stored_index] = (tag, raw)
        for start in range(0, len(fetched), z):
            node = fetched[start : start + z]
            if node != dummies:
                for raw in node:
                    if raw != dummy:
                        stored_index, tag = _HEADER.unpack_from(raw)
                        if stored_index != _DUMMY:
                            stash[stored_index] = (tag, raw)
        peak = max(self._stash_peak, len(stash))

        if index not in stash:
            raise RetrievalError(
                f"block {index} missing from path and stash (corrupt state)"
            )
        result = stash[index][1][_HEADER.size :]
        # The path now lives only in the stash, so the write-back below
        # must be built; a transform that raises or returns a wrong-sized
        # value finishes the access as a plain read and is reported after.
        failure: Exception | None = None
        if transform is not None:
            try:
                new_value = check_value(transform(result), self._block_size)
            except Exception as error:
                failure = error
                new_value = None
        # The accessed block is the one slot sealed anew, under its new leaf.
        value = result if new_value is None else new_value
        stash[index] = (new_leaf, _HEADER.pack(index, new_leaf) + value)

        # Build the path's write-back, to be held for the next request.
        # Eviction is client-side (it consumes stash state, never server
        # answers): rank every stash entry once by its rise, how far above
        # the leaf its tagged path leaves this one, then fill the path
        # leaf-up, each level taking the first Z of its own entries plus
        # those the levels below could not hold — in stash order, kept by
        # sorting ranks (a level with neither is skipped).  ``blocks`` is
        # the write-back's slots, leaf-up: a placed entry's sealed slot
        # goes back as it is, the rest stay dummies.
        entries = list(stash.items())
        by_rise: list[list[int]] = [[] for _ in range(height + 1)]
        for rank, (_, (tag, _)) in enumerate(entries):
            by_rise[(tag ^ leaf).bit_length()].append(rank)
        blocks = [dummy] * (z * (height + 1))
        carry: list[int] = []
        for rise, eligible in enumerate(by_rise):
            if carry:
                eligible = sorted(carry + eligible)
            elif not eligible:
                continue
            carry = eligible[z:]
            for slot, rank in enumerate(eligible[:z], rise * z):
                stored_index, (_, raw) = entries[rank]
                del stash[stored_index]
                blocks[slot] = raw
        uploads = list(zip(chain.from_iterable(reversed(node_slots)), blocks))

        def commit() -> None:
            self._stash = stash
            self._stash_peak = peak
            if position is not None:
                position[index] = new_leaf
            self._queries = query + 1
            self._held_leaf = leaf
            link.hold(query, uploads)

        return commit, result, failure

    def _offline_load(
        self, blocks: Sequence[bytes], positions: list[int]
    ) -> None:
        """Place the initial database directly (setup is public; these
        writes do not count toward query costs)."""
        self._initial_positions = list(positions)
        z = self._z
        slots = [self._dummy_slot] * (self._nodes * z)
        fill = [0] * self._nodes  # occupied slots per node
        spilled: dict[int, tuple[int, bytes]] = {}
        for index, block in enumerate(blocks):
            leaf = positions[index]
            raw = _HEADER.pack(index, leaf) + bytes(block)
            node = self._leaves - 1 + leaf
            while fill[node] == z and node:
                node = (node - 1) // 2
            if fill[node] == z:  # the whole path is full
                spilled[index] = (leaf, raw)
            else:
                slots[node * z + fill[node]] = raw
                fill[node] += 1
        self._link.server.load(slots)
        self._stash.update(spilled)
        self._stash_peak = len(self._stash)
