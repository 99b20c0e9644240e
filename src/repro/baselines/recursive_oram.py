"""Recursive Path ORAM — position maps stored in smaller ORAMs.

The plain :class:`~repro.baselines.path_oram.PathORAM` keeps one leaf
label per block on the client (``Θ(n)`` metadata).  The standard fix is
recursion: pack ``χ`` labels per block and store them in a second, smaller
Path ORAM, whose own map goes into a third, and so on until the top map
fits in client memory.

This is exactly the construction the paper contrasts DP-RAM against in
the Related Work discussion of Wagh et al. [50]: "their scheme requires
recursively stored position maps which requires Θ(log n) client-to-server
roundtrips to get client storage of even O(√n)".  Every logical access
here costs one ORAM access *per level*, strictly sequentially — the data
leaf is unknown until the map level above resolves — so the roundtrip
count is the recursion depth (less, on average, the small levels' rare
accesses whose whole path is held, which send nothing).  Experiment E13
measures that count against DP-RAM's constant one roundtrip.

An access is all-or-nothing.  Each map level's access is *staged* — its
request goes out, and its remap, eviction and write-back are built but
not committed — and so is the top level's client-map update; once the
data level's request is back, every level commits, bottom-up.  A request
that raises at any level drops every staged level, so the map never
points a block at a leaf its own level has not moved it to, and each
level keeps what it held of its write-back unsent, the nodes its request
shared with it included.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

from repro.analysis.datasheet import PrivacyDatasheet
from repro.api.protocols import PrivateRAM, check_index, check_value
from repro.baselines.path_oram import PathORAM
from repro.crypto.rng import RandomSource, SystemRandomSource
from repro.storage.backends import BackendFactory
from repro.storage.server import StorageServer

_LABEL_BYTES = 4


def _pack(labels: Sequence[int]) -> bytes:
    return b"".join(label.to_bytes(_LABEL_BYTES, "big") for label in labels)


def _unpack(block: bytes) -> list[int]:
    return [
        int.from_bytes(block[offset : offset + _LABEL_BYTES], "big")
        for offset in range(0, len(block), _LABEL_BYTES)
    ]


class RecursivePathORAM(PrivateRAM):
    """Path ORAM with recursively outsourced position maps.

    Args:
        blocks: initial database ``B_1..B_n``.
        positions_per_block: labels packed per map block (``χ``).
        client_map_limit: recursion stops once a level's map has at most
            this many entries; that final map stays on the client.
        bucket_size: Path ORAM bucket size ``Z`` at every level.
        rng: randomness source.

    Levels are numbered from 0 (the data ORAM) upward; level ``k+1``
    stores the packed position map of level ``k``.  Accesses resolve
    top-down, one read-modify-write access per map level.
    """

    def __init__(
        self,
        blocks: Sequence[bytes],
        positions_per_block: int = 8,
        client_map_limit: int = 64,
        bucket_size: int = 4,
        rng: RandomSource | None = None,
        backend_factory: BackendFactory | None = None,
    ) -> None:
        if not blocks:
            raise ValueError("the database must contain at least one block")
        if positions_per_block < 2:
            raise ValueError(
                f"positions_per_block must be >= 2, got {positions_per_block}"
            )
        if client_map_limit < 1:
            raise ValueError(
                f"client_map_limit must be >= 1, got {client_map_limit}"
            )
        self._n = len(blocks)
        self._chi = positions_per_block
        self._rng = rng if rng is not None else SystemRandomSource()

        # Build level 0 with an externalized resolver; harvest its initial
        # positions into the level-1 map, and repeat until the map fits.
        self._levels: list[PathORAM] = []
        self._client_map: list[int] = []

        level_blocks = list(blocks)
        level = 0
        while True:
            oram = PathORAM(
                level_blocks,
                bucket_size=bucket_size,
                rng=self._rng.spawn(f"level-{level}"),
                position_resolver=partial(self._resolve, level),
                backend_factory=backend_factory,
            )
            self._levels.append(oram)
            labels = oram.initial_positions
            if len(labels) <= client_map_limit:
                self._client_map = labels
                break
            level_blocks = [
                _pack(
                    labels[offset : offset + self._chi]
                    + [0] * max(0, offset + self._chi - len(labels))
                )
                for offset in range(0, len(labels), self._chi)
            ]
            level += 1
        self._queries = 0
        # The commits of the access in flight, top level first.
        self._staged: list = []

    # -- accounting ----------------------------------------------------------

    @property
    def n(self) -> int:
        """Database size."""
        return self._n

    @property
    def block_size(self) -> int:
        """Bytes per data-level record payload."""
        return self._levels[0].block_size

    @property
    def levels(self) -> int:
        """Number of ORAMs in the chain (data + maps)."""
        return len(self._levels)

    @property
    def roundtrips_per_access(self) -> int:
        """Sequential client-server roundtrips per logical access.

        One per level: a level's path is only known after the level above
        answers — the Θ(log n) roundtrips the paper charges [50] with.
        Each level's access is one request, its write-back riding in that
        level's next request, so a run of ``k`` accesses is at most
        ``k·levels`` requests plus one per level for :meth:`flush`: a level
        access whose whole path is in the write-back that level holds
        (probability ``2^-L`` for a level of height ``L``) sends none.
        """
        return len(self._levels)

    @property
    def query_count(self) -> int:
        """Logical accesses performed."""
        return self._queries

    @property
    def client_position_entries(self) -> int:
        """Entries of the only position map still held by the client."""
        return len(self._client_map)

    @property
    def stash_peak_total(self) -> int:
        """Sum of stash peaks across all levels."""
        return sum(level.stash_peak for level in self._levels)

    def servers(self) -> tuple[StorageServer, ...]:
        """Every level's slot server (data level first)."""
        return tuple(level.server for level in self._levels)

    @property
    def client_peak_blocks(self) -> int:
        """Client footprint: all stash peaks plus the residual map
        (labels counted as blocks conservatively)."""
        return self.stash_peak_total + len(self._client_map)

    def server_operations(self) -> int:
        """Total block operations across every level's server."""
        return sum(level.server.operations for level in self._levels)

    def blocks_per_access(self) -> int:
        """Slots moved per logical access, summed over the chain."""
        return sum(level.blocks_per_access() for level in self._levels)

    def datasheet(self) -> PrivacyDatasheet:
        """Perfectly oblivious and errorless: an access is one Path ORAM
        access a level, a request each, and each level's path is only
        known once the level above has answered (:attr:`roundtrips_per_access`).
        The client keeps the top level's position map."""
        levels = [level.datasheet() for level in self._levels]
        return PrivacyDatasheet(
            scheme=type(self).__name__, n=self._n,
            epsilon=0.0, epsilon_kind="perfect", delta=0.0,
            error_probability=0.0,
            blocks_per_query=sum(sheet.blocks_per_query for sheet in levels),
            roundtrips=len(levels),
            client_blocks=float(len(self._client_map)),
            server_blocks=sum(sheet.server_blocks for sheet in levels),
            expected_blocks_per_query=sum(
                sheet.expected_blocks_per_query for sheet in levels
            ),
        )

    # -- the RAM interface ------------------------------------------------------

    def read(self, index: int) -> bytes:
        """Retrieve the current version of record ``index``."""
        return self._access(check_index(index, self._n), None)

    def write(self, index: int, value: bytes) -> None:
        """Overwrite record ``index`` with ``value``."""
        index = check_index(index, self._n)
        self._access(index, check_value(value, self.block_size))

    # -- internals ----------------------------------------------------------

    def _access(self, index: int, value: bytes | None) -> bytes:
        """One logical access: a request a level, top-down, then every
        level's commit, bottom-up — or, if any request raises, none."""
        self._staged = []
        commit, result, _ = self._levels[0]._stage(index, value)
        commit()
        for level_commit in reversed(self._staged):
            level_commit()
        self._queries += 1
        return result

    def _resolve(self, level: int, index: int, new_leaf: int) -> int:
        """Return level-``level``'s current leaf for ``index``, staging
        its remap.

        The labels of level ``level`` live either in the client map (if
        ``level`` is the top) or packed into block ``index // χ`` of level
        ``level + 1``, which is staged as a single read-modify-write
        access — recursively staging that level's own resolution.
        """
        if level + 1 == len(self._levels):
            client_map = self._client_map
            self._staged.append(
                lambda: client_map.__setitem__(index, new_leaf)
            )
            return client_map[index]
        map_block, slot = divmod(index, self._chi)

        def swap(block: bytes) -> bytes:
            labels = _unpack(block)
            labels[slot] = new_leaf
            return _pack(labels)

        commit, block, _ = self._levels[level + 1]._stage(
            map_block, None, swap
        )
        self._staged.append(commit)
        return _unpack(block)[slot]
