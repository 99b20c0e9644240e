"""DP-RAM over a repertoire of (possibly overlapping) buckets — Appendix E.

Section 7 runs the Section 6 DP-RAM not over single records but over a
repertoire ``Σ`` of ``b`` *buckets*, each a fixed tuple of node slots, where
different buckets may share slots (the tree-shared paths of Section 7.2).
A bucket query downloads every node of a bucket in the download phase and
re-uploads every node of a bucket in the overwrite phase; the stash holds
whole buckets with probability ``p``.  The per-query adversary view is the
pair of bucket indices ``(d_j, o_j)`` — identical in distribution to the
Section 6 analysis, so the privacy argument carries over with ``ε`` scaled
by the number of bucket queries per logical operation (Theorem 7.1).

**Consistency with overlap** (the modification Appendix E prescribes):
when a stashed bucket's nodes have stale server copies, any other bucket
reading a shared node must be served the client's copy, and updates must
refresh both copies.  We maintain:

* ``_stashed`` — the set of bucket ids currently in the stash;
* ``_overlay`` — authoritative plaintext for every node whose server copy
  may be stale *or* that belongs to a stashed bucket (so a stashed bucket
  can be answered without any real download);
* ``_pins`` — for each node, how many stashed buckets contain it.

Overlay entries are only dropped right after a fresh ciphertext of the
node is uploaded and no stashed bucket pins it; this guarantees a stale
server copy can never be served.

The two phases are exposed separately (:meth:`begin_query` /
:meth:`finish_query`) so DP-KVS can download both hash-choice buckets,
run the storing algorithm on their joint contents, and only then perform
the overwrite phases — fusing the paper's "k retrievals + k updates" into
k queries with an unchanged per-query transcript distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.api.protocols import PrivateRAM
from repro.crypto.encryption import (
    SecretKey,
    decrypt_many,
    encrypt_many,
    generate_key,
)
from repro.crypto.rng import RandomSource, SystemRandomSource
from repro.storage.backends import BackendFactory
from repro.storage.errors import RetrievalError, StorageError
from repro.storage.server import StorageServer


@dataclass
class PendingQuery:
    """State between the download and overwrite phases of one bucket query.

    Attributes:
        bucket: the queried bucket id.
        download_bucket: the bucket whose nodes were downloaded (``d_j``).
        contents: authoritative plaintext per node of ``bucket``.
    """

    bucket: int
    download_bucket: int
    contents: dict[int, bytes]
    _finished: bool = False


class BucketDPRAM(PrivateRAM):
    """The Section 6 DP-RAM generalized to an overlapping-bucket repertoire.

    Args:
        node_blocks: initial plaintext content of every node slot.
        buckets: the repertoire ``Σ`` — bucket id → tuple of node ids.
        stash_probability: per-bucket stash probability ``p``.
        rng: randomness source (defaults to system entropy).
        key: symmetric key; freshly sampled when omitted.
        backend_factory: optional slot-storage backend for the server.
    """

    def __init__(
        self,
        node_blocks: Sequence[bytes],
        buckets: Sequence[tuple[int, ...]],
        stash_probability: float,
        rng: RandomSource | None = None,
        key: SecretKey | None = None,
        backend_factory: BackendFactory | None = None,
    ) -> None:
        if not node_blocks:
            raise ValueError("need at least one node block")
        if not buckets:
            raise ValueError("need at least one bucket")
        if not 0.0 < stash_probability <= 1.0:
            raise ValueError(
                f"stash probability must be in (0, 1], got {stash_probability}"
            )
        node_count = len(node_blocks)
        for bucket_id, nodes in enumerate(buckets):
            if not nodes:
                raise ValueError(f"bucket {bucket_id} is empty")
            for node in nodes:
                if not 0 <= node < node_count:
                    raise StorageError(
                        f"bucket {bucket_id} references node {node} "
                        f"outside [0, {node_count})"
                    )
        self._buckets = [tuple(nodes) for nodes in buckets]
        self._p = stash_probability
        self._rng = rng if rng is not None else SystemRandomSource()
        self._key = key if key is not None else generate_key(self._rng)

        self._block_size = len(node_blocks[0])
        self._server = StorageServer(
            node_count,
            backend=backend_factory(node_count) if backend_factory else None,
        )
        self._server.load(encrypt_many(self._key, node_blocks, self._rng))

        self._stashed: set[int] = set()
        self._overlay: dict[int, bytes] = {}
        self._pins: dict[int, int] = {}
        self._pending: set[int] = set()
        self._client_peak = 0

        # Setup: stash each bucket independently with probability p,
        # mirroring Algorithm 2's per-record coin.
        for bucket_id, nodes in enumerate(self._buckets):
            if self._rng.random() < self._p:
                self._stashed.add(bucket_id)
                for node in nodes:
                    self._overlay[node] = bytes(node_blocks[node])
                    self._pin(node)
        self._note_peak()

        self._queries = 0
        self._pairs: list[tuple[int, int]] = []

    # -- accounting ----------------------------------------------------------

    @property
    def n(self) -> int:
        """Size of the repertoire ``Σ`` (the addressable units)."""
        return len(self._buckets)

    @property
    def bucket_count(self) -> int:
        """Size of the repertoire ``Σ``."""
        return len(self._buckets)

    @property
    def block_size(self) -> int:
        """Bytes per plaintext node block."""
        return self._block_size

    @property
    def stash_probability(self) -> float:
        """The per-bucket stash probability ``p``."""
        return self._p

    @property
    def server(self) -> StorageServer:
        """The passive server of node slots (exposes operation counters)."""
        return self._server

    def servers(self) -> tuple[StorageServer, ...]:
        """The single node-slot server."""
        return (self._server,)

    @property
    def stashed_buckets(self) -> int:
        """Buckets currently in the stash."""
        return len(self._stashed)

    @property
    def client_blocks(self) -> int:
        """Node blocks currently held on the client (the overlay)."""
        return len(self._overlay)

    @property
    def client_peak_blocks(self) -> int:
        """Largest overlay occupancy observed."""
        return self._client_peak

    @property
    def query_count(self) -> int:
        """Completed bucket queries."""
        return self._queries

    @property
    def transcript_pairs(self) -> list[tuple[int, int]]:
        """Bucket-granular ``(d_j, o_j)`` pairs — the adversary view."""
        return list(self._pairs)

    def bucket_nodes(self, bucket: int) -> tuple[int, ...]:
        """Node ids of ``bucket``."""
        return self._buckets[bucket]

    # -- the two phases --------------------------------------------------------

    def begin_query(self, bucket: int) -> PendingQuery:
        """Run the download phase for ``bucket``.

        Returns a :class:`PendingQuery` carrying the authoritative contents
        of every node of the bucket; pass it to :meth:`finish_query` to run
        the overwrite phase.
        """
        if not 0 <= bucket < len(self._buckets):
            raise RetrievalError(
                f"bucket {bucket} out of range for {len(self._buckets)}"
            )
        if bucket in self._pending:
            raise RetrievalError(
                f"bucket {bucket} already has an unfinished query; "
                "interleaved queries must target distinct buckets"
            )
        self._pending.add(bucket)
        self._server.begin_query(self._queries)
        nodes = self._buckets[bucket]
        if bucket in self._stashed:
            download_bucket = self._rng.randbelow(len(self._buckets))
            # Cover traffic, discarded — one batched round for the bucket.
            self._server.read_many(self._buckets[download_bucket])
            contents = {node: self._overlay[node] for node in nodes}
            self._stashed.remove(bucket)
            for node in nodes:
                self._unpin(node)
            # Overlay entries persist: the server copies are still stale
            # until the overwrite phase uploads fresh ciphertexts.
        else:
            download_bucket = bucket
            contents = {}
            ciphertexts = self._server.read_many(nodes)
            plaintexts = iter(
                decrypt_many(
                    self._key,
                    [
                        ciphertext
                        for node, ciphertext in zip(nodes, ciphertexts)
                        if node not in self._overlay
                    ],
                )
            )
            for node in nodes:
                if node in self._overlay:
                    contents[node] = self._overlay[node]
                else:
                    contents[node] = next(plaintexts)
        return PendingQuery(
            bucket=bucket, download_bucket=download_bucket, contents=contents
        )

    def finish_query(
        self,
        pending: PendingQuery,
        new_contents: Mapping[int, bytes] | None = None,
    ) -> None:
        """Run the overwrite phase.

        Args:
            pending: the handle returned by :meth:`begin_query`.
            new_contents: replacement plaintext for any subset of the
                bucket's nodes; omitted nodes keep their downloaded
                contents.  ``None`` performs a fake update (contents
                unchanged), which is what read operations use.
        """
        if pending._finished:
            raise RetrievalError("finish_query called twice on the same handle")
        bucket = pending.bucket
        nodes = self._buckets[bucket]
        contents = dict(pending.contents)
        if new_contents is not None:
            for node, block in new_contents.items():
                if node not in contents:
                    raise StorageError(
                        f"node {node} is not part of bucket {bucket}"
                    )
                contents[node] = bytes(block)
        # Only a validated call consumes the handle: a rejected one leaves
        # it open, so the caller can still run the overwrite phase.
        pending._finished = True
        self._pending.discard(bucket)

        # Both overwrite branches move a whole bucket: one batched
        # download round, then one batched upload round (the per-query
        # event multiset is unchanged; only the within-query interleaving
        # goes from read/write per node to reads-then-writes).
        if self._rng.random() < self._p:
            # Re-stash the queried bucket; cover-rewrite a random bucket.
            self._stashed.add(bucket)
            for node in nodes:
                self._overlay[node] = contents[node]
                self._pin(node)
            overwrite_bucket = self._rng.randbelow(len(self._buckets))
            overwrite_nodes = self._buckets[overwrite_bucket]
            ciphertexts = self._server.read_many(overwrite_nodes)
            # Decrypts consume no client randomness, so hoisting them
            # ahead of the whole-bucket bulk re-encrypt preserves the
            # rng draw order of the per-node formulation exactly.
            plaintexts = iter(
                decrypt_many(
                    self._key,
                    [
                        ciphertext
                        for node, ciphertext in zip(overwrite_nodes, ciphertexts)
                        if node not in self._overlay
                    ],
                )
            )
            authoritative = [
                self._overlay[node]
                if node in self._overlay
                else next(plaintexts)
                for node in overwrite_nodes
            ]
            self._server.write_many(
                list(
                    zip(
                        overwrite_nodes,
                        encrypt_many(self._key, authoritative, self._rng),
                    )
                )
            )
            for node in overwrite_nodes:
                self._evict_if_unpinned(node)
        else:
            overwrite_bucket = bucket
            self._server.read_many(nodes)  # downloaded and discarded
            self._server.write_many(
                list(
                    zip(
                        nodes,
                        encrypt_many(
                            self._key,
                            [contents[node] for node in nodes],
                            self._rng,
                        ),
                    )
                )
            )
            for node in nodes:
                if node in self._overlay:
                    # A stashed sibling pins this node; keep the overlay in
                    # sync with the value just uploaded.
                    self._overlay[node] = contents[node]
                self._evict_if_unpinned(node)

        self._note_peak()
        self._pairs.append((pending.download_bucket, overwrite_bucket))
        self._queries += 1

    # -- the RAM interface over single-node buckets ---------------------------

    def read(self, index: int) -> bytes:
        """Record-level read of bucket ``index``.

        Only meaningful for single-node buckets (the degenerate repertoire
        equivalent to the Section 6 scheme); multi-node repertoires go
        through :meth:`begin_query`/:meth:`finish_query`.

        Raises:
            StorageError: if bucket ``index`` holds more than one node.
        """
        node = self._single_node(index)
        return self.query(index)[node]

    def write(self, index: int, value: bytes) -> None:
        """Record-level overwrite of bucket ``index`` (single-node only).

        Raises:
            StorageError: if bucket ``index`` holds more than one node.
        """
        node = self._single_node(index)
        self.query(index, {node: bytes(value)})

    def _single_node(self, index: int) -> int:
        if not 0 <= index < len(self._buckets):
            raise RetrievalError(
                f"bucket {index} out of range for {len(self._buckets)}"
            )
        nodes = self._buckets[index]
        if len(nodes) != 1:
            raise StorageError(
                f"bucket {index} spans {len(nodes)} nodes; record-level "
                "read/write needs single-node buckets"
            )
        return nodes[0]

    def query(
        self,
        bucket: int,
        new_contents: Mapping[int, bytes] | None = None,
    ) -> dict[int, bytes]:
        """Convenience: both phases back to back.

        Returns the bucket contents as seen by the download phase (before
        ``new_contents`` is applied).
        """
        pending = self.begin_query(bucket)
        snapshot = dict(pending.contents)
        self.finish_query(pending, new_contents)
        return snapshot

    # -- overlay / pin bookkeeping ----------------------------------------------

    def _pin(self, node: int) -> None:
        self._pins[node] = self._pins.get(node, 0) + 1

    def _unpin(self, node: int) -> None:
        remaining = self._pins.get(node, 0) - 1
        if remaining <= 0:
            self._pins.pop(node, None)
        else:
            self._pins[node] = remaining

    def _evict_if_unpinned(self, node: int) -> None:
        """Drop an overlay entry once the server copy is fresh and no
        stashed bucket needs a client-resident copy."""
        if node not in self._pins:
            self._overlay.pop(node, None)

    def _note_peak(self) -> None:
        if len(self._overlay) > self._client_peak:
            self._client_peak = len(self._overlay)
