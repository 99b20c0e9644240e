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

Overlay entries are only dropped once a fresh ciphertext of the node is
sealed for upload and no stashed bucket pins it.  The invariant: a server
copy may be stale only while its fresh ciphertext is *held* by the client
(:mod:`repro.storage.held`), and every request sends what is held before
it reads — so a stale server copy can never be served.

**One request, one commit.**  A *batch* of bucket queries — DP-KVS sends
the two hash-choice buckets of one operation, :meth:`BucketDPRAM.query`
a batch of one — is :meth:`BucketDPRAM.batch`: one roundtrip however
many buckets it holds.  :meth:`~BucketDPRAM.begin_query` draws every coin
of both phases up front (per bucket the download coin; then per bucket
the restash coin, the overwrite bucket and that upload's nonces), which
no downloaded byte can affect, and sends one request for the distinct
nodes of ``d_1 ‖ … ‖ d_k ‖ o_1 ‖ … ‖ o_k``; nothing of the client's moves.
The caller's ``transform`` names the new contents, and
:meth:`~BucketDPRAM.finish_query`, the one commit point, replays the
per-bucket stash and overwrite logic and seals ONE upload over the
distinct nodes of ``o_1 ‖ … ‖ o_k``, held for the next request.  A
``transform`` that raises, or contents ``finish_query`` refuses, commit
the batch as a read (its request went out), and the error is raised
after.  The draw order and the per-query pair ``(d_j, o_j)`` are those of
running the queries one after the other; only data-independent things
change — the interleaving inside the batch and where a message ends —
and no node moves twice in a round.

**A round lists a node once.**  ``d_j = o_j`` with probability
``(1−p)²`` (no stash hit, no restash), and tree paths share their upper
nodes, so the paper-shaped round would fetch byte-identical second
copies of ciphertexts the client already holds: a query's
``3 · |bucket|`` blocks are its worst case, ``(3 − (1−p)²) · |bucket|``
or less its expectation.  Downloads keep a node's first occurrence.
Uploads keep its last — where two overwrite buckets share a node only
that copy would survive on the server — sealed under the nonce drawn for
that position, every coin still drawn as before; the stored bytes are
those of the paper-shaped rounds.  What the server sees is a
deterministic function of the paper-shaped view (drop the repeats inside
a query), so the privacy of Theorem 7.1 carries over by post-processing.

The overwrite phase of bucket ``j`` needs the current plaintext of every
node of ``o_j``, and all it has from the server was read *before* any
upload of the batch.  It looks a node up in this order:

1. ``_overlay`` — authoritative by the invariant above;
2. the plaintext an earlier bucket of this batch uploaded to that node
   (a tree node shared by ``o_1`` and ``o_2``, or ``o_1 = o_2``): the
   server copy will hold exactly that once the round lands;
3. the pre-fetched ciphertext, which is current because the request
   that fetched it landed the held upload first and nothing has written
   the node since.

Step 3 is why ``finish_query`` refuses a stage once another batch has
committed: that batch's upload may rewrite a node the stage pre-fetched.

The request is a batch's one point of failure and it comes before the
client's state moves; sealing cannot fail, so there is no second failure
to recover from.  The held ciphertexts count as client storage
(:attr:`BucketDPRAM.client_blocks`).
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple, Sequence

from repro.analysis.datasheet import PrivacyDatasheet
from repro.api.protocols import PrivateRAM, check_index, check_indices, check_value
from repro.core.params import dp_ram_epsilon_upper_bound
from repro.crypto.encryption import (
    NONCE_SIZE,
    SecretKey,
    decrypt,
    decrypt_many,
    encrypt_many,
    generate_key,
)
from repro.crypto.rng import RandomSource, SystemRandomSource
from repro.storage.backends import BackendFactory
from repro.storage.blocks import uniform_block_size
from repro.storage.errors import RetrievalError, StorageError
from repro.storage.held import HeldRequest
from repro.storage.server import StorageServer


class _BucketPlan(NamedTuple):
    """The coins of one bucket query, all drawn before the download round."""

    download_bucket: int
    restash: bool
    overwrite_bucket: int
    nonces: bytes


class PendingQuery(NamedTuple):
    """A batch staged up to its commit: planned, sent and decrypted.

    Attributes:
        buckets: the queried bucket ids, in batch order.
        contents: per queried bucket, the authoritative plaintext of
            each of its nodes.
        query: the query number the request ran under.
        plans: per queried bucket, the coins of its query.
        fetched: the request's ciphertexts, by node.
    """

    buckets: tuple[int, ...]
    contents: list[dict[int, bytes]]
    query: int
    plans: list[_BucketPlan]
    fetched: dict[int, bytes]


class BucketDPRAM(PrivateRAM):
    """The Section 6 DP-RAM generalized to an overlapping-bucket repertoire.

    Args:
        node_blocks: initial plaintext content of every node slot.
        buckets: the repertoire ``Σ`` — bucket id → tuple of node ids.
        stash_probability: per-bucket stash probability ``p``.
        rng: randomness source (defaults to system entropy).
        key: symmetric key; freshly sampled when omitted.
        backend_factory: optional slot-storage backend for the server.

    Raises:
        BlockSizeError: if the node blocks are not all of one size (an
            odd-sized ciphertext would sit on the server until the first
            upload to that node changed its length); checked before the
            key or any coin is drawn.
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
        self._block_size = uniform_block_size(node_blocks)
        self._buckets = [tuple(nodes) for nodes in buckets]
        self._p = stash_probability
        self._rng = rng if rng is not None else SystemRandomSource()
        self._key = key if key is not None else generate_key(self._rng)

        server = StorageServer(
            node_count,
            backend=backend_factory(node_count) if backend_factory else None,
        )
        server.load(encrypt_many(self._key, node_blocks, self._rng))
        self._link = HeldRequest(server)

        self._stashed: set[int] = set()
        self._overlay: dict[int, bytes] = {}
        self._pins: dict[int, int] = {}
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
        return self._link.server

    def servers(self) -> tuple[StorageServer, ...]:
        """The single node-slot server."""
        return (self._link.server,)

    @property
    def stashed_buckets(self) -> int:
        """Buckets currently in the stash."""
        return len(self._stashed)

    @property
    def client_blocks(self) -> int:
        """Node blocks currently held on the client: the overlay plus the
        ciphertexts of the held upload."""
        return len(self._overlay) + self._link.blocks

    @property
    def client_peak_blocks(self) -> int:
        """Largest :attr:`client_blocks` observed."""
        return self._client_peak

    @property
    def query_count(self) -> int:
        """Completed bucket queries."""
        return self._queries

    def datasheet(self) -> PrivacyDatasheet:
        """Section 6's ε bound over the ``b`` buckets (Appendix E),
        errorless, one request a query.

        A query moves at most three of the widest bucket — ``d_j``,
        ``o_j`` and the held upload of ``o_j`` — and two when ``d_j = o_j``
        (probability ``(1−p)²`` at least); nodes two of them share move
        once, so the expected figure is an upper estimate.
        """
        p = self._p
        widest = max(map(len, self._buckets))
        return PrivacyDatasheet(
            scheme=type(self).__name__, n=len(self._buckets),
            epsilon=dp_ram_epsilon_upper_bound(len(self._buckets), p),
            epsilon_kind="upper bound", delta=0.0, error_probability=0.0,
            blocks_per_query=3.0 * widest, roundtrips=1,
            # The stashed buckets' nodes and the held upload.
            client_blocks=p * sum(map(len, self._buckets)) + widest,
            server_blocks=self._link.server.capacity,
            expected_blocks_per_query=(3.0 - (1.0 - p) ** 2) * widest,
        )

    def bucket_nodes(self, bucket: int) -> tuple[int, ...]:
        """Node ids of ``bucket``."""
        return self._buckets[bucket]

    # -- one batch: the request, then the commit ------------------------------

    def batch(
        self,
        buckets: Sequence[int],
        transform: Callable[..., Mapping[int, bytes] | None] | None = None,
    ) -> list[dict[int, bytes]]:
        """One batch, request to commit, in one roundtrip: returns per
        queried bucket the contents its download found.

        ``transform(contents)`` returns the ``new_contents`` of
        :meth:`finish_query` (without one, the batch is a read).  If it
        raises, or they are refused, the batch commits as a read — its
        request went out — and the error is raised after.
        """
        stage = self.begin_query(buckets)
        try:
            new_contents = transform(stage.contents) if transform else None
            self.finish_query(stage, new_contents)
        except Exception:
            self.finish_query(stage)
            raise
        return stage.contents

    def begin_query(self, buckets: Sequence[int]) -> PendingQuery:
        """Stage the batch ``buckets``: plan it, send its one request (the
        held upload, then the downloads) and decrypt.  Changes nothing of
        the client's: :meth:`finish_query` commits the stage, and a stage
        never committed leaves the client as a batch never made would.

        Raises:
            TypeError: if a bucket is not an integer.
            RetrievalError: if a bucket is out of range or listed twice,
                or the batch is empty.
        """
        # A float would be found in the stash and its request sent before
        # a lookup raised: refuse it before any coin is drawn.
        repertoire = self._buckets
        buckets = tuple(check_indices(buckets, len(repertoire)))
        if not buckets:
            raise RetrievalError("a batch needs at least one bucket")
        if len(set(buckets)) != len(buckets):
            raise RetrievalError(
                f"batch {buckets} repeats a bucket; the queries of one "
                "batch must target distinct buckets"
            )

        rng = self._rng
        stashed = self._stashed
        download_buckets = [
            rng.randbelow(len(repertoire)) if bucket in stashed else bucket
            for bucket in buckets
        ]
        plans = []
        for bucket, download_bucket in zip(buckets, download_buckets):
            restash = rng.random() < self._p
            overwrite_bucket = (
                rng.randbelow(len(repertoire)) if restash else bucket
            )
            plans.append(
                _BucketPlan(
                    download_bucket,
                    restash,
                    overwrite_bucket,
                    rng.bytes(len(repertoire[overwrite_bucket]) * NONCE_SIZE),
                )
            )

        overwrite_buckets = [plan.overwrite_bucket for plan in plans]
        # Each node once, in first-occurrence order: d_j = o_j with
        # probability (1-p)^2, and tree paths share their upper nodes.
        round_nodes = list(
            dict.fromkeys(
                [
                    node
                    for bucket in (*download_buckets, *overwrite_buckets)
                    for node in repertoire[bucket]
                ]
            )
        )
        # The batch's one request, and its one point of failure.
        query = self._queries
        fetched = dict(zip(round_nodes, self._link.send(query, round_nodes)))

        overlay = self._overlay
        # A stashed bucket is answered from the overlay (its download
        # was cover traffic); the others decrypt what the overlay lacks,
        # a node shared by two of them once.
        stale = list(
            dict.fromkeys(
                node
                for bucket in buckets
                if bucket not in stashed
                for node in repertoire[bucket]
                if node not in overlay
            )
        )
        plaintexts = dict(
            zip(stale, decrypt_many(self._key, [fetched[n] for n in stale]))
        )
        contents = [
            {
                node: overlay[node] if node in overlay else plaintexts[node]
                for node in repertoire[bucket]
            }
            for bucket in buckets
        ]
        return PendingQuery(buckets, contents, query, plans, fetched)

    def finish_query(
        self,
        stage: PendingQuery,
        new_contents: Mapping[int, bytes] | None = None,
    ) -> None:
        """Commit ``stage``, the batch's one commit point: unstash its
        buckets, replay their overwrite phase, and seal and hold the upload
        for the next request or ``flush()``.  Once the arguments are
        accepted this cannot fail; a refusal changes nothing.

        Args:
            stage: what :meth:`begin_query` returned.
            new_contents: replacement plaintext for any subset of the
                batch's nodes, applied to every queried bucket holding
                the node (so a shared node never diverges); omitted
                nodes keep their downloaded contents.  ``None`` performs
                a fake update (contents unchanged), which is what read
                operations use.

        Raises:
            RetrievalError: if any batch (``stage`` itself, say) has
                committed since ``stage`` was begun.
            StorageError: if ``new_contents`` names a node outside the batch.
            BlockSizeError: if a replacement is not :attr:`block_size`
                bytes (ciphertext length is all the cipher leaks, so it
                would show the server which upload was a real write).
        """
        query = stage.query
        if query != self._queries:
            raise RetrievalError(
                f"buckets {stage.buckets} were staged at query {query} and "
                f"a batch has committed since; this one is at {self._queries}"
            )
        updates: dict[int, bytes] = {}
        if new_contents is not None:
            for node, block in new_contents.items():
                if not any(node in seen for seen in stage.contents):
                    raise StorageError(
                        f"node {node} is not part of buckets {stage.buckets}"
                    )
                updates[node] = check_value(block, self._block_size)

        repertoire = self._buckets
        overlay = self._overlay
        stashed = self._stashed
        for bucket in stage.buckets:
            if bucket in stashed:
                stashed.remove(bucket)
                for node in repertoire[bucket]:
                    self._unpin(node)
                # Overlay entries persist: the server copies are still
                # stale until the upload lands fresh ciphertexts.
        uploaded: dict[int, bytes] = {}
        upload_nodes: list[int] = []
        upload_blocks: list[bytes] = []

        def current(node: int) -> bytes:
            # The lookup order of the module docstring.
            if node in overlay:
                return overlay[node]
            if node in uploaded:
                return uploaded[node]
            return decrypt(self._key, stage.fetched[node])

        for bucket, plan, seen in zip(stage.buckets, stage.plans, stage.contents):
            nodes = repertoire[bucket]
            overwrite_nodes = repertoire[plan.overwrite_bucket]
            if plan.restash:
                # Re-stash the queried bucket; cover-rewrite a random one.
                stashed.add(bucket)
                for node in nodes:
                    overlay[node] = updates.get(node, seen[node])
                    self._pin(node)
                blocks = [current(node) for node in overwrite_nodes]
            else:
                blocks = [updates.get(node, seen[node]) for node in nodes]
                for node, block in zip(nodes, blocks):
                    if node in overlay:
                        # A stashed sibling pins this node; keep the
                        # overlay in sync with the value being uploaded.
                        overlay[node] = block
            for node, block in zip(overwrite_nodes, blocks):
                uploaded[node] = block
                self._evict_if_unpinned(node)
            upload_nodes.extend(overwrite_nodes)
            upload_blocks.extend(blocks)
            self._note_peak()
            self._queries += 1

        nonces = b"".join(plan.nonces for plan in stage.plans)
        if len(uploaded) < len(upload_nodes):
            # Each node once: where two overwrite buckets share one, only
            # its last occurrence would survive on the server, so only that
            # one is sealed and sent — under the nonce drawn for its position.
            last = {node: position for position, node in enumerate(upload_nodes)}
            kept = sorted(last.values())
            upload_nodes = [upload_nodes[i] for i in kept]
            upload_blocks = [upload_blocks[i] for i in kept]
            nonces = b"".join(
                nonces[i * NONCE_SIZE : (i + 1) * NONCE_SIZE] for i in kept
            )
        self._link.hold(
            query,
            list(
                zip(
                    upload_nodes,
                    encrypt_many(self._key, upload_blocks, nonces=nonces),
                )
            ),
        )
        self._note_peak()

    # -- the RAM interface over single-node buckets ---------------------------

    def read(self, index: int) -> bytes:
        """Record-level read of bucket ``index``.

        Only meaningful for single-node buckets (the degenerate repertoire
        equivalent to the Section 6 scheme); multi-node repertoires go
        through :meth:`query` or :meth:`batch`.

        Raises:
            StorageError: if bucket ``index`` holds more than one node.
        """
        node = self._single_node(check_index(index, len(self._buckets)))
        return self.query(index)[node]

    def write(self, index: int, value: bytes) -> None:
        """Record-level overwrite of bucket ``index`` (single-node only).

        Raises:
            StorageError: if bucket ``index`` holds more than one node.
        """
        node = self._single_node(check_index(index, len(self._buckets)))
        self.query(index, {node: check_value(value, self._block_size)})

    def _single_node(self, index: int) -> int:
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
        """The one-bucket :meth:`batch`: the bucket's contents as its
        download found them; a refused ``new_contents`` is raised after
        the query commits as a read."""
        return self.batch((bucket,), lambda contents: new_contents)[0]

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
        blocks = self.client_blocks
        if blocks > self._client_peak:
            self._client_peak = blocks
