"""Differentially private key-value storage (Section 7, Theorem 7.5).

Composition of:

* the **mapping scheme** of Section 7.2 — oblivious two-choice hashing over
  tree-shared buckets (:mod:`repro.hashing.tree_buckets`): a key ``u`` maps
  to ``k(n) = 2`` PRF-chosen leaves, its bucket is the leaf-to-root path
  (``s(n) = Θ(log log n)`` nodes of ``t`` blocks each), and overflow spills
  into a client-resident *super root* holding ``≤ Φ(n)`` items w.h.p.
  (Theorem 7.2); with
* the **bucket DP-RAM** of Appendix E (:mod:`repro.core.bucket_ram`), which
  transports whole buckets with the Section 6 stash dynamics.

Every ``get``/``put``/``delete`` issues exactly two bucket queries — one per
hash choice, padded to two distinct buckets when the PRF choices collide —
so reads and writes are indistinguishable by shape.  Each bucket query
moves at most ``3·(depth+1)`` node blocks, giving the ``O(log log n)``
overhead of Theorem 7.5 (the paper's "at most 2·k(n) DP-RAM queries" bound
is met with room to spare because the phase-split bucket DP-RAM retrieves
and updates in a single query; the composition argument is unchanged).

An operation is **one roundtrip**: both bucket queries go to the bucket
DP-RAM as one batch, whose one request lands the upload the previous
operation sealed and downloads the distinct nodes of
``d_1 ‖ d_2 ‖ o_1 ‖ o_2``; the storing algorithm runs on the joint
contents, and the upload of ``o_1 ‖ o_2`` is sealed and held for the next
operation's request (``flush()`` sends it alone).  The
per-query view ``(d_j, o_j)`` is that of six sequential rounds; the
blocks moved are theirs less the repeats — :meth:`DPKVS.blocks_per_operation`
(``2·3·(depth+1)``) is the worst case, and since ``d_j = o_j`` with
probability ``(1−p)²`` an operation moves about a third less
(:meth:`~repro.core.params.DPKVSParams.expected_blocks_per_operation`).
See :mod:`repro.core.bucket_ram` for why the interleaving, the dedupe and
the held upload are free.

Missing keys return ``None`` (the paper's ``⊥``).  Keys and values are
fixed-size byte strings (shorter inputs are zero-padded by the codec).
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.datasheet import PrivacyDatasheet
from repro.api.protocols import PrivateKVS
from repro.core.bucket_ram import BucketDPRAM
from repro.core.params import DPKVSParams, dp_ram_epsilon_upper_bound
from repro.crypto.encryption import SecretKey
from repro.crypto.prf import PRF
from repro.crypto.rng import RandomSource, SystemRandomSource
from repro.hashing.node_codec import NodeCodec, NodeEntry, SizedValueCodec
from repro.hashing.tree_buckets import TreeBucketLayout
from repro.storage.backends import BackendFactory
from repro.storage.client import ClientStash
from repro.storage.errors import CapacityError, MappingOverflowError
from repro.storage.server import StorageServer


class DPKVS(PrivateKVS):
    """ε-DP key-value store with ``O(log log n)`` overhead (Theorem 7.5).

    Args:
        capacity: maximum number of keys (``n``).
        key_size: exact key length in bytes (shorter keys are zero-padded).
        value_size: exact value length in bytes.
        node_capacity: blocks per tree node (the paper's ``t = Θ(1)``).
        phi: super-root capacity ``Φ(n)``; also sets the bucket stash
            probability ``p = Φ(n)/bucket_count``.  Defaults to
            :func:`repro.core.params.default_phi`.
        enforce_super_root_capacity: raise
            :class:`~repro.storage.errors.MappingOverflowError` if the super
            root would exceed ``Φ(n)`` (Theorem 7.2 says this is a
            negligible-probability event); when ``False`` the experiments
            just measure the peak.
        rng: randomness source (defaults to system entropy).
        prf: PRF for the two leaf choices; freshly keyed when omitted.
        key: symmetric key for the bucket DP-RAM; fresh when omitted.
    """

    _CHOICE_CACHE_LIMIT = 4096

    def __init__(
        self,
        capacity: int,
        key_size: int = 16,
        value_size: int = 32,
        node_capacity: int = 4,
        phi: int | None = None,
        leaves_per_tree: int | None = None,
        enforce_super_root_capacity: bool = False,
        rng: RandomSource | None = None,
        prf: PRF | None = None,
        key: SecretKey | None = None,
        backend_factory: BackendFactory | None = None,
    ) -> None:
        self._params = DPKVSParams.for_capacity(
            capacity,
            node_capacity=node_capacity,
            phi=phi,
            leaves_per_tree=leaves_per_tree,
        )
        self._layout = TreeBucketLayout(self._params.shape)
        # Values carry a length prefix inside the fixed node-entry field so
        # ``get`` can return the exact bytes that were ``put``.
        self._values = SizedValueCodec(value_size)
        self._codec = NodeCodec(
            capacity=node_capacity,
            key_size=key_size,
            value_size=self._values.stored_size,
        )
        self._rng = rng if rng is not None else SystemRandomSource()
        self._prf = prf if prf is not None else PRF(self._rng.bytes(32))

        empty = self._codec.empty()
        node_blocks = [empty] * self._layout.node_count
        self._ram = BucketDPRAM(
            node_blocks,
            self._layout.all_buckets(),
            stash_probability=self._params.stash_probability,
            rng=self._rng.spawn("bucket-ram") if hasattr(self._rng, "spawn") else self._rng,
            key=key,
            backend_factory=backend_factory,
        )
        super_root_capacity = (
            self._params.phi if enforce_super_root_capacity else None
        )
        self._super_root = ClientStash(capacity=super_root_capacity)
        # PRF bucket choices are a pure function of the key, so they are
        # memoized across operations (bounded, FIFO eviction); cache hits
        # consume no randomness and leave every transcript bit-identical.
        self._choice_cache: dict[bytes, list[int]] = {}
        self._size = 0
        self._operations = 0

    # -- parameters & accounting ---------------------------------------------

    @property
    def n(self) -> int:
        """Maximum number of keys."""
        return self._params.n

    @property
    def capacity(self) -> int:
        """Maximum number of keys (``n``)."""
        return self._params.n

    @property
    def value_size(self) -> int:
        """Maximum value length in bytes accepted by :meth:`put`."""
        return self._values.value_size

    @property
    def block_size(self) -> int:
        """Bytes per serialized node block (the transferred unit)."""
        return self._codec.block_size

    @property
    def size(self) -> int:
        """Number of keys currently stored."""
        return self._size

    @property
    def params(self) -> DPKVSParams:
        """The resolved parameter bundle (tree shape, Φ, stash probability)."""
        return self._params

    @property
    def server(self) -> StorageServer:
        """The node-slot server (exposes operation counters)."""
        return self._ram.server

    def servers(self) -> tuple[StorageServer, ...]:
        """The single node-slot server."""
        return (self._ram.server,)

    @property
    def server_node_count(self) -> int:
        """Server storage in node blocks — the ``O(n)`` figure of Thm 7.5."""
        return self._layout.node_count

    @property
    def node_block_size(self) -> int:
        """Bytes per serialized node block."""
        return self._codec.block_size

    @property
    def super_root_size(self) -> int:
        """Items currently in the client super root."""
        return len(self._super_root)

    @property
    def super_root_peak(self) -> int:
        """Largest super-root occupancy observed (Theorem 7.2 check)."""
        return self._super_root.peak

    @property
    def client_peak_blocks(self) -> int:
        """Peak client storage in node blocks (bucket stash + super root)."""
        return self._ram.client_peak_blocks + self._super_root.peak

    @property
    def operation_count(self) -> int:
        """Completed KVS operations."""
        return self._operations

    def blocks_per_operation(self) -> int:
        """Node blocks moved per operation, at most: ``2 · 3 · (depth+1)``.

        The worst case; :meth:`DPKVSParams.expected_blocks_per_operation`
        is what an operation moves on average.
        """
        return self._params.blocks_per_operation()

    def datasheet(self) -> PrivacyDatasheet:
        """Theorem 7.1: the bucket DP-RAM's ε bound over the leaves, once
        per hash choice, errorless; one request an operation (the held
        upload, then the fused download round)."""
        params = self._params
        path_length = params.shape.path_length
        return PrivacyDatasheet(
            scheme=type(self).__name__, n=params.n,
            epsilon=params.choices * dp_ram_epsilon_upper_bound(
                params.shape.leaf_count, params.stash_probability
            ),
            epsilon_kind="upper bound", delta=0.0, error_probability=0.0,
            blocks_per_query=float(params.blocks_per_operation()),
            roundtrips=1,
            # Stashed paths, the super root and the held upload.
            client_blocks=float(
                params.phi * path_length + params.phi
                + params.choices * path_length
            ),
            server_blocks=self._layout.node_count,
            # An upper estimate: nodes shared by two paths come off too.
            expected_blocks_per_query=params.expected_blocks_per_operation(),
        )

    # -- the KVS interface -----------------------------------------------------

    def canonical_key(self, key: bytes) -> bytes:
        """``key`` less its trailing NULs: every operation zero-pads keys
        to the key size, so ``b"k"`` and ``b"k\x00"`` are one key.

        Raises:
            BlockSizeError: if ``key`` is longer than the key size.
        """
        return self._codec.canonical_key(key)

    def get(self, user_key: bytes) -> bytes | None:
        """Retrieve the exact value for ``user_key``; ``None`` if absent (⊥)."""
        key = self._codec.normalize_key(user_key)
        buckets, real_count = self._query_buckets(key)
        contents = self._ram.batch(buckets)
        value = self._find(key, contents[:real_count])
        if value is None:
            value = self._super_root.get(key)
        self._operations += 1
        return None if value is None else self._values.decode(value)

    def get_many(self, keys: Sequence[bytes]) -> list[bytes | None]:
        """Retrieve ``keys`` in order.

        Only the PRF pass is batched: the bucket choices of every key are
        derived in a single :meth:`~repro.crypto.prf.PRF.choices_many`
        call against the shared keyed state before the per-key queries
        run.  The queries themselves (every coin they flip, and the one
        roundtrip each costs) are those of sequential :meth:`get` calls.
        """
        normalized = [self._codec.normalize_key(key) for key in keys]
        fresh = list(
            dict.fromkeys(
                key for key in normalized if key not in self._choice_cache
            )
        )
        if fresh:
            batched = self._prf.choices_many(
                fresh, self._layout.bucket_count, self._params.choices
            )
            for key, draws in zip(fresh, batched):
                self._cache_choices(key, draws)
        return [self.get(key) for key in keys]

    def put(self, user_key: bytes, user_value: bytes) -> None:
        """Insert or update ``user_key`` with ``user_value``.

        Raises:
            CapacityError: when inserting a new key beyond ``capacity``.
            MappingOverflowError: if super-root enforcement is on and the
                spill target is full.
        """
        key = self._codec.normalize_key(user_key)
        value = self._values.encode(user_value)
        buckets, real_count = self._query_buckets(key)
        self._ram.batch(
            buckets,
            lambda contents: self._plan_put(key, value, contents[:real_count]),
        )
        self._operations += 1

    def delete(self, user_key: bytes) -> bool:
        """Remove ``user_key`` if present; returns whether it existed.

        Deletion is an extension beyond the paper's read/overwrite
        interface; it reuses the same two-bucket query shape so transcripts
        stay indistinguishable from gets and puts.
        """
        key = self._codec.normalize_key(user_key)
        buckets, real_count = self._query_buckets(key)
        size = self._size
        self._ram.batch(
            buckets,
            lambda contents: self._plan_delete(key, contents[:real_count]),
        )
        self._operations += 1
        return self._size < size

    # -- internals ----------------------------------------------------------

    def _query_buckets(self, key: bytes) -> tuple[list[int], int]:
        """The bucket choices for ``key``: ``(buckets, real_count)``.

        The first ``real_count`` entries are the true ``Π(u)`` choices;
        when the PRF choices collide, ``Π(u)`` has size one and the list is
        padded with a fresh uniformly random other bucket, per Section 7.1
        ("we pick random buckets to pad Π(u) to size k(n)").  The pad is
        query-local cover traffic only — the storing algorithm and lookups
        must never use it, or a key placed during one query would be
        unreachable under the next query's pad.
        """
        buckets = self._layout.bucket_count
        cached = self._choice_cache.get(key)
        if cached is None:
            cached = self._prf.choices(key, buckets, self._params.choices)
            self._cache_choices(key, cached)
        first, second = cached
        if first != second:
            return [first, second], 2
        if buckets > 1:
            pad = (first + 1 + self._rng.randbelow(buckets - 1)) % buckets
        else:
            pad = first
        return [first, pad], 1

    def _cache_choices(self, key: bytes, draws: list[int]) -> None:
        cache = self._choice_cache
        if key not in cache and len(cache) >= self._CHOICE_CACHE_LIMIT:
            cache.pop(next(iter(cache)))
        cache[key] = draws

    def _find(
        self, key: bytes, contents: list[dict[int, bytes]]
    ) -> bytes | None:
        located = self._locate(key, contents)
        if located is None:
            return None
        _, entries = located
        for entry in entries:
            if entry.key == key:
                return entry.value
        return None

    def _locate(
        self, key: bytes, contents: list[dict[int, bytes]]
    ) -> tuple[int, list[NodeEntry]] | None:
        """Find the node holding ``key`` among the downloaded buckets.

        Returns ``(node id, decoded entries)`` or ``None``.  Shared nodes
        appear in both buckets' contents with identical authoritative
        plaintext, so scanning in order is safe.
        """
        seen: set[int] = set()
        for bucket_contents in contents:
            for node, block in bucket_contents.items():
                if node in seen:
                    continue
                seen.add(node)
                entries = self._codec.unpack(block)
                for entry in entries:
                    if entry.key == key:
                        return node, entries
        return None

    def _plan_delete(
        self, key: bytes, contents: list[dict[int, bytes]]
    ) -> dict[int, bytes]:
        """Drop ``key`` wherever it lives; return the node rewrite map."""
        home = self._locate(key, contents)
        if home is not None:
            node, entries = home
            block = self._codec.pack(
                [entry for entry in entries if entry.key != key]
            )
            self._size -= 1
            return {node: block}
        if key in self._super_root:
            self._super_root.discard(key)
            self._size -= 1
        return {}

    def _plan_put(
        self, key: bytes, value: bytes, contents: list[dict[int, bytes]]
    ) -> dict[int, bytes]:
        """Decide where ``key`` lands and return the node rewrite map."""
        home = self._locate(key, contents)
        if home is not None:
            node, entries = home
            rewritten = [
                NodeEntry(key, value) if entry.key == key else entry
                for entry in entries
            ]
            return {node: self._codec.pack(rewritten)}
        if key in self._super_root:
            self._super_root.put(key, value)
            return {}
        # New key: run the storing algorithm S over the joint contents.
        if self._size >= self._params.n:
            raise CapacityError(
                f"store is at capacity {self._params.n}; cannot insert new key"
            )
        target = self._storing_algorithm(contents)
        if target is None:
            try:
                self._super_root.put(key, value)
            except CapacityError as exc:
                raise MappingOverflowError(str(exc)) from exc
            self._size += 1
            return {}
        block = next(
            bucket_contents[target]
            for bucket_contents in contents
            if target in bucket_contents
        )
        entries = self._codec.unpack(block)
        entries.append(NodeEntry(key, value))
        self._size += 1
        return {target: self._codec.pack(entries)}

    def _storing_algorithm(
        self, contents: list[dict[int, bytes]]
    ) -> int | None:
        """Algorithm S: lowest node with free space on either path.

        Bucket contents are keyed in path order, leaf first, so scanning
        by height finds the node closest to the leaves; ties at equal
        height go to the less-loaded node.
        """
        paths = [list(bucket_contents) for bucket_contents in contents]
        path_length = self._params.shape.path_length
        for height in range(path_length):
            candidates: dict[int, int] = {}
            for path, bucket_contents in zip(paths, contents):
                node = path[height]
                if node in candidates:
                    continue
                load = len(self._codec.unpack(bucket_contents[node]))
                if load < self._codec.capacity:
                    candidates[node] = load
            if candidates:
                return min(candidates, key=lambda node: (candidates[node], node))
        return None
