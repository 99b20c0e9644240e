"""Tree-shared buckets — the oblivious two-choice hashing of Section 7.2.

Padding every two-choice bin to its worst-case ``Θ(log log n)`` size wastes
``Θ(n log log n)`` server storage.  The paper instead arranges storage as
``Θ(n/log n)`` identical binary trees with ``Θ(log n)`` leaves each.  A
*bucket* is the set of nodes on the path from a leaf to its tree root
(``Θ(log log n)`` nodes of capacity ``t = Θ(1)`` blocks each) plus a single
client-resident *super root* shared by every bucket.  Sibling buckets share
their upper path nodes, which is what brings server storage down to
``O(n)``.

The storing algorithm ``S``: a key with leaf choices ``ℓ1, ℓ2`` is placed
into the lowest node (closest to the leaves) with free space on either
path; if both paths are full the key spills into the super root.
Theorem 7.2 shows the super root holds more than ``Φ(n) = ω(log n)`` keys
only with negligible probability — the level-occupancy argument tracked by
the ``β``-sequence of Lemma 7.3 (implemented in
:mod:`repro.analysis.tails`).

Two classes live here:

* :class:`TreeBucketLayout` — pure geometry: node ids, paths, heights.
* :class:`TreeOccupancySimulator` — a fast counters-only simulator of the
  insertion process for the Theorem 7.2 experiments (E9).

The full DP-KVS (values, encryption, DP-RAM transport) is assembled in
:mod:`repro.core.dp_kvs`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.crypto.rng import RandomSource
from repro.storage.errors import MappingOverflowError

SUPER_ROOT = -1
"""Sentinel "node id" marking placement into the client super root."""


@dataclass(frozen=True)
class TreeShape:
    """Geometry of the tree-shared bucket structure.

    Attributes:
        leaves_per_tree: leaves in each binary tree (a power of two,
            ``Θ(log n)``).
        tree_count: number of identical binary trees (``Θ(n/log n)``).
        depth: tree depth, so a leaf-to-root path has ``depth + 1`` nodes
            (``Θ(log log n)``).
        node_capacity: blocks per node (``t = Θ(1)``).
    """

    leaves_per_tree: int
    tree_count: int
    depth: int
    node_capacity: int

    @property
    def leaf_count(self) -> int:
        """Total leaves = number of buckets (≥ n by construction)."""
        return self.leaves_per_tree * self.tree_count

    @property
    def nodes_per_tree(self) -> int:
        """Nodes in one tree: ``2·leaves − 1``."""
        return 2 * self.leaves_per_tree - 1

    @property
    def total_nodes(self) -> int:
        """Server node count over all trees — ``Θ(n)``."""
        return self.nodes_per_tree * self.tree_count

    @property
    def path_length(self) -> int:
        """Nodes on a leaf-to-root path (``depth + 1``)."""
        return self.depth + 1

    @property
    def slots(self) -> int:
        """Total block slots on the server (``total_nodes · t``)."""
        return self.total_nodes * self.node_capacity

    @classmethod
    def for_capacity(
        cls,
        n: int,
        node_capacity: int = 4,
        leaves_per_tree: int | None = None,
    ) -> "TreeShape":
        """Compute the layout for ``n`` keys.

        ``leaves_per_tree`` defaults to the smallest power of two at least
        ``log₂ n``; the paper asks for exactly ``n`` leaves overall, we
        round the tree count up so ``leaf_count ≥ n`` (extra leaves only
        spread the load thinner: Theorem 7.2's super-root bound still holds).
        """
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        if node_capacity <= 0:
            raise ValueError(f"node capacity must be positive, got {node_capacity}")
        if leaves_per_tree is None:
            target = max(2, math.ceil(math.log2(max(n, 2))))
            leaves_per_tree = 1 << (target - 1).bit_length()
        if leaves_per_tree < 2 or leaves_per_tree & (leaves_per_tree - 1):
            raise ValueError(
                f"leaves_per_tree must be a power of two >= 2, got {leaves_per_tree}"
            )
        tree_count = max(1, math.ceil(n / leaves_per_tree))
        depth = leaves_per_tree.bit_length() - 1
        return cls(
            leaves_per_tree=leaves_per_tree,
            tree_count=tree_count,
            depth=depth,
            node_capacity=node_capacity,
        )


@dataclass(frozen=True)
class TreeBucketLayout:
    """Geometry of the tree-shared bucket structure.

    Node ids are global integers in ``[0, shape.total_nodes)``.  Within a
    tree, nodes use 1-based heap indexing (root = 1, children of ``h`` are
    ``2h`` and ``2h+1``, leaves occupy ``[leaves, 2·leaves)``); the global
    id of heap node ``h`` in tree ``τ`` is ``τ·nodes_per_tree + h − 1``.
    """

    shape: TreeShape

    @classmethod
    def for_capacity(
        cls,
        n: int,
        node_capacity: int = 4,
        leaves_per_tree: int | None = None,
    ) -> "TreeBucketLayout":
        """Build the layout for ``n`` keys (see :class:`TreeShape`)."""
        return cls(TreeShape.for_capacity(
            n, node_capacity=node_capacity, leaves_per_tree=leaves_per_tree
        ))

    @property
    def bucket_count(self) -> int:
        """Number of buckets (= leaves)."""
        return self.shape.leaf_count

    @property
    def node_count(self) -> int:
        """Number of server-resident nodes."""
        return self.shape.total_nodes

    def path_nodes(self, leaf: int) -> list[int]:
        """Global node ids on the path from ``leaf`` up to its tree root.

        Ordered leaf-first (height 0) so the storing algorithm can scan for
        the lowest free node by iterating in order.
        """
        if not 0 <= leaf < self.bucket_count:
            raise ValueError(
                f"leaf {leaf} out of range for {self.bucket_count} buckets"
            )
        leaves = self.shape.leaves_per_tree
        tree, offset = divmod(leaf, leaves)
        base = tree * self.shape.nodes_per_tree
        heap = leaves + offset
        path = []
        while heap >= 1:
            path.append(base + heap - 1)
            heap //= 2
        return path

    def node_height(self, node: int) -> int:
        """Height of a global node id: 0 at leaves, ``depth`` at tree roots."""
        if not 0 <= node < self.node_count:
            raise ValueError(f"node {node} out of range")
        heap = node % self.shape.nodes_per_tree + 1
        level = heap.bit_length() - 1  # 0 at the root
        return self.shape.depth - level

    def nodes_at_height(self, height: int) -> int:
        """How many nodes exist at ``height`` across all trees."""
        if not 0 <= height <= self.shape.depth:
            raise ValueError(f"height {height} out of range")
        per_tree = 1 << (self.shape.depth - height)
        return per_tree * self.shape.tree_count

    def all_buckets(self) -> list[tuple[int, ...]]:
        """The bucket table: bucket id → tuple of node ids, leaf-first."""
        return [tuple(self.path_nodes(leaf)) for leaf in range(self.bucket_count)]


class TreeOccupancySimulator:
    """Counters-only simulation of the storing algorithm ``S``.

    Tracks how many of each node's ``t`` slots are used, plus the super
    root, without materializing keys or values.  Used by experiment E9 to
    check Theorem 7.2 (super-root occupancy) and Lemma 7.4 (level
    occupancies dominated by the β-sequence) at sizes where running the
    full DP-KVS would be slow.
    """

    def __init__(self, layout: TreeBucketLayout, super_root_capacity: int | None = None) -> None:
        self._layout = layout
        self._capacity = layout.shape.node_capacity
        self._used = [0] * layout.node_count
        self._super_root = 0
        self._super_root_capacity = super_root_capacity
        self._insertions = 0

    @property
    def layout(self) -> TreeBucketLayout:
        """The underlying geometry."""
        return self._layout

    @property
    def super_root_load(self) -> int:
        """Keys currently spilled into the client super root."""
        return self._super_root

    @property
    def insertions(self) -> int:
        """Total keys inserted."""
        return self._insertions

    def insert(self, leaf_a: int, leaf_b: int) -> int:
        """Insert one key with bucket choices ``leaf_a, leaf_b``.

        Returns the global node id that received the key, or
        :data:`SUPER_ROOT`.

        Raises:
            MappingOverflowError: if the super root is needed but already
                at its configured capacity (Theorem 7.2 says this is a
                negligible-probability event).
        """
        path_a = self._layout.path_nodes(leaf_a)
        path_b = self._layout.path_nodes(leaf_b)
        target = self._lowest_free_node(path_a, path_b)
        if target is None:
            if (
                self._super_root_capacity is not None
                and self._super_root >= self._super_root_capacity
            ):
                raise MappingOverflowError(
                    f"super root capacity {self._super_root_capacity} exhausted "
                    f"after {self._insertions} insertions"
                )
            self._super_root += 1
            self._insertions += 1
            return SUPER_ROOT
        self._used[target] += 1
        self._insertions += 1
        return target

    def insert_random(self, rng: RandomSource) -> int:
        """Insert one key with uniformly random bucket choices."""
        buckets = self._layout.bucket_count
        return self.insert(rng.randbelow(buckets), rng.randbelow(buckets))

    def node_load(self, node: int) -> int:
        """Slots used at ``node``."""
        return self._used[node]

    def filled_nodes_at_height(self, height: int) -> int:
        """Number of *completely full* nodes at ``height`` — the ``H_i``
        of the Theorem 7.2 proof."""
        count = 0
        for node, used in enumerate(self._used):
            if used >= self._capacity and self._layout.node_height(node) == height:
                count += 1
        return count

    def level_occupancy(self) -> list[int]:
        """``H_i`` for every height ``i`` (index = height)."""
        depth = self._layout.shape.depth
        filled = [0] * (depth + 1)
        for node, used in enumerate(self._used):
            if used >= self._capacity:
                filled[self._layout.node_height(node)] += 1
        return filled

    def total_slots_used(self) -> int:
        """Keys resident in server nodes (excludes the super root)."""
        return sum(self._used)

    def _lowest_free_node(self, path_a: list[int], path_b: list[int]) -> int | None:
        """The storing algorithm ``S``: lowest node with space on either path.

        Paths are leaf-first, so position ``h`` in a path is the node at
        height ``h``; ties at equal height go to the less-loaded node, then
        to the first path (the analysis is insensitive to the tie rule).
        """
        for height in range(len(path_a)):
            node_a, node_b = path_a[height], path_b[height]
            candidates = [
                node for node in dict.fromkeys((node_a, node_b))
                if self._used[node] < self._capacity
            ]
            if candidates:
                return min(candidates, key=lambda node: self._used[node])
        return None
