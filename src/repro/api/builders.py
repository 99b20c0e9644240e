"""Stock builders: every core and baseline scheme, registered by name.

Builders translate deployment-level keyword arguments into scheme
constructor calls:

* ``n`` — database size (IR/RAM) or key capacity (KVS).
* ``block_size`` — record size in bytes for index-addressed schemes.
* ``blocks`` — an explicit initial database (overrides ``n``/``block_size``;
  ``n`` then defaults to ``len(blocks)``).
* ``seed`` — deterministic randomness (mutually exclusive with ``rng``).
* ``backend`` — ``"memory"`` (default), ``"network"``, or any
  :data:`~repro.storage.backends.BackendFactory`.
* ``network`` — ``"lan"`` / ``"wan"`` / ``"mobile"`` or a
  :class:`~repro.storage.network.NetworkModel`; implies
  ``backend="network"``.

Scheme-specific knobs (``epsilon``, ``alpha``, ``phi``, ``value_size``,
``server_count``, …) pass straight through to the constructors.
"""

from __future__ import annotations

import math
from functools import partial
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:
    from repro.cluster.scheme import ClusterIR, ClusterKVS

from repro.api.registry import register_scheme
from repro.baselines.linear_pir import LinearScanPIR
from repro.baselines.oram_kvs import ORAMKeyValueStore
from repro.baselines.path_oram import PathORAM
from repro.baselines.plaintext import PlaintextKVS, PlaintextRAM
from repro.baselines.recursive_oram import RecursivePathORAM
from repro.core.batch_ir import BatchDPIR
from repro.core.bucket_ram import BucketDPRAM
from repro.core.dp_ir import DPIR
from repro.core.dp_kvs import DPKVS
from repro.core.dp_ram import DPRAM, ReadOnlyDPRAM
from repro.core.multi_server import MultiServerDPIR
from repro.core.sharded_ir import ShardedDPIR
from repro.core.strawman import StrawmanIR
from repro.crypto.rng import RandomSource, SeededRandomSource, SystemRandomSource
from repro.storage.backends import BackendFactory, NetworkBackendFactory
from repro.storage.blocks import DEFAULT_BLOCK_SIZE, integer_database
from repro.storage.network import LAN, MOBILE, WAN, NetworkModel

_NETWORKS = {"lan": LAN, "wan": WAN, "mobile": MOBILE}


def resolve_network(network: NetworkModel | str) -> NetworkModel:
    """Map a link name (``lan``/``wan``/``mobile``) to its model."""
    if isinstance(network, NetworkModel):
        return network
    try:
        return _NETWORKS[network.lower()]
    except KeyError:
        known = ", ".join(sorted(_NETWORKS))
        raise ValueError(
            f"unknown network {network!r}; expected one of {known} "
            "or a NetworkModel"
        ) from None


def resolve_backend(
    backend: BackendFactory | str | None,
    network: NetworkModel | str | None = None,
) -> BackendFactory | None:
    """Turn the ``backend``/``network`` kwargs into a backend factory.

    An explicit ``backend="memory"`` always keeps the in-memory default
    (even when a ``network`` is also given); ``backend="network"`` — or
    a ``network`` argument with ``backend`` unset — builds a
    :class:`~repro.storage.backends.NetworkBackendFactory`, so every
    server's backend accounts its own simulated link time.
    """
    if backend == "memory":
        return None
    if backend is None:
        if network is None:
            return None
        return NetworkBackendFactory(resolve_network(network))
    if backend == "network":
        return NetworkBackendFactory(resolve_network(network or WAN))
    if isinstance(backend, str):
        raise ValueError(
            f"unknown backend {backend!r}; expected 'memory', 'network' "
            "or a backend factory"
        )
    return backend


def _resolve_rng(
    rng: RandomSource | None, seed: int | bytes | str | None
) -> RandomSource:
    if rng is not None and seed is not None:
        raise ValueError("provide at most one of rng and seed")
    if rng is not None:
        return rng
    if seed is not None:
        return SeededRandomSource(seed)
    return SystemRandomSource()


def _resolve_blocks(
    n: int | None,
    block_size: int,
    blocks: Sequence[bytes] | None,
) -> list[bytes]:
    if blocks is not None:
        return [bytes(block) for block in blocks]
    return integer_database(n if n is not None else 1024, block_size)


def _default_epsilon(data: Sequence[bytes]) -> float:
    """The ``eps = ln n`` sweet spot (constant bandwidth, Theorem 3.4)."""
    return math.log(max(len(data), 2))


@register_scheme("dp_ir", kind="ir",
                 summary="Algorithm 1: single-server ε-DP-IR with error α")
def build_dp_ir(
    *,
    n: int | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    blocks: Sequence[bytes] | None = None,
    epsilon: float | None = None,
    pad_size: int | None = None,
    alpha: float = 0.05,
    seed: int | bytes | str | None = None,
    rng: RandomSource | None = None,
    backend: BackendFactory | str | None = None,
    network: NetworkModel | str | None = None,
) -> DPIR:
    """Build a :class:`~repro.core.dp_ir.DPIR` (ε defaults to ``ln n``)."""
    data = _resolve_blocks(n, block_size, blocks)
    if epsilon is None and pad_size is None:
        epsilon = _default_epsilon(data)
    return DPIR(
        data,
        epsilon=epsilon,
        pad_size=pad_size,
        alpha=alpha,
        rng=_resolve_rng(rng, seed),
        backend_factory=resolve_backend(backend, network),
    )


@register_scheme("batch_dp_ir", kind="ir",
                 summary="DP-IR batching independent queries into one round")
def build_batch_dp_ir(
    *,
    n: int | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    blocks: Sequence[bytes] | None = None,
    epsilon: float | None = None,
    pad_size: int | None = None,
    alpha: float = 0.05,
    seed: int | bytes | str | None = None,
    rng: RandomSource | None = None,
    backend: BackendFactory | str | None = None,
    network: NetworkModel | str | None = None,
) -> BatchDPIR:
    """Build a :class:`~repro.core.batch_ir.BatchDPIR`."""
    data = _resolve_blocks(n, block_size, blocks)
    if epsilon is None and pad_size is None:
        epsilon = _default_epsilon(data)
    return BatchDPIR(
        data,
        epsilon=epsilon,
        pad_size=pad_size,
        alpha=alpha,
        rng=_resolve_rng(rng, seed),
        backend_factory=resolve_backend(backend, network),
    )


@register_scheme("multi_server_dp_ir", kind="ir",
                 summary="Appendix C replicated DP-IR over non-colluding servers")
def build_multi_server_dp_ir(
    *,
    n: int | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    blocks: Sequence[bytes] | None = None,
    server_count: int = 2,
    epsilon: float | None = None,
    pad_size: int | None = None,
    alpha: float = 0.05,
    seed: int | bytes | str | None = None,
    rng: RandomSource | None = None,
    backend: BackendFactory | str | None = None,
    network: NetworkModel | str | None = None,
    executor: Any = None,
) -> MultiServerDPIR:
    """Build a :class:`~repro.core.multi_server.MultiServerDPIR`."""
    data = _resolve_blocks(n, block_size, blocks)
    if epsilon is None and pad_size is None:
        epsilon = _default_epsilon(data)
    return MultiServerDPIR(
        data,
        server_count=server_count,
        epsilon=epsilon,
        pad_size=pad_size,
        alpha=alpha,
        rng=_resolve_rng(rng, seed),
        backend_factory=resolve_backend(backend, network),
        executor=executor,
    )


@register_scheme("sharded_dp_ir", kind="ir",
                 summary="DP-IR over contiguous shards (n/D storage per server)")
def build_sharded_dp_ir(
    *,
    n: int | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    blocks: Sequence[bytes] | None = None,
    shard_count: int = 2,
    epsilon: float | None = None,
    pad_size: int | None = None,
    alpha: float = 0.05,
    seed: int | bytes | str | None = None,
    rng: RandomSource | None = None,
    backend: BackendFactory | str | None = None,
    network: NetworkModel | str | None = None,
) -> ShardedDPIR:
    """Build a :class:`~repro.core.sharded_ir.ShardedDPIR`."""
    data = _resolve_blocks(n, block_size, blocks)
    if epsilon is None and pad_size is None:
        epsilon = _default_epsilon(data)
    return ShardedDPIR(
        data,
        shard_count=shard_count,
        epsilon=epsilon,
        pad_size=pad_size,
        alpha=alpha,
        rng=_resolve_rng(rng, seed),
        backend_factory=resolve_backend(backend, network),
    )


@register_scheme("strawman_ir", kind="ir",
                 summary="the insecure Section 4 strawman (demo only)")
def build_strawman_ir(
    *,
    n: int | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    blocks: Sequence[bytes] | None = None,
    seed: int | bytes | str | None = None,
    rng: RandomSource | None = None,
    backend: BackendFactory | str | None = None,
    network: NetworkModel | str | None = None,
) -> StrawmanIR:
    """Build a :class:`~repro.core.strawman.StrawmanIR`."""
    return StrawmanIR(
        _resolve_blocks(n, block_size, blocks),
        rng=_resolve_rng(rng, seed),
        backend_factory=resolve_backend(backend, network),
    )


@register_scheme("linear_pir", kind="ir",
                 summary="errorless oblivious IR scanning all n records")
def build_linear_pir(
    *,
    n: int | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    blocks: Sequence[bytes] | None = None,
    backend: BackendFactory | str | None = None,
    network: NetworkModel | str | None = None,
    seed: int | bytes | str | None = None,
    rng: RandomSource | None = None,
) -> LinearScanPIR:
    """Build a :class:`~repro.baselines.linear_pir.LinearScanPIR`."""
    del seed, rng  # accepted for uniformity; the scheme is deterministic
    return LinearScanPIR(
        _resolve_blocks(n, block_size, blocks),
        backend_factory=resolve_backend(backend, network),
    )


@register_scheme("dp_ram", kind="ram",
                 summary="Algorithms 2-3: errorless DP-RAM, <= 3 blocks/query")
def build_dp_ram(
    *,
    n: int | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    blocks: Sequence[bytes] | None = None,
    stash_probability: float | None = None,
    phi: int | None = None,
    seed: int | bytes | str | None = None,
    rng: RandomSource | None = None,
    backend: BackendFactory | str | None = None,
    network: NetworkModel | str | None = None,
) -> DPRAM:
    """Build a :class:`~repro.core.dp_ram.DPRAM`."""
    return DPRAM(
        _resolve_blocks(n, block_size, blocks),
        stash_probability=stash_probability,
        phi=phi,
        rng=_resolve_rng(rng, seed),
        backend_factory=resolve_backend(backend, network),
    )


@register_scheme("read_only_dp_ram", kind="ram",
                 summary="encryption-free DP-RAM for public read-only data")
def build_read_only_dp_ram(
    *,
    n: int | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    blocks: Sequence[bytes] | None = None,
    stash_probability: float | None = None,
    phi: int | None = None,
    seed: int | bytes | str | None = None,
    rng: RandomSource | None = None,
    backend: BackendFactory | str | None = None,
    network: NetworkModel | str | None = None,
) -> ReadOnlyDPRAM:
    """Build a :class:`~repro.core.dp_ram.ReadOnlyDPRAM`."""
    return ReadOnlyDPRAM(
        _resolve_blocks(n, block_size, blocks),
        stash_probability=stash_probability,
        phi=phi,
        rng=_resolve_rng(rng, seed),
        backend_factory=resolve_backend(backend, network),
    )


@register_scheme("bucket_dp_ram", kind="ram",
                 summary="Appendix E bucket DP-RAM (single-node buckets)")
def build_bucket_dp_ram(
    *,
    n: int | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    blocks: Sequence[bytes] | None = None,
    buckets: Sequence[tuple[int, ...]] | None = None,
    stash_probability: float = 0.05,
    seed: int | bytes | str | None = None,
    rng: RandomSource | None = None,
    backend: BackendFactory | str | None = None,
    network: NetworkModel | str | None = None,
) -> BucketDPRAM:
    """Build a :class:`~repro.core.bucket_ram.BucketDPRAM`.

    Without an explicit repertoire this uses one single-node bucket per
    record, the degenerate instance equivalent to the Section 6 scheme.
    """
    data = _resolve_blocks(n, block_size, blocks)
    if buckets is None:
        buckets = [(i,) for i in range(len(data))]
    return BucketDPRAM(
        data,
        buckets,
        stash_probability=stash_probability,
        rng=_resolve_rng(rng, seed),
        backend_factory=resolve_backend(backend, network),
    )


@register_scheme("plaintext_ram", kind="ram",
                 summary="direct access, no privacy (the overhead denominator)")
def build_plaintext_ram(
    *,
    n: int | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    blocks: Sequence[bytes] | None = None,
    backend: BackendFactory | str | None = None,
    network: NetworkModel | str | None = None,
    seed: int | bytes | str | None = None,
    rng: RandomSource | None = None,
) -> PlaintextRAM:
    """Build a :class:`~repro.baselines.plaintext.PlaintextRAM`."""
    del seed, rng  # accepted for uniformity; the scheme is deterministic
    return PlaintextRAM(
        _resolve_blocks(n, block_size, blocks),
        backend_factory=resolve_backend(backend, network),
    )


@register_scheme("path_oram", kind="ram",
                 summary="Path ORAM [48], the Θ(log n)-overhead comparator")
def build_path_oram(
    *,
    n: int | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    blocks: Sequence[bytes] | None = None,
    bucket_size: int = 4,
    seed: int | bytes | str | None = None,
    rng: RandomSource | None = None,
    backend: BackendFactory | str | None = None,
    network: NetworkModel | str | None = None,
) -> PathORAM:
    """Build a :class:`~repro.baselines.path_oram.PathORAM`."""
    return PathORAM(
        _resolve_blocks(n, block_size, blocks),
        bucket_size=bucket_size,
        rng=_resolve_rng(rng, seed),
        backend_factory=resolve_backend(backend, network),
    )


@register_scheme("recursive_path_oram", kind="ram",
                 summary="Path ORAM with recursively outsourced position maps")
def build_recursive_path_oram(
    *,
    n: int | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    blocks: Sequence[bytes] | None = None,
    positions_per_block: int = 8,
    client_map_limit: int = 64,
    bucket_size: int = 4,
    seed: int | bytes | str | None = None,
    rng: RandomSource | None = None,
    backend: BackendFactory | str | None = None,
    network: NetworkModel | str | None = None,
) -> RecursivePathORAM:
    """Build a :class:`~repro.baselines.recursive_oram.RecursivePathORAM`."""
    return RecursivePathORAM(
        _resolve_blocks(n, block_size, blocks),
        positions_per_block=positions_per_block,
        client_map_limit=client_map_limit,
        bucket_size=bucket_size,
        rng=_resolve_rng(rng, seed),
        backend_factory=resolve_backend(backend, network),
    )


@register_scheme("dp_kvs", kind="kvs",
                 summary="Section 7 DP key-value store, O(log log n) overhead")
def build_dp_kvs(
    *,
    n: int = 1024,
    key_size: int = 16,
    value_size: int = 32,
    node_capacity: int = 4,
    phi: int | None = None,
    leaves_per_tree: int | None = None,
    enforce_super_root_capacity: bool = False,
    seed: int | bytes | str | None = None,
    rng: RandomSource | None = None,
    backend: BackendFactory | str | None = None,
    network: NetworkModel | str | None = None,
) -> DPKVS:
    """Build a :class:`~repro.core.dp_kvs.DPKVS`."""
    return DPKVS(
        n,
        key_size=key_size,
        value_size=value_size,
        node_capacity=node_capacity,
        phi=phi,
        leaves_per_tree=leaves_per_tree,
        enforce_super_root_capacity=enforce_super_root_capacity,
        rng=_resolve_rng(rng, seed),
        backend_factory=resolve_backend(backend, network),
    )


@register_scheme("oram_kvs", kind="kvs",
                 summary="oblivious KVS on Path ORAM, the pre-DP state of the art")
def build_oram_kvs(
    *,
    n: int = 1024,
    key_size: int = 16,
    value_size: int = 32,
    bucket_capacity: int | None = None,
    seed: int | bytes | str | None = None,
    rng: RandomSource | None = None,
    backend: BackendFactory | str | None = None,
    network: NetworkModel | str | None = None,
) -> ORAMKeyValueStore:
    """Build a :class:`~repro.baselines.oram_kvs.ORAMKeyValueStore`."""
    return ORAMKeyValueStore(
        n,
        key_size=key_size,
        value_size=value_size,
        bucket_capacity=bucket_capacity,
        rng=_resolve_rng(rng, seed),
        backend_factory=resolve_backend(backend, network),
    )


def _build_cluster_ir(
    base: str,
    *,
    n: int | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    blocks: Sequence[bytes] | None = None,
    shard_count: int = 2,
    replica_count: int = 2,
    placement: str = "range",
    epsilon: float | None = None,
    pad_size: int | None = None,
    alpha: float = 0.05,
    authenticated: bool = True,
    failure_rate: float | Sequence[float] = 0.0,
    corruption_rate: float | Sequence[float] = 0.0,
    seed: int | bytes | str | None = None,
    rng: RandomSource | None = None,
    backend: BackendFactory | str | None = None,
    network: NetworkModel | str | None = None,
    executor: Any = None,
    fault_coin_mode: str = "per_slot",
) -> "ClusterIR":
    """Build a :class:`~repro.cluster.scheme.ClusterIR` over ``base``."""
    from repro.cluster.scheme import ClusterIR

    return ClusterIR(
        _resolve_blocks(n, block_size, blocks),
        base=base,
        shard_count=shard_count,
        replica_count=replica_count,
        placement=placement,
        epsilon=epsilon,
        pad_size=pad_size,
        alpha=alpha,
        authenticated=authenticated,
        failure_rate=failure_rate,
        corruption_rate=corruption_rate,
        rng=_resolve_rng(rng, seed),
        backend_factory=resolve_backend(backend, network),
        executor=executor,
        fault_coin_mode=fault_coin_mode,
    )


# Partials, so each builder's signature names every keyword it takes.
register_scheme("cluster_dp_ir", kind="ir",
                summary="N shard groups x R replicas of DP-IR with failover")(
    partial(_build_cluster_ir, "dp_ir"))
register_scheme("cluster_batch_dp_ir", kind="ir",
                summary="sharded+replicated BatchDPIR (batching compounds "
                        "with sharding)")(
    partial(_build_cluster_ir, "batch_dp_ir"))


@register_scheme("cluster_dp_kvs", kind="kvs",
                 summary="sharded+replicated DP-KVS with fail-stop failover")
def build_cluster_dp_kvs(
    *,
    n: int = 1024,
    value_size: int = 32,
    shard_count: int = 2,
    replica_count: int = 2,
    capacity_slack: float = 1.5,
    failure_rate: float | Sequence[float] = 0.0,
    corruption_rate: float | Sequence[float] = 0.0,
    seed: int | bytes | str | None = None,
    rng: RandomSource | None = None,
    backend: BackendFactory | str | None = None,
    network: NetworkModel | str | None = None,
    executor: Any = None,
    fault_coin_mode: str = "per_slot",
) -> "ClusterKVS":
    """Build a :class:`~repro.cluster.scheme.ClusterKVS` over ``dp_kvs``."""
    from repro.cluster.scheme import ClusterKVS

    return ClusterKVS(
        n,
        base="dp_kvs",
        shard_count=shard_count,
        replica_count=replica_count,
        value_size=value_size,
        capacity_slack=capacity_slack,
        failure_rate=failure_rate,
        corruption_rate=corruption_rate,
        executor=executor,
        fault_coin_mode=fault_coin_mode,
        rng=_resolve_rng(rng, seed),
        backend_factory=resolve_backend(backend, network),
    )


@register_scheme("plaintext_kvs", kind="kvs",
                 summary="direct-access KVS, no privacy (overhead denominator)")
def build_plaintext_kvs(
    *,
    n: int = 1024,
    value_size: int = 32,
    backend: BackendFactory | str | None = None,
    network: NetworkModel | str | None = None,
    seed: int | bytes | str | None = None,
    rng: RandomSource | None = None,
) -> PlaintextKVS:
    """Build a :class:`~repro.baselines.plaintext.PlaintextKVS`."""
    del seed, rng  # accepted for uniformity; the scheme is deterministic
    return PlaintextKVS(
        n,
        value_size=value_size,
        backend_factory=resolve_backend(backend, network),
    )
