"""The cluster run's configuration surface: one frozen dataclass.

Mirrors :class:`repro.serving.config.ServingConfig` for the deployment
layer: every knob ``cluster()`` grew across PRs (executor, batching,
fault coins, trace/metrics sinks, budget timeline, monitors) lives on
:class:`ClusterConfig`, the documented way to parameterize
:func:`repro.cluster`::

    import repro
    from repro.cluster import ClusterConfig

    config = ClusterConfig(shards=4, replicas=2, seed=7)
    report = repro.cluster("dp_ir", config)

``cluster()`` takes the config and nothing else (base-scheme builder
keywords ride in ``base_kwargs``).  ``repro cluster`` and ``repro audit``
build their configs by field name: each flag sets the field its dest
names (``--no-auth`` clears ``authenticated``), and the field defaults
are the flag defaults unless the command overrides one.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.obs.timeline import BudgetTimeline
from repro.obs.tracer import Tracer
from repro.simulation.metrics import DEFAULT_PERCENTILES
from repro.storage.blocks import DEFAULT_BLOCK_SIZE


@dataclass(frozen=True)
class ClusterConfig:
    """Everything a cluster run needs besides the base-scheme name.

    Attributes:
        shards: number of shard groups ``D``.
        replicas: replicas per group ``R``.
        n: logical database size / key capacity.
        requests: operations to drive through the cluster.
        workload: trace shape (``uniform`` / ``zipf`` / ``ycsb-a`` …).
        placement: ``"range"`` or ``"hash"`` (IR clusters).
        epsilon: cluster-wide privacy target (IR; default ``ln n``).
        pad_size: explicit global pad size ``K`` (IR alternative).
        alpha: per-query error probability of the IR base instances.
        authenticated: authenticated storage encryption (IR).
        failure_rate: flaky-node rate, scalar or per-replica sequence.
        corruption_rate: bit-flip rate, scalar or per-replica.
        block_size: record bytes for IR databases.
        value_size: KVS value budget.
        seed: deterministic randomness; ``None`` uses system entropy.
        network: link model pricing server operations into simulated
            ms; a ``network`` backend's replicas run over it.
        backend: per-replica slot-storage backend name (``memory`` /
            ``network``); ``None`` keeps the in-memory default.
        executor: cross-shard fan-out pricing (``serial`` /
            ``parallel``).
        batch: requests dispatched per round through the batched entry
            points.
        percentiles: quantile fractions for the report's tail set.
        tracer: optional :class:`~repro.obs.tracer.Tracer`.
        metrics_registry: optional
            :class:`~repro.obs.metrics.MetricsRegistry`.
        timeline: optional :class:`~repro.obs.timeline.BudgetTimeline`
            receiving one exact spend event per ledger charge.
        fault_coin_mode: ``"per_slot"`` or ``"per_round"``.
        monitor: attach online leakage monitors.
        base_kwargs: extra keyword arguments forwarded to the base
            scheme's builder.
    """

    shards: int = 4
    replicas: int = 2
    n: int = 1024
    requests: int = 256
    workload: str = "uniform"
    placement: str = "range"
    epsilon: float | None = None
    pad_size: int | None = None
    alpha: float = 0.05
    authenticated: bool = True
    failure_rate: float | Sequence[float] = 0.0
    corruption_rate: float | Sequence[float] = 0.0
    block_size: int = DEFAULT_BLOCK_SIZE
    value_size: int = 32
    seed: int | bytes | str | None = None
    network: str = "lan"
    backend: str | None = None
    executor: str | None = None
    batch: int = 1
    percentiles: Sequence[float] = DEFAULT_PERCENTILES
    tracer: Tracer | None = None
    metrics_registry: MetricsRegistry | None = None
    timeline: BudgetTimeline | None = None
    fault_coin_mode: str = "per_slot"
    monitor: bool = False
    base_kwargs: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError(
                f"requests must be at least 1, got {self.requests}"
            )
        if self.batch < 1:
            raise ValueError(f"batch must be at least 1, got {self.batch}")

    def replace(self, **changes: Any) -> "ClusterConfig":
        """A copy with ``changes`` applied (frozen-dataclass idiom)."""
        return dataclasses.replace(self, **changes)
