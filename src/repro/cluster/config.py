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
keywords ride in ``base_kwargs``); the CLI builds configs via
:meth:`ClusterConfig.from_cli_args`.
"""

from __future__ import annotations

import argparse
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
        network: link model pricing server operations into simulated ms.
        backend: per-replica slot-storage backend name (``memory`` /
            ``slab`` / ``network``); ``None`` keeps the in-memory
            default.
        executor: cross-shard fan-out policy (``serial`` / ``parallel``
            / ``simulated``).
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

    @classmethod
    def from_cli_args(
        cls,
        args: argparse.Namespace,
        *,
        tracer: Tracer | None = None,
        metrics_registry: MetricsRegistry | None = None,
        timeline: BudgetTimeline | None = None,
    ) -> "ClusterConfig":
        """Build a config from the ``repro cluster``/``audit`` namespace.

        Flags absent from a subcommand (``repro audit`` has no
        ``--placement``, ``--no-auth``, fault-rate or ``--monitor``
        flags) fall back to the field defaults, so both CLIs share one
        construction path.
        """
        return cls(
            shards=args.shards,
            replicas=args.replicas,
            n=args.n,
            requests=args.requests,
            workload=args.workload,
            placement=getattr(args, "placement", "range"),
            epsilon=args.epsilon,
            pad_size=args.pad_size,
            alpha=getattr(args, "alpha", 0.05),
            authenticated=not getattr(args, "no_auth", False),
            failure_rate=getattr(args, "failure_rate", 0.0),
            corruption_rate=getattr(args, "corruption_rate", 0.0),
            value_size=getattr(args, "value_size", 32),
            seed=args.seed,
            network=getattr(args, "network", "lan"),
            backend=getattr(args, "backend", None),
            executor=args.executor,
            batch=args.batch,
            tracer=tracer,
            metrics_registry=metrics_registry,
            timeline=timeline,
            fault_coin_mode=getattr(args, "fault_coins", "per_slot"),
            monitor=getattr(args, "monitor", False),
        )
