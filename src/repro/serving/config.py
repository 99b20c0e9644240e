"""The serving run's configuration surface: one frozen dataclass.

Eight PRs of keyword sprawl (``executor=``, ``monitor=``, ``tracer=``,
``batch_window_ms=``, …) consolidated into :class:`ServingConfig`, the
documented way to parameterize :func:`repro.serve`::

    import repro
    from repro.serving import ServingConfig

    config = ServingConfig(clients=16, scheduler="continuous",
                           tenant_credits=4, seed=7)
    report = repro.serve("batch_dp_ir", config)

``serve()`` takes the config and nothing else (scheme-builder keywords
ride in ``build_kwargs``).  ``repro serve`` builds its config by field
name: each flag sets the field its dest names (``--requests`` sets
``requests_per_client``), and the field defaults are the flag defaults.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.serving.load import LoadGenerator
from repro.serving.schedulers import RequestScheduler, check_at_least_one
from repro.storage.network import NetworkModel


@dataclass(frozen=True)
class ServingConfig:
    """Everything a serving run needs besides the scheme itself.

    Attributes:
        clients: number of concurrent tenant sessions.
        requests_per_client: operations each session issues.
        scheduler: a scheduler name (``fifo`` / ``window`` /
            ``continuous``; legacy alias ``batch``) or a
            :class:`~repro.serving.schedulers.RequestScheduler` instance.
        batch_window_ms: batching window for the ``window`` scheduler.
        max_batch: dispatch group size cap (``window`` and
            ``continuous``).
        max_in_flight: concurrent dispatch groups for the
            ``continuous`` scheduler (its pipeline depth).
        tenant_credits: per-tenant outstanding-request cap for the
            ``continuous`` scheduler; ``None`` disables admission
            control for tenants.
        queue_cap: global pending-queue cap for the ``continuous``
            scheduler; ``None`` disables.
        load: ``"open"`` (Poisson at ``rate_rps`` per client),
            ``"closed"`` (think-time loop) or a
            :class:`~repro.serving.load.LoadGenerator` instance.
        rate_rps: per-client open-loop arrival rate.
        think_ms: mean closed-loop think time.
        workload: per-tenant trace shape (``uniform`` / ``zipf`` / …).
        n: database size / key capacity when building by name.
        seed: deterministic randomness; ``None`` uses system entropy.
        network: link model name or
            :class:`~repro.storage.network.NetworkModel`.
        backend: slot-storage backend name (``memory`` / ``network``)
            forwarded to the scheme builder; ``None`` keeps the scheme's
            default.
        value_size: KVS value budget when building by name.
        write_fraction: write share of the ``readwrite`` workload.
        executor: cross-shard fan-out pricing (``serial`` /
            ``parallel``) for cluster schemes.
        tracer: optional :class:`~repro.obs.tracer.Tracer`.
        metrics_registry: optional
            :class:`~repro.obs.metrics.MetricsRegistry`.
        monitor: attach online leakage monitors.
        build_kwargs: extra keyword arguments forwarded to the scheme's
            registered builder (``epsilon``, ``server_count``, …).
    """

    clients: int = 8
    requests_per_client: int = 32
    scheduler: RequestScheduler | str = "window"
    batch_window_ms: float = 2.0
    max_batch: int = 16
    max_in_flight: int = 4
    tenant_credits: int | None = None
    queue_cap: int | None = None
    load: LoadGenerator | str = "open"
    rate_rps: float = 100.0
    think_ms: float = 5.0
    workload: str = "uniform"
    n: int = 1024
    seed: int | bytes | str | None = None
    network: NetworkModel | str = "lan"
    backend: str | None = None
    value_size: int = 32
    write_fraction: float = 0.25
    executor: str | None = None
    tracer: Tracer | None = None
    metrics_registry: MetricsRegistry | None = None
    monitor: bool = False
    build_kwargs: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Every knob is checked here, whichever scheduler or load reads
        # it, so an out-of-range value fails even where it is unused.
        check_at_least_one(
            clients=self.clients,
            requests_per_client=self.requests_per_client,
            max_batch=self.max_batch,
            max_in_flight=self.max_in_flight,
            tenant_credits=self.tenant_credits,
            queue_cap=self.queue_cap,
        )
        if self.batch_window_ms < 0:
            raise ValueError(
                "batch_window_ms must be non-negative, got "
                f"{self.batch_window_ms}"
            )
        if self.rate_rps <= 0:
            raise ValueError(f"rate_rps must be positive, got {self.rate_rps}")
        if self.think_ms <= 0:
            raise ValueError(f"think_ms must be positive, got {self.think_ms}")

    def replace(self, **changes: Any) -> "ServingConfig":
        """A copy with ``changes`` applied (frozen-dataclass idiom)."""
        return dataclasses.replace(self, **changes)
