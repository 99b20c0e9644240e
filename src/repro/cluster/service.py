"""``cluster()``: registry-driven construction and run of a deployment.

The one-call entry point behind ``repro.cluster`` and the
``python -m repro cluster`` CLI subcommand: build a sharded + replicated
cluster around any registered IR or KVS base scheme, drive a workload
trace through it, and report ops/request, tail latency and simulated
time (priced by :class:`~repro.simulation.metrics.CostMeter`),
per-shard load balance, failover totals and the cluster-wide privacy
budget::

    import repro
    from repro.cluster import ClusterConfig

    report = repro.cluster("dp_ir", ClusterConfig(shards=4, replicas=2,
                                                  seed=7))
    print(report.to_text())
    print(report.ops_per_request, report.budget.per_query_epsilon)

The config is the only calling convention: ``cluster`` takes no keywords
(base-scheme builder keywords go in ``ClusterConfig.base_kwargs``).
"""

from __future__ import annotations

from repro.api.registry import resolve_scheme_name, scheme_spec
from repro.cluster.config import ClusterConfig
from repro.cluster.report import (
    ClusterReport,
    ShardReport,
    extra_percentiles,
    jain_index,
)
from repro.cluster.scheme import ClusterIR, ClusterKVS
from repro.crypto.rng import SeededRandomSource, SystemRandomSource
from repro.obs.instrument import instrument_scheme
from repro.obs.metrics import collect_scheme_metrics
from repro.obs.monitor import SchemeWatch, default_monitors, watch_scheme
from repro.simulation.harness import run_trace
from repro.simulation.metrics import LatencySummary
from repro.storage.blocks import integer_database
from repro.storage.faults import scheme_fault_counters
from repro.workloads import catalogue


def cluster(
    scheme: str = "dp_ir",
    config: ClusterConfig | None = None,
    /,
) -> ClusterReport:
    """Run a workload against a sharded + replicated cluster.

    Args:
        scheme: registry name of the *base* scheme each shard group
            hosts (IR or KVS; hyphenated aliases accepted).
        config: the run's :class:`~repro.cluster.config.ClusterConfig`
            (the defaults when omitted); see the config class for every
            knob (shards, replicas, fault rates, executor, batching,
            observability sinks, …).  Keywords for the base scheme's
            builder go in its ``base_kwargs``.

    Returns:
        The run's :class:`~repro.cluster.report.ClusterReport`.
    """
    if config is None:
        config = ClusterConfig()
    from repro.api.builders import resolve_backend, resolve_network

    base = resolve_scheme_name(scheme)
    spec = scheme_spec(base)
    if spec.kind == "ram":
        raise ValueError(
            f"cluster bases must be IR or KVS schemes; {base!r} is RAM"
        )
    root = (
        SeededRandomSource(config.seed) if config.seed is not None
        else SystemRandomSource()
    )
    model = resolve_network(config.network)
    base_kwargs = dict(config.base_kwargs)
    if config.backend is not None:
        # Resolved once, with the link the report names: every replica
        # builder gets the same factory (a "network" one runs over
        # ``model``, not the builders' WAN default).
        base_kwargs.setdefault(
            "backend_factory", resolve_backend(config.backend, model)
        )

    # The IR cluster serves integer_database(n): the reference model's
    # seed.  A KVS starts empty.
    initial: list[bytes] | None = None
    if spec.kind == "ir":
        initial = integer_database(config.n, config.block_size)
        instance = ClusterIR(
            initial,
            base=base,
            shard_count=config.shards,
            replica_count=config.replicas,
            placement=config.placement,
            epsilon=config.epsilon,
            pad_size=config.pad_size,
            alpha=config.alpha,
            authenticated=config.authenticated,
            failure_rate=config.failure_rate,
            corruption_rate=config.corruption_rate,
            rng=root.spawn("cluster"),
            executor=config.executor,
            tracer=config.tracer,
            fault_coin_mode=config.fault_coin_mode,
            **base_kwargs,
        )
        trace = catalogue.index_trace(
            config.workload, config.n, config.requests, root.spawn("trace"),
            write_fraction=0.0,
        )
    else:
        instance = ClusterKVS(
            config.n,
            base=base,
            shard_count=config.shards,
            replica_count=config.replicas,
            value_size=config.value_size,
            failure_rate=config.failure_rate,
            corruption_rate=config.corruption_rate,
            rng=root.spawn("cluster"),
            executor=config.executor,
            tracer=config.tracer,
            fault_coin_mode=config.fault_coin_mode,
            **base_kwargs,
        )
        # kv_trace itself aliases index-workload names to their KV analogue.
        trace = catalogue.kv_trace(
            config.workload, config.n, config.requests, root.spawn("trace"),
            value_size=config.value_size,
        )

    if config.tracer is not None or config.metrics_registry is not None:
        instrument_scheme(
            instance, tracer=config.tracer, registry=config.metrics_registry
        )
    if config.timeline is not None:
        instance.ledger.attach_timeline(config.timeline)
    watch: SchemeWatch | None = None
    if config.monitor:
        watch = watch_scheme(
            instance,
            default_monitors(instance, rng=root.spawn("monitor")),
        )

    try:
        metrics = run_trace(
            instance, trace, initial, batch=config.batch, network=model
        )
    finally:
        if watch is not None:
            watch.unwatch()

    if config.metrics_registry is not None:
        collect_scheme_metrics(instance, config.metrics_registry)
    loads = instance.shard_loads()
    budget = instance.ledger.report()
    assignment = instance.router.assignment() if spec.kind == "ir" else None
    shard_reports = []
    for shard, group in enumerate(instance.groups):
        shard_reports.append(ShardReport(
            shard=shard,
            records=(
                len(assignment[shard]) if assignment is not None
                else group.replicas[0].n
            ),
            queries=instance.shard_query_counts()[shard],
            server_operations=loads[shard],
            failovers=group.failovers,
            epsilon_spent=budget.per_shard[shard].basic_epsilon,
        ))

    return ClusterReport(
        scheme=type(instance).__name__,
        base=base,
        placement=instance.router.policy if spec.kind == "ir" else "hash",
        shards=config.shards,
        replicas=config.replicas,
        n=config.n,
        requests=len(trace),
        completed=metrics.operations,
        errors=metrics.errors,
        mismatches=metrics.mismatches,
        network=(
            config.network if isinstance(config.network, str) else "custom"
        ),
        executor=instance.executor.name,
        batch=config.batch,
        serial_ms=metrics.serial_ms,
        wall_clock_ms=metrics.wall_clock_ms,
        latency=LatencySummary.from_values(metrics.latencies_ms),
        server_operations=sum(loads),
        per_server_storage_blocks=instance.per_server_storage_blocks(),
        total_storage_blocks=instance.total_storage_blocks(),
        load_jain_index=jain_index(loads),
        budget=budget,
        shard_reports=shard_reports,
        faults=scheme_fault_counters(instance),
        percentiles=extra_percentiles(
            metrics.latencies_ms, config.percentiles
        ),
        leakage=watch.reports() if watch is not None else [],
    )
