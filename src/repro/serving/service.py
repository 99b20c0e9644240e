"""``serve()``: registry-driven construction of a whole serving run.

The one-call entry point behind ``repro.serve`` and the
``python -m repro serve`` CLI subcommand: build any registered scheme,
spin up N tenant sessions with per-tenant workload traces, pick a load
generator and scheduler, and run the discrete-event simulation::

    import repro
    from repro.serving import ServingConfig

    report = repro.serve("batch_dp_ir", ServingConfig(clients=8, seed=7))
    print(report.to_text())
    print(report.latency.p99_ms, report.ops_per_request)

The config is the only calling convention: ``serve`` takes no keywords
(scheme-builder keywords go in ``ServingConfig.build_kwargs``).
"""

from __future__ import annotations

from repro.api.protocols import PrivateIR, PrivateKVS, Scheme
from repro.api.registry import resolve_scheme_name, scheme_spec
from repro.crypto.rng import (
    RandomSource,
    SeededRandomSource,
    SystemRandomSource,
)
from repro.obs.instrument import instrument_scheme
from repro.obs.metrics import collect_scheme_metrics
from repro.obs.monitor import default_monitors, watch_scheme
from repro.serving.config import ServingConfig
from repro.serving.load import ClosedLoopLoad, LoadGenerator, OpenLoopLoad
from repro.serving.report import ServingReport
from repro.serving.schedulers import build_scheduler
from repro.serving.simulator import ClientSession, ServingSimulator
from repro.workloads import catalogue


def _resolve_load(
    load: LoadGenerator | str, rate_rps: float, think_ms: float
) -> LoadGenerator:
    if isinstance(load, LoadGenerator):
        return load
    if load == "open":
        return OpenLoopLoad(rate_rps)
    if load == "closed":
        return ClosedLoopLoad(think_ms)
    raise ValueError(
        f"unknown load {load!r}; expected 'open', 'closed' or a LoadGenerator"
    )


def _tenant_trace(
    kind: str,
    workload: str,
    n: int,
    count: int,
    rng: RandomSource,
    value_size: int,
    write_fraction: float,
):
    """One tenant's operation stream, matching the scheme's protocol."""
    if kind == "kvs":
        return catalogue.kv_trace(
            workload, n, count, rng, value_size=value_size
        )
    # Sequential tenants scan from distinct offsets so concurrent
    # sessions don't trivially share every index.
    return catalogue.index_trace(
        workload, n, count, rng,
        write_fraction=write_fraction,
        sequential_start=rng.randbelow(n),
    )


def serve(
    scheme: str | Scheme = "dp_ir",
    config: ServingConfig | None = None,
    /,
) -> ServingReport:
    """Serve concurrent tenant sessions against a scheme.

    Args:
        scheme: a registry name (hyphenated aliases like ``batch-dpir``
            accepted) or an already-built scheme instance.
        config: the run's :class:`~repro.serving.config.ServingConfig`
            (the defaults when omitted); see the config class for every
            knob (clients, scheduler, admission caps, load shape,
            network, executor, observability sinks, …).  Keywords for
            the scheme's builder (``epsilon``, ``server_count``, …) go
            in its ``build_kwargs``.

    Returns:
        The run's :class:`~repro.serving.report.ServingReport`.
    """
    if config is None:
        config = ServingConfig()
    # Deferred like the registry defers it: the builders module imports
    # the full scheme catalogue.
    from repro.api.builders import resolve_network

    root = (
        SeededRandomSource(config.seed) if config.seed is not None
        else SystemRandomSource()
    )
    n = config.n
    executor = config.executor

    if isinstance(scheme, str):
        name = resolve_scheme_name(scheme)
        spec = scheme_spec(name)
        kind = spec.kind
        build_kwargs = dict(config.build_kwargs)
        build_kwargs.setdefault("n", n)
        if executor is not None:
            import inspect

            parameters = inspect.signature(spec.builder).parameters
            if "executor" not in parameters and not any(
                parameter.kind is inspect.Parameter.VAR_KEYWORD
                for parameter in parameters.values()
            ):
                raise ValueError(
                    f"scheme {name!r} has no fan-out to parallelize; "
                    "--executor applies to schemes with per-server or "
                    "per-shard legs (cluster_dp_ir, cluster_batch_dp_ir, "
                    "cluster_dp_kvs, multi_server_dp_ir)"
                )
            build_kwargs.setdefault("executor", executor)
        if kind == "kvs":
            build_kwargs.setdefault("value_size", config.value_size)
        if config.backend is not None:
            build_kwargs.setdefault("backend", config.backend)
        if "backend" in build_kwargs:
            # A network-backed build must price the link serve() reports:
            # the backends' own model is authoritative in the simulator.
            build_kwargs.setdefault("network", config.network)
        if "seed" not in build_kwargs and "rng" not in build_kwargs:
            build_kwargs["rng"] = root.spawn("scheme")
        instance = spec.builder(**build_kwargs)
        label = name
    else:
        if config.build_kwargs:
            unknown = ", ".join(sorted(config.build_kwargs))
            raise ValueError(
                f"builder kwargs ({unknown}) need a scheme name, not an instance"
            )
        if executor is not None:
            raise ValueError(
                "executor= needs a scheme name, not an instance; pass "
                "the executor to the instance's own constructor"
            )
        instance = scheme
        kind = (
            "ir" if isinstance(instance, PrivateIR)
            else "kvs" if isinstance(instance, PrivateKVS)
            else "ram"
        )
        label = type(instance).__name__
        n = instance.n  # traces must address the instance's universe

    workload = config.workload
    # Fail before the simulation starts (the run CLI makes the same
    # check) instead of dying mid-run on the scheme's own error.
    catalogue.check_workload(
        workload, kind, label, getattr(instance, "writable", True)
    )

    generator = _resolve_load(config.load, config.rate_rps, config.think_ms)
    sessions = []
    clients = config.clients
    width = len(str(max(clients - 1, 1)))
    for client in range(clients):
        tenant = f"tenant-{client:0{width}d}"
        trace = _tenant_trace(
            kind, workload, n, config.requests_per_client,
            root.spawn(f"trace/{tenant}"), config.value_size,
            config.write_fraction,
        )
        plan = generator.plan(
            len(trace.operations), root.spawn(f"arrivals/{tenant}")
        )
        sessions.append(ClientSession(tenant, trace.operations, plan))

    model = resolve_network(config.network)
    label_network = (
        config.network if isinstance(config.network, str) else "custom"
    )
    tracer = config.tracer
    metrics_registry = config.metrics_registry
    if tracer is not None or metrics_registry is not None:
        instrument_scheme(instance, tracer=tracer, registry=metrics_registry)
    watch = None
    if config.monitor:
        watch = watch_scheme(
            instance,
            default_monitors(instance, rng=root.spawn("monitor")),
        )
    simulator = ServingSimulator(
        instance,
        sessions,
        build_scheduler(config.scheduler, config),
        network=model,
        network_label=label_network,
        tracer=tracer,
        registry=metrics_registry,
    )
    try:
        report = simulator.run()
        if metrics_registry is not None:
            collect_scheme_metrics(instance, metrics_registry)
    finally:
        if watch is not None:
            watch.unwatch()
    if watch is not None:
        report.leakage = watch.reports()
    report.scheme = label
    return report
