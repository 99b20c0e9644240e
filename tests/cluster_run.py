"""One seeded closed-loop cluster run, on ``repro run``'s coin streams.

``cluster`` builds the scheme, ``trace`` draws the workload and
``monitor`` the leakage monitors, all spawned from one root seeded with
``seed``.  Unlike ``repro run`` over memory servers, the run is priced
under ``network`` (LAN unless given), so its latency and simulated
milliseconds are there to assert on.
"""

import repro
from repro.api import scheme_spec
from repro.crypto.rng import default_rng
from repro.obs import (
    collect_scheme_metrics,
    default_monitors,
    instrument_scheme,
    watch_scheme,
)
from repro.simulation.harness import run_trace
from repro.storage.blocks import integer_database
from repro.workloads import catalogue


def cluster_run(
    name="cluster_dp_ir", *, n=1024, requests=256, seed=None,
    workload="uniform", batch=1, network=repro.LAN, monitor=False,
    tracer=None, registry=None, timeline=None, **build_kwargs,
):
    """Build ``name`` with ``build_kwargs`` and drive ``requests``
    operations of ``workload`` through it; returns the ``RunMetrics``."""
    root = default_rng(seed)
    scheme = repro.build(name, n=n, rng=root.spawn("cluster"), **build_kwargs)
    initial = None
    if scheme_spec(name).kind == "kvs":
        trace = catalogue.kv_trace(workload, n, requests, root.spawn("trace"),
                                   value_size=scheme.value_size)
    else:
        trace = catalogue.index_trace(workload, n, requests,
                                      root.spawn("trace"))
        initial = integer_database(n)
    if tracer is not None or registry is not None:
        instrument_scheme(scheme, tracer=tracer, registry=registry)
    if timeline is not None:
        scheme.ledger.attach_timeline(timeline)
    watch = None
    if monitor:
        watch = watch_scheme(
            scheme, default_monitors(scheme, rng=root.spawn("monitor"))
        )
    try:
        metrics = run_trace(scheme, trace, initial, batch=batch,
                            network=network)
    finally:
        if watch is not None:
            watch.unwatch()
    if watch is not None:
        metrics.leakage = watch.reports()
    if registry is not None:
        collect_scheme_metrics(scheme, registry)
    return metrics


def record(metrics):
    """The run record less its wall time, the one figure a seed does not
    fix."""
    data = metrics.to_dict()
    del data["elapsed_seconds"]
    return data
