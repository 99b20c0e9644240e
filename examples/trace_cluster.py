"""Tracing a cluster run: spans, metrics, and the exact ε timeline.

Drives a 4-shard DP-IR cluster through a batched parallel workload with
the full observability stack attached: a deterministic span tracer (the
same span *tree* every run — serial or parallel), a metrics
registry exported in Prometheus text format, and a budget timeline that
receives every ledger charge as an exact Fraction.  Run with::

    python examples/trace_cluster.py
"""

import json
from fractions import Fraction

import repro
from repro.crypto.rng import SeededRandomSource
from repro.obs import (
    BudgetTimeline,
    MetricsRegistry,
    Tracer,
    canonical_trace,
    collect_scheme_metrics,
    instrument_scheme,
    summary_to_text,
    trace_summary,
)
from repro.simulation.harness import run_trace
from repro.storage.blocks import integer_database
from repro.workloads import catalogue

SHARDS = 4
REQUESTS = 64
SEED = 2026
N = 512


def traced_run(executor, tracer, registry=None, timeline=None):
    """One seeded 4x1 cluster run over ``executor``, observed."""
    root = SeededRandomSource(SEED)
    scheme = repro.build(
        "cluster_dp_ir", n=N, shard_count=SHARDS, replica_count=1,
        pad_size=16, executor=executor, rng=root.spawn("cluster"),
    )
    instrument_scheme(scheme, tracer=tracer, registry=registry)
    if timeline is not None:
        scheme.ledger.attach_timeline(timeline)
    trace = catalogue.index_trace("uniform", N, REQUESTS, root.spawn("trace"))
    metrics = run_trace(scheme, trace, integer_database(N), batch=8,
                        network=repro.LAN)
    if registry is not None:
        collect_scheme_metrics(scheme, registry)
    return metrics


def main() -> None:
    print(f"== Tracing a {SHARDS}-shard cluster "
          f"({REQUESTS} requests, batched parallel fan-out) ==\n")

    tracer = Tracer("trace_cluster")
    registry = MetricsRegistry()
    timeline = BudgetTimeline(cap=Fraction(200))
    metrics = traced_run("parallel", tracer, registry, timeline)
    print(f"completed {metrics.operations}/{REQUESTS} requests, overlap "
          f"speedup {metrics.serial_ms / metrics.wall_clock_ms:.2f}x\n")

    trace = tracer.export()
    roots = sum(1 for span in trace["spans"] if span["parent"] is None)
    print(f"-- span tree: {len(trace['spans'])} spans, {roots} roots --")
    for span in trace["spans"][:6]:
        depth = span["id"].count(".")
        labels = ",".join(f"{k}={v}"
                          for k, v in sorted(span["labels"].items()))
        print(f"  {'  ' * depth}{span['id']:<8} {span['name']} [{labels}]")
    print("  ...")

    print("\n-- per-round critical paths (straggler legs) --")
    summary = trace_summary(trace)
    dispatch_rounds = [entry for entry in summary["rounds"]
                       if entry["name"] == "cluster.query_many"]
    print(summary_to_text({"spans": summary["spans"],
                           "rounds": dispatch_rounds}))

    print("\n-- Prometheus scrape --")
    for line in registry.to_prometheus().splitlines():
        if "epsilon" in line or "repro_queries" in line:
            print(f"  {line}")

    print("\n-- exact epsilon spend timeline --")
    print(timeline.to_text())
    total = timeline.total_spent
    print(f"  total spent (exact): {total.numerator}/{total.denominator}")

    # The determinism contract: the canonical trace (wall-clock fields
    # stripped) is bit-identical across same-seed runs and executors.
    replay = Tracer("trace_cluster")
    traced_run("serial", replay)
    identical = (
        json.dumps(canonical_trace(trace), sort_keys=True)
        == json.dumps(canonical_trace(replay.export()), sort_keys=True)
    )
    print(f"\nserial replay emits an identical canonical trace: "
          f"{identical}")
    assert identical
    print("Done.")


if __name__ == "__main__":
    main()
