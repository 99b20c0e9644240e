#!/usr/bin/env python
"""Regenerate the committed golden cluster trace.

The golden under ``benchmarks/baselines/trace_cluster_golden.json`` is
the *canonical* (wall-clock-stripped) trace of one fixed-seed cluster
run.  CI regenerates the same run and ``python -m repro trace-diff``s
it against the committed file: any change to scheduling, fan-out,
shard routing or the simulated cost model shows up as a structural
divergence and fails the gate.  When such a change is intentional,
rerun this script and commit the new golden alongside the change that
explains it::

    python scripts/update_golden_trace.py            # rewrite the golden
    python scripts/update_golden_trace.py --out X    # write elsewhere (CI)

The configuration is deliberately small (4x1 shards over n=512, 64
requests in rounds of 8 under the parallel executor) so the golden
stays reviewable (~100 spans) while still exercising batched rounds,
cross-shard fan-out and the per-leg simulated clock.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

DEFAULT_OUT = REPO / "benchmarks" / "baselines" / "trace_cluster_golden.json"

#: The golden run, frozen.  Changing any of these values invalidates
#: the committed golden — regenerate it in the same commit.
GOLDEN_CONFIG = {
    "scheme": "cluster_dp_ir",
    "shard_count": 4,
    "replica_count": 1,
    "n": 512,
    "requests": 64,
    "batch": 8,
    "seed": 7,
    "executor": "parallel",
    "workload": "uniform",
}


def golden_trace() -> dict:
    """Run the frozen config and return its canonical trace.

    The coins are ``repro run``'s: ``cluster`` builds the scheme and
    ``trace`` draws the workload; the rest of the config is the
    builder's keywords.
    """
    import repro
    from repro.crypto.rng import SeededRandomSource
    from repro.obs import Tracer, instrument_scheme
    from repro.obs.tracer import canonical_trace
    from repro.simulation.harness import run_trace
    from repro.storage.blocks import integer_database
    from repro.workloads import catalogue

    settings = dict(GOLDEN_CONFIG)
    root = SeededRandomSource(settings.pop("seed"))
    trace = catalogue.index_trace(
        settings.pop("workload"), settings["n"], settings.pop("requests"),
        root.spawn("trace"),
    )
    batch = settings.pop("batch")
    scheme = repro.build(settings.pop("scheme"), rng=root.spawn("cluster"),
                         **settings)
    tracer = Tracer("cluster")
    instrument_scheme(scheme, tracer=tracer)
    run_trace(scheme, trace, integer_database(settings["n"]), batch=batch)
    return canonical_trace(tracer.export())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT,
                        help=f"output path (default {DEFAULT_OUT})")
    args = parser.parse_args(argv)

    payload = golden_trace()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"golden trace written to {args.out} "
          f"({len(payload['spans'])} spans)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
