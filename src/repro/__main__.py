"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run`` — build any registered scheme, a ``cluster_*`` one as N shard
  groups x R replicas included, drive a named workload against it, and
  print its run record.
* ``serve`` — run N concurrent client sessions against a scheme through
  the request scheduler and print throughput + latency percentiles.
* ``experiments`` — run the E1..E14 claim tables (all or a subset).
* ``audit`` — run a cluster workload with an ε-budget timeline attached
  and report cumulative spend against a cap (first crossing flagged).
* ``bounds`` — evaluate the paper's lower bounds for given parameters,
  answering the title question for your workload.
* ``demo`` — a one-minute tour of the three constructions.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys


def _observability(args: argparse.Namespace):
    """Build (tracer, registry) from the shared --trace/--metrics flags."""
    from repro.obs import MetricsRegistry, Tracer

    tracer = Tracer(args.command) if args.trace else None
    registry = MetricsRegistry() if args.metrics else None
    return tracer, registry


def _emit_observability(args: argparse.Namespace, tracer, registry) -> None:
    """Write the trace JSON and emit the metrics export."""
    import json

    if tracer is not None:
        with open(args.trace, "w", encoding="utf-8") as handle:
            json.dump(tracer.export(), handle, indent=2)
            handle.write("\n")
        print(f"trace written to {args.trace} "
              f"({len(tracer.spans())} spans)", file=sys.stderr)
    if registry is not None:
        if isinstance(args.metrics, str):
            with open(args.metrics, "w", encoding="utf-8") as handle:
                json.dump(registry.to_json(), handle, indent=2)
                handle.write("\n")
            print(f"metrics written to {args.metrics} "
                  f"({len(registry.collect())} series)", file=sys.stderr)
        else:
            print(registry.to_prometheus(), end="")


def _closed_loop(args: argparse.Namespace, tracer=None, registry=None,
                 timeline=None):
    """Build ``args.scheme`` from the run flags and drive its workload.

    One root draws every coin: ``cluster`` builds the scheme, ``trace``
    the workload and ``monitor`` the leakage monitors.  A builder flag
    (:data:`_BUILDER_FLAGS`) reaches the builder only when given, and a
    builder that does not take it is a usage error naming the flag, as
    ``--write-fraction`` is anywhere but a RAM scheme's ``readwrite``.
    Returns the run's :class:`~repro.simulation.metrics.RunMetrics`.
    """
    import inspect

    from repro.api import build, scheme_spec
    from repro.crypto.rng import default_rng
    from repro.obs import (
        collect_scheme_metrics, default_monitors, instrument_scheme,
        watch_scheme,
    )
    from repro.simulation.harness import run_trace
    from repro.storage.blocks import integer_database
    from repro.workloads import catalogue

    spec = scheme_spec(args.scheme)
    takes = inspect.signature(spec.builder).parameters
    given = vars(args)
    root = default_rng(args.seed)
    build_kwargs = {"n": args.n, "rng": root.spawn("cluster"),
                    "backend": given.get("backend")}
    for flag in _BUILDER_FLAGS:
        keyword = _FLAGS[flag]["dest"]
        if keyword in given:
            if keyword not in takes:
                raise ValueError(f"{flag} does not apply to {spec.name}")
            build_kwargs[keyword] = given[keyword]
    if given.get("network") is not None:
        build_kwargs["network"] = args.network
    if "write_fraction" in given and (
        spec.kind == "kvs" or args.workload != "readwrite"
    ):
        raise ValueError(
            "--write-fraction applies only to a RAM scheme's readwrite workload"
        )
    scheme = build(spec.name, **build_kwargs)
    catalogue.check_workload(args.workload, spec.kind, args.scheme,
                             getattr(scheme, "writable", True))
    initial = None
    if spec.kind == "kvs":
        trace = catalogue.kv_trace(args.workload, args.n, args.ops,
                                   root.spawn("trace"),
                                   value_size=scheme.value_size)
    else:
        trace = catalogue.index_trace(
            args.workload, args.n, args.ops, root.spawn("trace"),
            write_fraction=given.get("write_fraction", _WRITE_FRACTION),
        )
        # The builders load integer_database(n) by default, so the same
        # database doubles as the correctness reference.
        initial = integer_database(args.n)
    if tracer is not None or registry is not None:
        instrument_scheme(scheme, tracer=tracer, registry=registry)
    if timeline is not None:
        scheme.ledger.attach_timeline(timeline)
    watch = None
    if given.get("monitor"):
        watch = watch_scheme(
            scheme, default_monitors(scheme, rng=root.spawn("monitor"))
        )
    try:
        metrics = run_trace(scheme, trace, initial, batch=args.batch)
    finally:
        if watch is not None:
            watch.unwatch()
    metrics.scheme = spec.name
    if watch is not None:
        metrics.leakage = watch.reports()
    if registry is not None:
        collect_scheme_metrics(scheme, registry)
    return metrics


def _cmd_run(args: argparse.Namespace) -> int:
    import json

    from repro.api import available_schemes, scheme_spec
    from repro.simulation.reporting import format_table

    if args.list:
        rows = [
            [name, scheme_spec(name).kind, scheme_spec(name).summary]
            for name in available_schemes()
        ]
        print(format_table(["scheme", "kind", "summary"], rows,
                           title="Registered schemes"))
        return 0
    tracer, registry = _observability(args)
    metrics = _closed_loop(args, tracer, registry)
    if args.json:
        print(json.dumps(metrics.to_dict(), indent=2))
    else:
        print(metrics.to_text())
    _emit_observability(args, tracer, registry)
    if metrics.mismatches:
        print("correctness mismatches detected!", file=sys.stderr)
        return 1
    return _leakage_status(metrics)


def _leakage_status(report) -> int:
    """Exit 1 naming each tripped leakage monitor, else 0."""
    for leakage in report.leakage:
        if leakage.tripped:
            print(f"leakage monitor tripped: {leakage.to_text()}",
                  file=sys.stderr)
    return 1 if report.leakage_tripped else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from repro.api import scheme_spec
    from repro.serving import ServingConfig, serve

    # Validate the scheme spelling up front: an unknown name exits 2
    # with the registry catalogue, never a KeyError from a deeper lookup.
    spec = scheme_spec(args.scheme)
    if "value_size" in vars(args) and spec.kind != "kvs":
        raise ValueError(f"--value-size does not apply to {spec.name}")
    tracer, registry = _observability(args)
    # Every flag's dest is the ServingConfig field it sets (see _FLAGS).
    fields = {
        field.name: getattr(args, field.name)
        for field in dataclasses.fields(ServingConfig)
        if hasattr(args, field.name)
    }
    report = serve(args.scheme, ServingConfig(
        **fields, tracer=tracer, metrics_registry=registry
    ))
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.to_text())
    _emit_observability(args, tracer, registry)
    return _leakage_status(report)


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.simulation.experiments import EXPERIMENTS

    # Every id is resolved before the first driver runs: ``E06`` and
    # ``e11b`` name E6 and E11b, and one unknown id fails the command.
    known = {key.upper(): key for key in EXPERIMENTS}
    wanted, unknown = set(), []
    for name in args.only or EXPERIMENTS:
        token = name.upper()
        if token.startswith("E0"):
            token = "E" + token[1:].lstrip("0")
        if token in known:
            wanted.add(known[token])
        else:
            unknown.append(name)
    if unknown:
        print(f"error: unknown experiment {', '.join(unknown)}; "
              f"known: {' '.join(EXPERIMENTS)}", file=sys.stderr)
        return 1
    tables = [EXPERIMENTS[key].driver() for key in EXPERIMENTS if key in wanted]
    print("\n\n".join(
        table.to_markdown() if args.markdown else table.to_text() for table in tables
    ))
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    import json
    from fractions import Fraction

    from repro.obs import BudgetTimeline

    # The cap lives on the *timeline*, not the cluster ledger: the run
    # completes and the audit flags the first crossing instead of dying
    # on a BudgetExceededError mid-workload.  Fraction(str(...)) keeps a
    # decimal cap like 0.5 (or a rational like 7/3) exact rather than
    # its float image.
    cap = Fraction(str(args.cap)) if args.cap is not None else None
    timeline = BudgetTimeline(cap=cap)
    metrics = _closed_loop(args, timeline=timeline)

    slo_report = None
    if args.slo:
        from repro.obs import evaluate_slo

        if args.slo_budget is not None:
            slo_budget = Fraction(str(args.slo_budget))
        elif cap is not None:
            slo_budget = cap
        else:
            raise ValueError("--slo needs --slo-budget or --cap")
        slo_report = evaluate_slo(
            timeline,
            budget=slo_budget,
            horizon=args.slo_horizon,
            fast_window=args.slo_fast_window,
            slow_window=args.slo_slow_window,
            fast_burn=Fraction(str(args.slo_fast_burn)),
            slow_burn=Fraction(str(args.slo_slow_burn)),
        )

    if args.json:
        payload = timeline.to_dict()
        if slo_report is not None:
            payload["slo"] = slo_report.to_dict()
        print(json.dumps(payload, indent=2))
    elif args.timeline:
        print(timeline.to_text())
        if slo_report is not None:
            print(slo_report.to_text())
    else:
        per_operator = timeline.per_operator()
        print(f"audit: {metrics.operations} requests over "
              f"{args.shard_count} shards ({len(timeline.events)} charges)")
        print(f"  total epsilon spent: {float(timeline.total_spent):.4f}")
        for operator in sorted(per_operator):
            print(f"  {operator}: "
                  f"{float(per_operator[operator]):.4f}")
        if cap is not None and timeline.first_crossing is None:
            print(f"  cap {float(cap):.4f}: never crossed")
        if slo_report is not None:
            print(slo_report.to_text())
    crossing = timeline.first_crossing
    if crossing is not None:
        print(
            f"budget cap crossed at charge #{crossing.sequence} "
            f"(operator {crossing.operator}, epoch {crossing.epoch})",
            file=sys.stderr,
        )
        return 1
    if slo_report is not None and slo_report.breached:
        for alert in slo_report.alerts:
            print(
                f"slo burn-rate alert: {alert.scope} at charge "
                f"#{alert.sequence} (fast {float(alert.fast_rate):.1f}x, "
                f"slow {float(alert.slow_rate):.1f}x)",
                file=sys.stderr,
            )
        return 1
    return 0


def _load_trace(path: str) -> dict:
    """An exported trace; an unreadable file is a usage error (exit 2)."""
    import json

    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read trace {path}: {exc}") from exc


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    import json

    from repro.obs import diff_traces

    if args.tolerance < 0:
        raise ValueError("--tolerance must be >= 0")
    diff = diff_traces(_load_trace(args.trace_a), _load_trace(args.trace_b),
                       tolerance=args.tolerance)
    if args.json:
        print(json.dumps(diff.to_dict(), indent=2))
    else:
        print(diff.to_text())
    return 0 if diff.identical else 1


def _cmd_trace_summary(args: argparse.Namespace) -> int:
    import json

    from repro.obs import (
        profile_to_text,
        summary_to_text,
        trace_profile,
        trace_summary,
    )

    payload = _load_trace(args.trace)
    if args.profile:
        profile = trace_profile(payload)
        if args.json:
            print(json.dumps(profile, indent=2))
        else:
            print(profile_to_text(profile))
        return 0
    summary = trace_summary(payload,
                            straggler_threshold=args.straggler_threshold)
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(summary_to_text(summary))
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    from repro.analysis import bounds

    n = args.n
    if n < 2:
        # The "x ln n" ratios below divide by ln n, which is 0 at n = 1.
        raise ValueError(f"--n must be at least 2, got {n}")
    floor = bounds.dp_ir_errorless_lower_bound(n)
    eps_ir = bounds.min_epsilon_for_ir_bandwidth(n, args.bandwidth, args.alpha)
    eps_ram = bounds.min_epsilon_for_ram_bandwidth(n, args.bandwidth,
                                                   args.client)
    print(f"n = {n}, alpha = {args.alpha}, client blocks = {args.client}")
    print(f"  errorless DP-IR floor (Thm 3.3): {floor:.0f} blocks/query")
    print(f"  at {args.bandwidth} blocks/query:")
    print(f"    DP-IR needs  eps >= {eps_ir:.2f}  "
          f"({eps_ir / math.log(n):.2f} x ln n)   [Thm 3.4]")
    print(f"    DP-RAM needs eps >= {eps_ram:.2f}  "
          f"({eps_ram / math.log(n):.2f} x ln n)   [Thm 3.7]")
    print("  -> with small overhead, eps = Theta(log n) is the best "
          "achievable privacy (the paper's answer).")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    del args
    from repro import DPIR, DPKVS, DPRAM, SeededRandomSource
    from repro.storage.blocks import integer_database

    rng = SeededRandomSource(0)
    n = 512
    database = integer_database(n)

    ram = DPRAM(database, rng=rng.spawn("ram"))
    ram.read(1)
    ram.write(1, b"hello".ljust(64, b"\x00"))
    ram.flush()  # the write's upload was waiting for a next request
    print(f"DP-RAM  : 2 ops -> {ram.server.operations} block transfers "
          f"({ram.server.operations / 2:.0f}/query), stash={ram.stash_size}")

    ir = DPIR(database, epsilon=math.log(n), alpha=0.05, rng=rng.spawn("ir"))
    answer = ir.query(5)
    print(f"DP-IR   : pad K={ir.pad_size}, exact eps={ir.epsilon:.2f}, "
          f"query(5) -> {'ok' if answer is not None else 'error (alpha)'}")

    kv = DPKVS(n, rng=rng.spawn("kv"))
    kv.put(b"k", b"v")
    print(f"DP-KVS  : blocks/op<={kv.blocks_per_operation()}, "
          f"server nodes={kv.server_node_count} (~"
          f"{kv.server_node_count / n:.2f} n), get(k)="
          f"{kv.get(b'k').rstrip(bytes(1))!r}")
    return 0


#: The ``readwrite`` workload's write share when ``--write-fraction`` is
#: not given; given, the flag applies to that workload alone.
_WRITE_FRACTION = 0.5

# Every run / serve / audit flag, declared once.  A serve flag's dest is
# the ServingConfig field it sets; a builder flag's is the builder keyword
# it sets, and it is absent (SUPPRESS) unless given or a command gives it
# a default.  A row's default is the one it states, else the ServingConfig
# field's; --help prints it.
_FLAGS: dict[str, dict] = {
    "--scheme": dict(default="dp_ir", help="registry name or alias such as "
                     "batch-dpir or cluster_dp_kvs (run --list names them); "
                     "audit takes a cluster_* scheme"),
    "--workload": dict(help="trace shape: uniform, sequential, zipf, hotspot, "
                       "readwrite (RAM); ycsb-a/b/c, insert-lookup (KVS)"),
    "--n": dict(type=int, help="database size / key capacity"),
    "--ops": dict(type=int, default=200, help="operations to run"),
    "--seed": dict(type=int, help="deterministic randomness seed"),
    "--value-size": dict(dest="value_size", type=int,
                         default=argparse.SUPPRESS,
                         help="KVS value size in bytes"),
    "--write-fraction": dict(type=float, default=argparse.SUPPRESS,
                             help="write fraction for the readwrite workload "
                             f"(unset: {_WRITE_FRACTION})"),
    "--backend": dict(choices=("memory", "network"),
                      help="slot-storage backend (None: the scheme's own, "
                      "memory)"),
    "--network": dict(choices=("lan", "wan", "mobile"),
                      help="link model pricing simulated time"),
    "--list": dict(action="store_true",
                   help="list the schemes this command takes and exit"),
    "--trace": dict(metavar="PATH", help="record a deterministic span trace "
                    "and write it as JSON"),
    "--metrics": dict(nargs="?", const=True, default=False, metavar="PATH",
                      help="collect metrics; bare prints Prometheus text, with "
                      "PATH writes the JSON export there"),
    "--clients": dict(type=int, help="concurrent tenant sessions"),
    "--requests": dict(type=int, metavar="REQUESTS",
                       help="operations to drive, per client under serve"),
    "--scheduler": dict(choices=("fifo", "window", "continuous", "batch"),
                        help="dispatch policy; 'batch' is a legacy alias for "
                        "window, 'continuous' pipelines dispatch groups with "
                        "admission control"),
    "--window-ms": dict(dest="batch_window_ms", type=float, metavar="WINDOW_MS",
                        help="batching window in ms"),
    "--max-batch": dict(type=int, help="dispatch group size cap"),
    "--max-in-flight": dict(type=int, help="concurrent dispatch groups for "
                            "the continuous scheduler"),
    "--tenant-credits": dict(type=int, help="per-tenant outstanding-request "
                             "cap for the continuous scheduler (None: off)"),
    "--queue-cap": dict(type=int, help="global pending-queue cap for the "
                        "continuous scheduler (None: off)"),
    "--load": dict(choices=("open", "closed"),
                   help="open-loop Poisson or closed-loop think"),
    "--rate": dict(dest="rate_rps", type=float, metavar="RATE",
                   help="open-loop arrivals/s per client"),
    "--think-ms": dict(type=float, help="closed-loop mean think time in ms"),
    "--executor": dict(dest="executor", choices=("serial", "parallel"),
                       default=argparse.SUPPRESS,
                       help="cross-shard fan-out policy for cluster schemes "
                       "(unset: serial)"),
    "--monitor": dict(action="store_true", help="attach online leakage "
                      "monitors (cluster adds shard routing); exit 1 if "
                      "adversary success exceeds the eps-implied ceiling"),
    "--json": dict(action="store_true", help="emit the report as JSON"),
    "--shards": dict(dest="shard_count", type=int, metavar="SHARDS",
                     default=argparse.SUPPRESS, help="shard groups D"),
    "--replicas": dict(dest="replica_count", type=int, metavar="REPLICAS",
                       default=argparse.SUPPRESS, help="replicas per group R"),
    "--placement": dict(dest="placement", choices=("range", "hash"),
                        default=argparse.SUPPRESS,
                        help="shard placement policy (IR clusters)"),
    "--epsilon": dict(dest="epsilon", type=float, default=argparse.SUPPRESS,
                      help="privacy target (unset: ln n)"),
    "--pad-size": dict(dest="pad_size", type=int, default=argparse.SUPPRESS,
                       help="explicit global pad size K"),
    "--alpha": dict(dest="alpha", type=float, default=argparse.SUPPRESS,
                    help="per-query error probability"),
    "--no-auth": dict(dest="authenticated", action="store_false",
                      default=argparse.SUPPRESS,
                      help="store plaintext instead of authenticated ciphertexts"),
    "--failure-rate": dict(dest="failure_rate", type=float,
                           default=argparse.SUPPRESS,
                           help="flaky-node rate per replica"),
    "--corruption-rate": dict(dest="corruption_rate", type=float,
                              default=argparse.SUPPRESS,
                              help="bit-flip rate per replica"),
    "--fault-coins": dict(dest="fault_coin_mode",
                          choices=("per_slot", "per_round"),
                          default=argparse.SUPPRESS,
                          help="fault-coin granularity for injected faults"),
    "--batch": dict(type=int, default=1, help="requests dispatched per round; "
                    "a round spanning shards is what a parallel executor "
                    "overlaps"),
    "--cap": dict(metavar="EPS", help="budget cap to audit cumulative spend "
                  "against (flags the first crossing); decimals and "
                  "rationals like 7/3 stay exact"),
    "--timeline": dict(action="store_true",
                       help="plot the cumulative spend timeline"),
    "--slo": dict(action="store_true", help="evaluate the two-window eps "
                  "burn-rate SLO (per tenant and operator); exit 1 on a breach"),
    "--slo-budget": dict(metavar="EPS", help="exact SLO budget (None: --cap)"),
    "--slo-horizon": dict(type=int, help="SLO period in spend events (None: "
                          "the run length)"),
    "--slo-fast-window": dict(type=int, help="fast window in events (None: "
                              "horizon/50)"),
    "--slo-slow-window": dict(type=int, help="slow window in events (None: "
                              "horizon/10)"),
    "--slo-fast-burn": dict(default="14", metavar="RATE",
                            help="fast-window burn threshold"),
    "--slo-slow-burn": dict(default="6", metavar="RATE",
                            help="slow-window burn threshold"),
}

#: The flags that set a builder keyword (their dest), the executor's
#: included.
_BUILDER_FLAGS = (
    "--shards", "--replicas", "--placement", "--epsilon", "--pad-size",
    "--alpha", "--no-auth", "--failure-rate", "--corruption-rate",
    "--fault-coins", "--executor", "--value-size",
)


def _add_command(commands, name, handler, summary, flags,
                 overrides=None) -> None:
    """Add command ``name`` with ``flags``, rows of :data:`_FLAGS`.

    ``ServingConfig`` supplies the defaults the rows leave out, and
    ``overrides`` maps a flag to the keywords that differ on this command.
    """
    from repro.serving import ServingConfig

    parser = commands.add_parser(
        name, help=summary,
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    fields = {
        field.name: field.default
        for field in dataclasses.fields(ServingConfig)
    }
    for flag in flags.split():
        spec = {**_FLAGS[flag], **(overrides or {}).get(flag, {})}
        dest = spec.get("dest", flag[2:].replace("-", "_"))
        if "default" not in spec and dest in fields:
            spec["default"] = fields[dest]
        parser.add_argument(flag, **spec)
    parser.set_defaults(handler=handler)


def main(argv: list[str] | None = None) -> int:
    from repro.obs import DEFAULT_STRAGGLER_THRESHOLD
    from repro.storage.errors import ReproError

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="DP storage access (Patel-Persiano-Yeo, PODS 2019) "
                    "— reproduction toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    # A run is one client without the scheduler: it takes the serving
    # defaults, but builds no network unless asked.
    _add_command(
        commands, "run", _cmd_run,
        "build a registered scheme and drive a named workload",
        "--scheme --workload --n --ops --seed --value-size --write-fraction "
        "--backend --network --shards --replicas --placement --epsilon "
        "--pad-size --alpha --no-auth --failure-rate --corruption-rate "
        "--fault-coins --executor --batch --monitor --json --list --trace "
        "--metrics",
        {"--scheme": dict(default="dp_ram"), "--network": dict(default=None)},
    )
    _add_command(
        commands, "serve", _cmd_serve,
        "serve N concurrent client sessions through a scheduler",
        "--scheme --clients --requests --scheduler --window-ms --max-batch "
        "--max-in-flight --tenant-credits --queue-cap --load --rate --think-ms "
        "--workload --n --seed --network --backend --value-size --executor "
        "--monitor --json --trace --metrics",
        {"--requests": dict(dest="requests_per_client")},
    )
    _add_command(
        commands, "audit", _cmd_audit,
        "run a cluster workload with an eps-budget timeline attached",
        "--scheme --shards --replicas --n --requests --workload --epsilon "
        "--pad-size --seed --executor --batch --cap --timeline --slo "
        "--slo-budget --slo-horizon --slo-fast-window --slo-slow-window "
        "--slo-fast-burn --slo-slow-burn --json",
        {"--scheme": dict(default="cluster_dp_ir"),
         "--shards": dict(default=4), "--replicas": dict(default=1),
         "--requests": dict(dest="ops", default=64)},
    )

    diff_parser = commands.add_parser(
        "trace-diff",
        help="structurally compare two exported traces (regression gate)",
    )
    diff_parser.add_argument("trace_a", metavar="A.json",
                             help="baseline trace JSON")
    diff_parser.add_argument("trace_b", metavar="B.json",
                             help="candidate trace JSON")
    diff_parser.add_argument("--tolerance", type=float, default=1e-6,
                             help="relative tolerance for simulated-time "
                                  "fields and numeric labels "
                                  "(default 1e-6)")
    diff_parser.add_argument("--json", action="store_true",
                            help="emit the diff as JSON")
    diff_parser.set_defaults(handler=_cmd_trace_diff)

    summary_parser = commands.add_parser(
        "trace-summary",
        help="summarize an exported trace (fan-out rounds, stragglers, "
             "or a --profile cost attribution)",
    )
    summary_parser.add_argument("trace", metavar="TRACE.json",
                                help="exported trace JSON")
    summary_parser.add_argument("--profile", action="store_true",
                                help="self-vs-child cost attribution with "
                                     "critical-path share instead of the "
                                     "round summary")
    summary_parser.add_argument(
        "--straggler-threshold", type=float, metavar="RATIO",
        default=DEFAULT_STRAGGLER_THRESHOLD,
        help="flag rounds whose slowest leg costs at least RATIO times "
             "the mean leg (default %(default)s)",
    )
    summary_parser.add_argument("--json", action="store_true",
                                help="emit the summary as JSON")
    summary_parser.set_defaults(handler=_cmd_trace_summary)

    experiments_parser = commands.add_parser(
        "experiments", help="run the claim-table experiments"
    )
    experiments_parser.add_argument(
        "--only", nargs="*", metavar="EXP",
        help="experiment ids to run (e.g. E3 E11b); default: all",
    )
    experiments_parser.add_argument(
        "--markdown", action="store_true", help="emit markdown tables"
    )
    experiments_parser.set_defaults(handler=_cmd_experiments)

    bounds_parser = commands.add_parser(
        "bounds", help="evaluate the lower bounds for your parameters"
    )
    bounds_parser.add_argument("--n", type=int, default=2**20,
                               help="database size (default 2^20)")
    bounds_parser.add_argument("--bandwidth", type=float, default=3.0,
                               help="blocks per query you can afford")
    bounds_parser.add_argument("--alpha", type=float, default=0.05,
                               help="tolerable error probability")
    bounds_parser.add_argument("--client", type=int, default=64,
                               help="client storage in blocks")
    bounds_parser.set_defaults(handler=_cmd_bounds)

    demo_parser = commands.add_parser("demo", help="one-minute tour")
    demo_parser.set_defaults(handler=_cmd_demo)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ReproError, ValueError) as exc:
        # A usage mistake (unknown scheme, workload or network, a bad
        # size or rate) raises ValueError: a message and exit 2, not a
        # traceback.  Any other library error — a server fault no
        # failover absorbed, a garbled node — is a run that failed: exit 1.
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1


if __name__ == "__main__":  # pragma: no cover - entry point
    raise SystemExit(main())
