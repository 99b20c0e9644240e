"""The three passes and the arithmetic that turns them into metrics.

* *timed* — nothing wrapped: wall-clock metrics, ``blocks_per_op``,
  failures.  A run is a few *visits*, each a fresh process that builds
  the scheme (timed: ``setup_s``), warms it up, then runs segments until
  its share of ``--seconds`` is spent.
* *model* — a short prefix on ``backend="network", network="lan"``:
  roundtrips, bytes on the wire, modelled link time, epsilon.
* *traced* — one visit under :mod:`spans`: per-layer self time and counts.

Wall-clock metrics are noise floors (lowest segment median, fastest
segment, fastest set-up): on a shared two-core box a run-wide median moves by tens of
percent between identical runs, the floor by a few.  The spread that
was seen is recorded beside each value, not hidden.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import pathlib
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array

from repro import LAN, datasheet_for
from repro.crypto.rng import SeededRandomSource

from .spans import Recorder, SpanBackend, SpanRng, tracing
from .workloads import Segment, Workload

ROOT = pathlib.Path(__file__).resolve().parents[2]
OUT = pathlib.Path(__file__).parent / "out"
VISITS = 3              # fresh builds the timed pass is spread over
SHORT_VISITS = 2        # more set-ups after each of them, when cheap (run())
WARMUP_OPS = 50
SCHEME_SEED = 2019      # the program's own coins; --seed only picks the plan
MIN_SEGMENTS = 2        # per visit, however short the time box
RSS_SEGMENTS = 20       # peak RSS is read after this much (fixed) work
MODEL_OPS = 1_100       # p99 then has at least ten samples beyond it
MODEL_SERVE_CALLS = 16

_now = time.perf_counter_ns


def contract() -> dict:
    """``BENCHMARK.json``: which metrics are reported, in which unit."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _quantile(ordered, q: float):
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def calibrate() -> float:
    """Microseconds for a frozen pure-Python + ``hashlib`` kernel.

    Never change this function: it is the yardstick for reading results
    taken on another machine.
    """
    best = math.inf
    for _ in range(5):
        started = _now()
        digest = hashlib.sha256()
        state = 1
        for _ in range(20_000):
            state = (state * 6364136223846793005 + 1442695040888963407) % 2 ** 64
            digest.update(state.to_bytes(8, "big"))
        digest.digest()
        best = min(best, _now() - started)
    return best / 1e3


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "bench.calib_us": calibrate(),
    }


# -- one visit ---------------------------------------------------------------


def plan_rng(seed: int, spec: Workload, part: int | str) -> random.Random:
    """The plan generator of one visit (or of the model pass)."""
    return random.Random(f"{seed}/{spec.name}/{part}")


def set_up(spec: Workload, overrides: dict | None = None):
    """Build and load afresh: ``(scheme, model, build_s, load_s)``."""
    gc.collect()
    started = _now()
    scheme = spec.build(SCHEME_SEED, **(overrides or {}))
    build_s = (_now() - started) / 1e9
    model = spec.model()
    return scheme, model, build_s, spec.load(scheme, model)


def visit(
    spec: Workload,
    seed: int,
    number: int | str,
    *,
    seconds: float,
    overrides: dict | None = None,
    wrap=lambda call: call,
    ready=None,
    after_segment=None,
) -> dict:
    """Build, warm up, run segments; everything one visit observed.

    The rest are the traced pass's hooks: ``overrides`` are extra
    ``repro.build`` arguments, ``wrap`` decorates the public calls,
    ``ready`` runs after warm-up and ``after_segment`` after each segment.
    """
    rng = plan_rng(seed, spec, number)
    scheme, model, build_s, load_s = set_up(spec, overrides)
    calls = spec.calls(scheme, wrap)
    spec.run(rng, calls, model, WARMUP_OPS, 0)
    if ready is not None:
        ready()

    blocks_before = scheme.server_operations()
    total = Segment()
    medians: list[float] = []
    read_medians: list[float] = []
    write_medians: list[float] = []
    ratios: list[float] = []
    best_rate = 0.0
    samples = array("q")
    loop_started = _now()
    deadline = loop_started + int(seconds * 1e9)
    done = 0
    rss_kb = 0
    while done < MIN_SEGMENTS or _now() < deadline:
        if done == RSS_SEGMENTS:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        done += 1
        segment = spec.run(rng, calls, model, spec.ops_per_segment,
                           WARMUP_OPS + total.ops)
        total.absorb(segment)
        if after_segment is not None:
            after_segment()
        if not segment.times:
            continue
        samples.extend(segment.times)
        medians.append(statistics.median(segment.times))
        ratios.append(medians[-1] / max(statistics.median(segment.model), 1))
        best_rate = max(best_rate, segment.ops / segment.wall_ns * 1e9)
        reads = [t for t, w in zip(segment.times, segment.writes) if not w]
        writes = [t for t, w in zip(segment.times, segment.writes) if w]
        if reads:
            read_medians.append(statistics.median(reads))
        if writes:
            write_medians.append(statistics.median(writes))
    loop_ns = _now() - loop_started
    if not medians:
        raise RuntimeError(f"{spec.name}: every op of the visit raised")

    ordered = sorted(samples)
    faults = getattr(scheme, "fault_counters", dict)()
    return {
        "setup_s": build_s + load_s,
        "build_s": build_s,
        "gen_s": total.gen_ns / 1e9,
        "segments": len(medians),
        "ops": total.ops,
        "failed": total.failed,
        "nones": total.nones,
        "reads": total.reads,
        "dispatches": total.dispatches,
        "blocks": scheme.server_operations() - blocks_before,
        "op_ns": min(medians),
        "ops_per_s": best_rate,
        "read_ns": min(read_medians, default=0.0),
        "write_ns": min(write_medians, default=0.0),
        "overhead_x": statistics.median(ratios),
        "median_ns": statistics.median(ordered),
        "p99_ns": _quantile(ordered, 0.99),
        "samples": len(ordered),
        # The spread actually seen: quartiles over the segment medians.
        "segment_quartiles_ns": statistics.quantiles(medians, n=4)
        if len(medians) > 1 else [medians[0]] * 3,
        "harness_ns": (loop_ns - total.wall_ns) / total.ops,
        # The visit's peak, read at a fixed amount of work (or at the end
        # of a visit too short to get there): a time-boxed visit would
        # otherwise grow it by however many ops the machine got through.
        "rss_kb": rss_kb
        or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "client_blocks_peak": scheme.client_peak_blocks or 0,
        "failovers": faults.get("failovers", 0),
        "epsilon": _epsilon(scheme),
    }


def _epsilon(scheme) -> float:
    ledger = getattr(scheme, "ledger", None)
    if ledger is not None:
        return ledger.per_query_epsilon
    return datasheet_for(scheme).epsilon


# -- model pass ----------------------------------------------------------------


def model_pass(spec: Workload, seed: int) -> dict:
    """Roundtrips, wire bytes and modelled response time on a LAN link.

    ``NetworkBackend`` exposes roundtrips and simulated milliseconds but
    no byte counter; bytes are recovered from its own pricing formula
    ``ms = roundtrips * rtt + bits / bandwidth`` (exact after rounding:
    the float error is far below one byte).
    """
    scheme = spec.build(SCHEME_SEED, backend="network", network="lan")
    # No spec.load(): link cost per op does not depend on how full a KVS
    # is, and the model starts equally empty, so answers still check.
    model = spec.model()
    backends = [server.backend for server in scheme.servers()]

    def link() -> tuple[float, int]:
        return (sum(b.simulated_ms for b in backends),
                sum(b.roundtrips for b in backends))

    link_samples: list[float] = []
    reports = []

    def sampled(call):
        def run(*args):
            before = link()[0]
            result = call(*args)
            link_samples.append(link()[0] - before)
            if hasattr(result, "latency"):
                reports.append(result)
            return result
        return run

    calls = spec.calls(scheme, sampled)
    rng = plan_rng(seed, spec, "model")
    total = Segment()
    count = (MODEL_SERVE_CALLS if "serve" in calls
             else math.ceil(MODEL_OPS / spec.ops_per_segment))
    for _ in range(count):
        total.absorb(
            spec.run(rng, calls, model, spec.ops_per_segment, total.ops))
    link_ms, roundtrips = link()
    wire_bytes = round(
        (link_ms - roundtrips * LAN.rtt_ms) * LAN.bandwidth_mbps * 1000 / 8
    )
    if reports:
        # The simulator's response time: queueing plus link occupancy.
        response_ms = statistics.fmean(r.latency.mean_ms for r in reports)
        response_p99_ms = statistics.fmean(r.latency.p99_ms for r in reports)
        sample_count = sum(r.latency.count for r in reports)
    else:
        ordered = sorted(link_samples)
        response_ms = statistics.fmean(ordered)
        response_p99_ms = _quantile(ordered, 0.99)
        sample_count = len(ordered)
    return {
        "ops": total.ops,
        "failed": total.failed,
        "roundtrips_per_op": roundtrips / total.ops,
        "wire_bytes_per_op": wire_bytes / total.ops,
        "link_ms": link_ms / total.ops,
        "response_ms": response_ms,
        "response_p99_ms": response_p99_ms,
        "samples": sample_count,
        "epsilon": _epsilon(scheme),
    }


# -- traced pass ---------------------------------------------------------------


def traced_pass(spec: Workload, seed: int, *, seconds: float) -> dict:
    """One visit with spans on; writes ``out/trace_<workload>.json``."""
    recorder = Recorder()
    with tracing(recorder):
        result = visit(
            spec, seed, 0, seconds=seconds,
            overrides={
                "rng": SpanRng(SeededRandomSource(SCHEME_SEED), recorder),
                "backend": lambda capacity: SpanBackend(capacity, recorder),
            },
            wrap=lambda call: recorder.wrap(spec.layer, call, root=True),
            ready=recorder.reset,
            after_segment=recorder.mark,
        )
    result["root_ns"] = recorder.root_ns
    # Layer times are read off the fastest segment, for the reason op_us
    # is a floor; counts are exact and come from every traced op.
    quiet_root_ns, quiet_layers = recorder.quietest_segment()
    result["quiet_segment"] = {
        "ops": spec.ops_per_segment,
        "root_ns": quiet_root_ns,
        "self_ns": quiet_layers,
    }
    result["layers"] = {
        name: {"self_ns": stats.self_ns, "calls": stats.calls,
               "units": stats.units, "bytes": stats.bytes}
        for name, stats in sorted(recorder.layers.items())
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace_{spec.name}.json", "w") as handle:
        json.dump({
            "workload": spec.name,
            "seed": seed,
            "columns": ["layer", "start_ns", "end_ns", "parent", "op"],
            "ops_traced": recorder.ops,
            "ops_kept": 1 + max((s[4] for s in recorder.spans), default=-1),
            "spans": recorder.spans,
        }, handle)
    return result


# -- one run -------------------------------------------------------------------


def fresh_visit(spec: Workload, seed: int, number: int,
                seconds: float) -> dict:
    """:func:`visit` in a new interpreter; why, see :mod:`.visit`."""
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e.visit",
         spec.name, str(seed), str(number), repr(seconds)],
        env={**os.environ,
             "PYTHONPATH": f"{ROOT}{os.pathsep}{ROOT / 'src'}"},
        stdout=subprocess.PIPE, check=True,
    )
    return json.loads(done.stdout)


def run(spec: Workload, seed: int, *, seconds: float, trace: bool) -> dict:
    """Everything one run measures for one workload."""
    # With tracing on, half the time goes to one timed visit (the traced
    # numbers are read against it) and half to the traced visit.
    timed_visits = 1 if trace else VISITS
    share = seconds / (2 if trace else VISITS)
    # setup_s is the fastest set-up of the run.  Every visit supplies one;
    # where a set-up is cheap, up to two visits of no time (the minimum of
    # segments) follow each, for a tenth of the measuring time at most.
    # They are spread over the run because the machine's slow stretches
    # last for seconds.
    visits: list[dict] = []
    for number in range(timed_visits):
        visits.append(fresh_visit(spec, seed, number, share))
        spare = seconds / 10 / timed_visits
        for extra in range(min(SHORT_VISITS,
                               int(spare / visits[0]["setup_s"]))):
            visits.append(fresh_visit(
                spec, seed, number + timed_visits * (extra + 1), 0.0))
    result = {
        "workload": spec.name,
        "seed": seed,
        "env": environment(),
        "visits": visits,
        "model": model_pass(spec, seed),
    }
    if trace:
        result["traced"] = traced_pass(spec, seed, seconds=share)
        result["obs_overhead_x"] = spec.obs_overhead(SCHEME_SEED, seed)
    return result


# -- metrics -------------------------------------------------------------------

# (layer, metric suffix, field of the layer's totals)
LAYER_COUNTS = (
    ("crypto.rng", "calls", "calls"),
    ("core.sampling", "calls", "calls"),
    ("crypto.encryption", "calls", "calls"),
    ("crypto.encryption", "blocks", "units"),
    ("crypto.encryption", "bytes", "bytes"),
    ("crypto.prf", "calls", "calls"),
    ("hashing.node_codec", "calls", "calls"),
    ("storage.server", "rounds", "calls"),
    ("storage.server", "slots", "units"),
    ("storage.backends", "calls", "calls"),
    ("cluster.router", "calls", "calls"),
    ("cluster.group", "legs", "calls"),
    ("cluster.ledger", "charges", "calls"),
    ("parallel.executor", "fan_outs", "calls"),
)
SELF_TIME_LAYERS = (
    "crypto.rng", "core.sampling", "crypto.encryption", "crypto.prf",
    "hashing.node_codec", "core.bucket_ram", "core.dp_kvs",
    "storage.server", "storage.backends", "core.dp_ir", "core.dp_ram",
    "core.batch_ir", "baselines.path_oram", "serving.service",
    "serving.simulator", "serving.schedulers", "serving.load",
    "cluster.scheme", "cluster.router", "cluster.group", "cluster.ledger",
    "analysis.ledger", "parallel.executor",
)
COUNT_UNITS = {"bytes": "B", "slots": "blocks", "blocks": "blocks"}


def metrics(result: dict) -> dict[str, tuple[float, str]]:
    """Name -> (value, unit) from what :func:`run` measured.

    Floors (``setup_s`` too) are floors over all visits, ``peak_rss_mb``
    the largest of them, counts are summed over the visits before
    dividing.
    """
    visits = result["visits"]
    model = result["model"]
    ops = sum(v["ops"] for v in visits)
    op_us = min(v["op_ns"] for v in visits) / 1e3
    attempted = ops + model["ops"]
    failed = sum(v["failed"] for v in visits) + model["failed"]
    reads = sum(v["reads"] for v in visits)
    dispatches = sum(v["dispatches"] for v in visits)

    out = {
        "setup_s": (min(v["setup_s"] for v in visits), "s"),
        "op_us": (op_us, "us"),
        "ops_per_s": (max(v["ops_per_s"] for v in visits), "1/s"),
        "peak_rss_mb": (max(v["rss_kb"] for v in visits) / 1024, "MB"),
        "blocks_per_op": (sum(v["blocks"] for v in visits) / ops, "blocks"),
        "wire_bytes_per_op": (model["wire_bytes_per_op"], "B"),
        "roundtrips_per_op": (model["roundtrips_per_op"], "count"),
        # What a client on a LAN would wait: the modelled link (or, when
        # served, simulated queueing + link) plus the measured client time.
        "model_ms": (model["response_ms"] + op_us / 1e3, "ms"),
        "model_p99_ms": (model["response_p99_ms"] + op_us / 1e3, "ms"),
        "client_blocks_peak": (
            max(v["client_blocks_peak"] for v in visits), "blocks"),
        "epsilon_per_op": (
            max(model["epsilon"], *(v["epsilon"] for v in visits)), "nats"),
        "storage.network.link_ms": (model["link_ms"], "ms"),
        "storage.network.response_ms": (model["response_ms"], "ms"),
        "storage.network.response_p99_ms": (model["response_p99_ms"], "ms"),
        "api.build_s": (min(v["build_s"] for v in visits), "s"),
        "workloads.gen_s": (
            statistics.median(v["gen_s"] for v in visits), "s"),
        "api.read_us": (min(v["read_ns"] for v in visits) / 1e3, "us"),
        "api.write_us": (min(v["write_ns"] for v in visits) / 1e3, "us"),
        "baselines.plaintext.overhead_x": (
            statistics.median(v["overhead_x"] for v in visits), "x"),
        "core.alpha_error_rate": (
            sum(v["nones"] for v in visits) / reads if reads else 0.0,
            "share"),
        "serving.schedulers.batch_size": (
            ops / dispatches if dispatches else 0.0, "count"),
        "bench.harness_us": (
            statistics.median(v["harness_ns"] for v in visits) / 1e3, "us"),
        "bench.calib_us": (result["env"]["bench.calib_us"], "us"),
        "bench.noise_x": (
            statistics.median(v["median_ns"] for v in visits) / 1e3 / op_us,
            "x"),
        "bench.op_us_p99": (
            statistics.median(v["p99_ns"] for v in visits) / 1e3, "us"),
    }

    traced = result.get("traced")
    if traced is not None:
        traced_ops = traced["ops"]
        attempted += traced_ops
        failed += traced["failed"]
        layers = traced["layers"]
        quiet = traced["quiet_segment"]
        for layer in SELF_TIME_LAYERS:
            self_ns = quiet["self_ns"].get(layer, 0)
            out[f"{layer}.self_us"] = (self_ns / quiet["ops"] / 1e3, "us")
        for layer, suffix, field in LAYER_COUNTS:
            count = layers.get(layer, {}).get(field, 0)
            out[f"{layer}.{suffix}"] = (
                count / traced_ops, COUNT_UNITS.get(suffix, "count"))
        server = layers.get("storage.server", {"calls": 0, "units": 0})
        out["storage.server.slots_per_round"] = (
            server["units"] / server["calls"] if server["calls"] else 0.0,
            "blocks")
        out["cluster.group.failovers"] = (
            traced["failovers"] / traced_ops, "count")
        out["bench.traced_op_us"] = (
            quiet["root_ns"] / quiet["ops"] / 1e3, "us")
        out["bench.trace_overhead_x"] = (traced["op_ns"] / 1e3 / op_us, "x")
        out["obs.enabled_overhead_x"] = (result["obs_overhead_x"], "x")
    out["failed_ops"] = (failed / attempted, "share")
    out["attempted"] = (attempted, "count")
    out["failed"] = (failed, "count")
    return out


def problems(spec: Workload, result: dict) -> list[str]:
    """Why this run's outputs are not correct (empty when they are)."""
    found = []
    traced = result.get("traced")
    everything = result["visits"] + ([traced] if traced else [])
    failed = sum(v["failed"] for v in everything) + result["model"]["failed"]
    if failed:
        found.append(f"{failed} ops failed or answered wrongly")
    reads = sum(v["reads"] for v in everything)
    nones = sum(v["nones"] for v in everything)
    if spec.alpha and reads:
        # A declared error rate is checked, not trusted: six binomial
        # standard deviations either side of alpha.
        slack = 6 * math.sqrt(spec.alpha * (1 - spec.alpha) / reads)
        if abs(nones / reads - spec.alpha) > slack:
            found.append(
                f"alpha-error rate {nones / reads:.4f} is not "
                f"{spec.alpha} +- {slack:.4f}")
    epsilon = max(result["model"]["epsilon"],
                  *(v["epsilon"] for v in everything))
    if epsilon > spec.epsilon:
        found.append(f"epsilon per op {epsilon:.6f} is above the declared "
                     f"{spec.epsilon}")
    client_blocks = max(v["client_blocks_peak"] for v in everything)
    if client_blocks > spec.client_blocks:
        found.append(f"client held {client_blocks} blocks, above the "
                     f"declared ceiling of {spec.client_blocks}")
    if traced:
        slots = traced["layers"]["storage.server"]["units"]
        if slots != traced["blocks"]:
            found.append(
                f"traced storage.server.slots {slots} != server counters "
                f"{traced['blocks']}")
        layer_ns = sum(s["self_ns"] for s in traced["layers"].values())
        if layer_ns != traced["root_ns"]:
            found.append(
                f"layer self times sum to {layer_ns} ns, ops to "
                f"{traced['root_ns']} ns")
    return found
