"""The five workloads: what is built, which ops run, what checks them.

Sizes are fixed; ``--seed`` only changes the plan (which indices and
keys are touched, and the arrival seeds of the served cluster).  Plans
are drawn from :class:`random.Random` here in the benchmark, segment by
segment, so the program under test sees only generated inputs and the
harness holds one segment of plan at a time.

A workload runs one *segment* of ops at a time.  Every op is timed with
``perf_counter_ns`` around the public call only; the same op is then
applied to the plaintext model (timed too — it is the overhead
denominator) and the two answers compared, outside the first timer.
"""

from __future__ import annotations

import itertools
import random
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field

import repro
from repro.obs import MetricsRegistry, Tracer
from repro.serving import ServingConfig

_now = time.perf_counter_ns


@dataclass
class Segment:
    """What one segment measured; ``times`` and ``model`` are ns per op."""

    times: array = field(default_factory=lambda: array("q"))
    model: array = field(default_factory=lambda: array("q"))
    writes: bytearray = field(default_factory=bytearray)
    ops: int = 0            # attempted, every one checked
    wall_ns: int = 0        # sum of the timed calls
    failed: int = 0         # wrong answer, exception, refused or unfinished
    nones: int = 0          # declared alpha-error answers (not failures)
    reads: int = 0          # ops that could have drawn the alpha error
    gen_ns: int = 0         # plan generation
    dispatches: int = 0     # scheduler dispatch groups (served workload)

    def absorb(self, other: "Segment") -> None:
        """Add ``other``'s counters to this running total."""
        for name in ("ops", "wall_ns", "failed", "nones", "reads", "gen_ns",
                     "dispatches"):
            setattr(self, name, getattr(self, name) + getattr(other, name))


class Workload:
    """One scheme, one traffic mix, one plaintext model."""

    name: str
    scheme: str
    layer: str                  # the scheme module: takes the traced residual
    ops_per_segment: int
    api: tuple[str, ...]        # public operations the plan calls
    baseline: str               # registered plaintext scheme used as model
    build_kwargs: dict
    baseline_kwargs: dict
    alpha = 0.0                 # declared error rate: a ``None`` answer is legal
    # What the run may cost in privacy and client state.  A run that reads
    # above either is not correct: a change that buys speed with a smaller
    # pad, a dropped ledger charge or more client state must not pass as
    # a gain.  Epsilon is the scheme's own figure at these sizes, rounded
    # up in the fourth decimal; the client ceiling is twice the peak of
    # the first long run (DP-RAM: twice the expected stash, n * p = 64).
    epsilon: float              # nats per op
    client_blocks = 0           # blocks; 0 = stateless

    def build(self, seed: int, **overrides):
        """The scheme under test, through ``repro.build``."""
        kwargs = {"seed": seed, **self.build_kwargs, **overrides}
        if "rng" in kwargs:
            del kwargs["seed"]
        return repro.build(self.scheme, **kwargs)

    def load(self, scheme, model) -> float:
        """Post-build loading counted in ``setup_s``; returns its seconds."""
        return 0.0

    def model(self):
        """The plaintext model fed the same plan (the correctness oracle)."""
        return repro.build(self.baseline, **self.baseline_kwargs)

    def calls(self, scheme, wrap=lambda fn: fn) -> dict:
        return {name: wrap(getattr(scheme, name)) for name in self.api}

    def plan(self, rng: random.Random, calls: dict, model, count: int,
             first_op: int) -> list[tuple]:
        """``count`` ops as ``(is_write, call, model_call, args)``."""
        raise NotImplementedError

    def run(self, rng: random.Random, calls: dict, model, count: int,
            first_op: int) -> Segment:
        """Generate, run, time and check one segment of ``count`` ops."""
        started = _now()
        ops = self.plan(rng, calls, model, count, first_op)
        segment = Segment(ops=count, gen_ns=_now() - started)
        times, model_times, writes = (
            segment.times, segment.model, segment.writes
        )
        allow_none = self.alpha > 0.0
        for is_write, call, model_call, args in ops:
            start = _now()
            try:
                got = call(*args)
            except Exception:
                if not segment.failed:
                    traceback.print_exc(file=sys.stderr)
                segment.failed += 1
                continue
            end = _now()
            want = model_call(*args)
            checked = _now()
            times.append(end - start)
            model_times.append(checked - end)
            writes.append(is_write)
            if is_write:
                continue
            segment.reads += 1
            if got is None and allow_none:
                segment.nones += 1
            elif got != want:
                segment.failed += 1
        segment.wall_ns = sum(times)
        return segment

    def obs_overhead(self, scheme_seed: int, seed: int) -> float:
        """Paired wall ratio of a run with ``repro.obs`` on; 0 = no such run."""
        return 0.0


def _payload(op_number: int, size: int = 64) -> bytes:
    """A write value derived from the op number (no stored payload list)."""
    return op_number.to_bytes(8, "big") * (size // 8)


class IndexWorkload(Workload):
    """Uniform reads (and writes) over ``n`` fixed-size records."""

    n = 65_536
    baseline = "plaintext_ram"

    def __init__(self, name, scheme, layer, ops_per_segment, write_fraction,
                 epsilon, client_blocks, **build_kwargs) -> None:
        self.name = name
        self.scheme = scheme
        self.layer = layer
        self.ops_per_segment = ops_per_segment
        self.write_fraction = write_fraction
        self.epsilon = epsilon
        self.client_blocks = client_blocks
        self.build_kwargs = {"n": self.n, "block_size": 64, **build_kwargs}
        self.baseline_kwargs = {"n": self.n, "block_size": 64}
        self.alpha = build_kwargs.get("alpha", 0.0)
        self.api = ("query",) if scheme == "dp_ir" else ("read", "write")

    def plan(self, rng, calls, model, count, first_op):
        n = self.n
        if "query" in calls:
            query, read = calls["query"], model.read
            return [(False, query, read, (rng.randrange(n),))
                    for _ in range(count)]
        read, write = calls["read"], calls["write"]
        model_read, model_write = model.read, model.write
        share = self.write_fraction
        ops = []
        for number in range(first_op, first_op + count):
            index = rng.randrange(n)
            if rng.random() < share:
                ops.append((True, write, model_write,
                            (index, _payload(number))))
            else:
                ops.append((False, read, model_read, (index,)))
        return ops


class KVSWorkload(Workload):
    """YCSB-style gets and puts over a preloaded key set, skewed."""

    name = "kvs_ycsb"
    scheme = "dp_kvs"
    layer = "core.dp_kvs"
    ops_per_segment = 120
    api = ("get", "put")
    baseline = "plaintext_kvs"
    build_kwargs = {"n": 16_384, "value_size": 64}
    baseline_kwargs = {"n": 16_384, "value_size": 64}
    write_fraction = 0.5
    live_keys = 8_192           # 2x DPKVS's 4 096-entry PRF choice cache
    zipf_exponent = 0.99
    epsilon = 243.4784
    client_blocks = 576

    def __init__(self) -> None:
        self._keys = [b"user%08d" % i for i in range(self.live_keys)]
        self._cum_weights = list(itertools.accumulate(
            1.0 / (rank + 1) ** self.zipf_exponent
            for rank in range(self.live_keys)
        ))

    def load(self, scheme, model):
        keys = self._keys
        started = _now()
        for number, key in enumerate(keys):
            scheme.put(key, _payload(number))
        elapsed = (_now() - started) / 1e9
        for number, key in enumerate(keys):
            model.put(key, _payload(number))
        return elapsed

    def plan(self, rng, calls, model, count, first_op):
        get, put = calls["get"], calls["put"]
        model_get, model_put = model.get, model.put
        keys = rng.choices(self._keys, cum_weights=self._cum_weights, k=count)
        ops = []
        for offset, key in enumerate(keys):
            if rng.random() < self.write_fraction:
                ops.append((True, put, model_put,
                            (key, _payload(first_op + offset))))
            else:
                ops.append((False, get, model_get, (key,)))
        return ops


class ServeWorkload(Workload):
    """One prebuilt cluster driven by ``repro.serve``; an op is a request.

    A segment is one ``serve()`` call.  The simulator is open loop
    (Poisson arrivals per tenant), the harness around it closed loop:
    the next call starts when the previous report is back.
    """

    name = "serve_cluster"
    scheme = "cluster_batch_dp_ir"
    layer = "serving.service"
    clients = 16
    requests_per_client = 64
    ops_per_segment = clients * requests_per_client
    api = ("serve",)
    baseline = "plaintext_ram"
    build_kwargs = {"n": 16_384, "shard_count": 4, "replica_count": 2,
                    "authenticated": True, "executor": "serial"}
    baseline_kwargs = {"n": 16_384}
    alpha = 0.05
    epsilon = 9.6529            # ClusterLedger.per_query_epsilon

    def config(self, seed: int) -> ServingConfig:
        return ServingConfig(
            clients=self.clients,
            requests_per_client=self.requests_per_client,
            scheduler="continuous", max_in_flight=4, rate_rps=200,
            seed=seed,
        )

    def calls(self, scheme, wrap=lambda fn: fn):
        return {"serve": wrap(repro.serve), "scheme": scheme}

    def run(self, rng, calls, model, count, first_op):
        """One ``serve()`` call; checked by its own completion counts."""
        del count, first_op
        config = self.config(rng.randrange(2 ** 31))
        requests = self.ops_per_segment
        start = _now()
        report = calls["serve"](calls["scheme"], config)
        end = _now()
        repro.serve(model, config)
        checked = _now()
        done = report.completed if report.requests == requests else 0
        return Segment(
            times=array("q", [(end - start) // max(done, 1)]),
            model=array("q", [(checked - end) // requests]),
            writes=bytearray(1),
            ops=requests, wall_ns=end - start,
            failed=requests - done,  # shed requests never complete
            nones=report.errors, reads=requests,
            dispatches=report.dispatches,
        )

    def obs_overhead(self, scheme_seed, seed, pairs=9):
        """Median over ``pairs`` of (serve with tracer + registry) / plain."""
        plain, observed = self.build(scheme_seed), self.build(scheme_seed)
        ratios = []
        for pair in range(pairs + 1):
            config = self.config(seed + pair)
            start = _now()
            repro.serve(plain, config)
            middle = _now()
            repro.serve(observed, config.replace(
                tracer=Tracer("bench"), metrics_registry=MetricsRegistry()))
            ratios.append((_now() - middle) / (middle - start))
        ratios = sorted(ratios[1:])  # the first pair warms both instances up
        return ratios[len(ratios) // 2]


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        IndexWorkload("ir_uniform", "dp_ir", "core.dp_ir", 1_600, 0.0,
                      epsilon=9.8760, client_blocks=0,
                      pad_size=64, alpha=0.05),
        IndexWorkload("ram_mixed", "dp_ram", "core.dp_ram", 3_200, 0.5,
                      epsilon=141.4021, client_blocks=128),
        KVSWorkload(),
        IndexWorkload("oram_mixed", "path_oram", "baselines.path_oram",
                      120, 0.5, epsilon=0.0, client_blocks=84),
        ServeWorkload(),
    )
}
