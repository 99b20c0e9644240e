"""Measurement bundle for one scheme-over-trace run, plus latency tails.

Path ORAM's evaluation style reports response-time *distributions*, not
just operation counts; :func:`percentile` and :class:`LatencySummary`
bring the same discipline here.  :class:`CostMeter` is the one rule
pricing a round's server work as simulated time: the trace driver and
the serving simulator build every latency stream from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.storage.backends import NetworkBackend
from repro.storage.network import NetworkModel

if TYPE_CHECKING:
    from repro.api.protocols import Scheme
    from repro.obs.monitor import LeakageReport


def percentile(values: Sequence[float], fraction: float) -> float:
    """The ``fraction``-quantile of ``values`` with linear interpolation.

    ``fraction`` is in ``[0, 1]`` (``0.5`` is the median).  Uses the
    standard "linear between closest ranks" definition, so
    ``percentile(v, 0.0) == min(v)`` and ``percentile(v, 1.0) == max(v)``.

    Raises:
        ValueError: on an empty sequence or a fraction outside ``[0, 1]``.
    """
    if not values:
        raise ValueError("cannot take a percentile of no values")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    return _interpolate(sorted(values), fraction)


def _interpolate(ordered: Sequence[float], fraction: float) -> float:
    rank = fraction * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    weight = rank - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


#: The tails every report shows by default.  Cluster-scale runs care
#: about deeper tails than p99, hence p99.9 — callers with different
#: needs pass their own fraction list to :func:`percentile_map`.
DEFAULT_PERCENTILES = (0.50, 0.95, 0.99, 0.999)


def percentile_label(fraction: float) -> str:
    """The conventional name of a quantile: ``0.999`` → ``"p99.9"``."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    return f"p{100.0 * fraction:g}"


def percentile_map(
    values: Sequence[float],
    fractions: Sequence[float] = DEFAULT_PERCENTILES,
) -> dict[str, float]:
    """Quantiles of ``values`` at each fraction, keyed by ``pXX`` label.

    One sort serves every requested fraction.  An empty sample maps every
    label to ``0.0`` (matching :meth:`LatencySummary.from_values`).
    """
    labels = [percentile_label(fraction) for fraction in fractions]
    if not values:
        return {label: 0.0 for label in labels}
    ordered = sorted(values)
    return {
        label: _interpolate(ordered, fraction)
        for label, fraction in zip(labels, fractions)
    }


@dataclass(frozen=True)
class LatencySummary:
    """Tail statistics of a latency sample, in milliseconds.

    Attributes:
        count: number of observations summarized.
        mean_ms: arithmetic mean.
        p50_ms: median.
        p95_ms: 95th percentile.
        p99_ms: 99th percentile.
        max_ms: worst observation.
        p999_ms: 99.9th percentile (cluster-scale tail; defaults to 0.0
            so summaries built by older call sites stay valid).
    """

    count: int
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float
    p999_ms: float = 0.0

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "LatencySummary":
        """Summarize a latency sample (all zeros for an empty sample)."""
        if not values:
            return cls(count=0, mean_ms=0.0, p50_ms=0.0, p95_ms=0.0,
                       p99_ms=0.0, max_ms=0.0, p999_ms=0.0)
        ordered = sorted(values)
        return cls(
            count=len(ordered),
            mean_ms=sum(ordered) / len(ordered),
            p50_ms=_interpolate(ordered, 0.50),
            p95_ms=_interpolate(ordered, 0.95),
            p99_ms=_interpolate(ordered, 0.99),
            max_ms=ordered[-1],
            p999_ms=_interpolate(ordered, 0.999),
        )

    def to_dict(self) -> dict[str, float]:
        """The JSON view the report classes embed (``p50`` … ``max``)."""
        return {
            "p50": self.p50_ms,
            "p95": self.p95_ms,
            "p99": self.p99_ms,
            "p999": self.p999_ms,
            "mean": self.mean_ms,
            "max": self.max_ms,
        }


@dataclass
class RunMetrics:
    """What a run measured: the one record of a closed-loop run.

    :meth:`to_dict` is its JSON view and :meth:`to_text` is rendered from
    that view, so the text never shows a figure the JSON lacks.

    Attributes:
        scheme: label of the scheme under test.
        trace: label of the workload.
        operations: logical queries executed.
        blocks_downloaded: server→client block transfers.
        blocks_uploaded: client→server block transfers.
        errors: queries that returned no answer (DP-IR's α events).
        mismatches: reference-model disagreements (must be 0 for
            errorless schemes; errored queries are not counted).
        client_peak_blocks: peak client storage in blocks, when the scheme
            reports it.
        elapsed_seconds: wall-clock time of the run.
        latencies_ms: per-operation simulated response times — each
            operation's round as :class:`CostMeter` priced it; recorded
            when the scheme runs over latency-accounting backends or the
            run was given a network model.
        fault_counters: injected/observed fault totals aggregated from
            the scheme's fault wrappers; empty for fault-free runs.
        serial_ms: the run's simulated time with every leg run
            back-to-back — :class:`CostMeter`'s total; ``None`` when the
            run was not priced.
        wall_clock_ms: the same run overlap-accounted (equals
            :attr:`serial_ms` unless the scheme fans legs out
            concurrently); ``None`` when the run was not priced.
        server_operations: server operations the run made, as
            :class:`CostMeter` counted them.
        leakage: online leakage-monitor verdicts, when the run was
            watched.
        deployment: the scheme's
            :meth:`~repro.api.protocols.Scheme.deployment` section after
            the run (a cluster's layout, load and budget); ``None`` for
            a single node.
    """

    scheme: str
    trace: str
    operations: int = 0
    blocks_downloaded: int = 0
    blocks_uploaded: int = 0
    errors: int = 0
    mismatches: int = 0
    client_peak_blocks: int | None = None
    elapsed_seconds: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)
    fault_counters: dict[str, int] = field(default_factory=dict)
    serial_ms: float | None = None
    wall_clock_ms: float | None = None
    server_operations: int = 0
    leakage: list[LeakageReport] = field(default_factory=list)
    deployment: dict | None = None

    @property
    def blocks_total(self) -> int:
        """Total block transfers."""
        return self.blocks_downloaded + self.blocks_uploaded

    @property
    def blocks_per_operation(self) -> float:
        """Average block transfers per logical query."""
        if self.operations == 0:
            return 0.0
        return self.blocks_total / self.operations

    @property
    def error_rate(self) -> float:
        """Fraction of queries that errored."""
        if self.operations == 0:
            return 0.0
        return self.errors / self.operations

    @property
    def latency_summary(self) -> LatencySummary | None:
        """Tail statistics of the recorded latencies, if any were taken."""
        if not self.latencies_ms:
            return None
        return LatencySummary.from_values(self.latencies_ms)

    def overhead_versus(self, baseline_blocks_per_op: float) -> float:
        """Block overhead relative to a baseline (usually plaintext = 1)."""
        if baseline_blocks_per_op <= 0:
            raise ValueError("baseline must be positive")
        return self.blocks_per_operation / baseline_blocks_per_op

    @property
    def leakage_tripped(self) -> bool:
        """True when any online monitor exceeded its ε-implied ceiling."""
        return any(report.tripped for report in self.leakage)

    def to_dict(self) -> dict:
        """The JSON view (``repro run --json``), each figure once."""
        summary = self.latency_summary
        data = {
            "scheme": self.scheme,
            "trace": self.trace,
            "operations": self.operations,
            "errors": self.errors,
            "mismatches": self.mismatches,
            "blocks_downloaded": self.blocks_downloaded,
            "blocks_uploaded": self.blocks_uploaded,
            "blocks_per_operation": self.blocks_per_operation,
            "server_operations": self.server_operations,
            "client_peak_blocks": self.client_peak_blocks,
            "elapsed_seconds": self.elapsed_seconds,
            "serial_ms": self.serial_ms,
            "wall_clock_ms": self.wall_clock_ms,
            "latency_ms": None if summary is None else summary.to_dict(),
            "fault_counters": dict(self.fault_counters),
            "leakage": [report.to_dict() for report in self.leakage],
        }
        if self.deployment is not None:
            data["deployment"] = self.deployment
        return data

    def to_rows(self, data: dict | None = None) -> list[list]:
        """``[metric, value]`` rows, rendered from :meth:`to_dict`."""
        from repro.simulation.reporting import _render, latency_rows_from

        data = self.to_dict() if data is None else data
        peak = data["client_peak_blocks"]
        rows = [
            ["scheme", data["scheme"]],
            ["workload", data["trace"]],
            ["operations", data["operations"]],
            ["errors (alpha events)", data["errors"]],
            ["mismatches", data["mismatches"]],
            ["blocks downloaded", data["blocks_downloaded"]],
            ["blocks uploaded", data["blocks_uploaded"]],
            ["blocks / operation", f"{data['blocks_per_operation']:.2f}"],
            ["server operations", data["server_operations"]],
            ["client peak blocks", "stateless" if peak is None else peak],
            ["elapsed seconds", f"{data['elapsed_seconds']:.3f}"],
        ]
        if data["serial_ms"] is not None:
            rows.append(["serial ms", f"{data['serial_ms']:.2f}"])
            rows.append(["wall-clock ms", f"{data['wall_clock_ms']:.2f}"])
        if data["latency_ms"] is not None:
            rows.extend(latency_rows_from(data["latency_ms"]))
        faults = data["fault_counters"]
        rows.extend([f"faults: {name}", faults[name]] for name in sorted(faults))
        for entry in data["leakage"]:
            verdict = " ".join(
                f"{key}={_render(value)}" for key, value in entry.items()
                if key != "attack"
            )
            rows.append([f"leakage: {entry['attack']}", verdict])
        deployment = data.get("deployment")
        if deployment is not None:
            budget = deployment["budget"]
            rows.extend([
                ["base scheme", deployment["base"]],
                ["placement", deployment["placement"]],
                ["shard groups", deployment["shards"]],
                ["replicas / group", deployment["replicas"]],
                ["records (n)", deployment["n"]],
                ["executor", deployment["executor"]],
                ["per-server storage blocks",
                 deployment["per_server_storage_blocks"]],
                ["total storage blocks", deployment["total_storage_blocks"]],
                ["shard load balance (Jain)",
                 f"{deployment['load_jain_index']:.3f}"],
                ["budget epochs", budget["epochs"]],
                ["budget draws", budget["queries"]],
                ["per-query epsilon", f"{budget['per_query_epsilon']:.4f}"],
                ["worst-shard epsilon spent",
                 f"{budget['worst_shard_epsilon']:.2f}"],
                ["colluding epsilon bound",
                 f"{budget['colluding_epsilon']:.2f}"],
            ])
        return rows

    def to_text(self, data: dict | None = None) -> str:
        """The summary table, and a cluster's per-shard table."""
        from repro.simulation.reporting import format_table

        data = self.to_dict() if data is None else data
        text = format_table(
            ["metric", "value"], self.to_rows(data),
            title=f"Run: {data['scheme']} over {data['trace']}",
        )
        deployment = data.get("deployment")
        if deployment is None:
            return text
        shards = format_table(
            ["shard", "records", "queries", "server ops", "failovers",
             "eps spent"],
            [
                [row["shard"], row["records"], row["queries"],
                 row["server_operations"], row["failovers"],
                 f"{row['epsilon_spent']:.2f}"]
                for row in deployment["per_shard"]
            ],
            title="Per-shard load",
        )
        return text + "\n\n" + shards


class CostMeter:
    """Convert a scheme's server-operation delta into simulated time.

    The one place server operations become milliseconds.  Its callers:
    :func:`repro.simulation.harness.run_trace` (and through it
    ``repro run`` and ``repro audit``) and
    :class:`repro.serving.simulator.ServingSimulator`.  No scheme prices
    itself — a cluster counts operations and overlapped op-units, and
    :class:`NetworkBackend` keeps its own link time, which this reads.

    The delta is read off :meth:`~repro.api.protocols.Scheme.server_operations`,
    never counted here: a single-node scheme sums its servers' counters,
    a cluster returns the cumulative count its shard groups recorded
    (each group counts an operation once, at the entry point that caused
    it — see :mod:`repro.cluster.group`), so a charge that spans a
    reshard is what the servers did.
    When every server already runs over a :class:`NetworkBackend`, the
    backends' own accumulated milliseconds are authoritative: one
    roundtrip per *request* — a held upload and the downloads it rides
    with (``StorageServer.exchange``), or a lone round — plus the
    transfer of its bytes.  Each charge reads the backends the scheme
    has then, and the last delta of those a reshard retired, so its
    link time spans a reshard too.  Otherwise each *block* moved is
    priced at one roundtrip plus one block transfer under ``model``, and
    with no ``model`` nothing is priced (:attr:`priced` is false).  The two do
    not agree on a batched scheme: a K-block round is ``rtt + transfer(K
    blocks)`` on the backend and ``K · (rtt + transfer(block))`` here.

    Overlap: schemes whose :meth:`~repro.api.protocols.Scheme.wall_operations`
    diverges from their serial operation count (the cluster schemes
    under a parallel executor) are charged the *overlapped* wall-clock
    of each round; the serial figure is still metered so a report can
    show both.
    """

    def __init__(self, scheme: Scheme, model: NetworkModel | None) -> None:
        self._scheme = scheme
        self._per_op = (
            0.0 if model is None
            else model.rtt_ms + model.transfer_ms(scheme.block_size)
        )
        backends = [server.backend for server in scheme.servers()]
        linked = bool(backends) and all(isinstance(b, NetworkBackend) for b in backends)
        # The backends of the last charge and their link time then.
        self._network = backends if linked else None
        #: Whether a charge means anything: the servers run over network
        #: backends, or a ``model`` prices their operations.
        self.priced = linked or model is not None
        self._link_ms = sum(b.simulated_ms for b in backends) if linked else 0.0
        self._last_ops = scheme.server_operations()
        self._last_wall = scheme.wall_operations()
        #: Running totals of what :meth:`charge` returned.
        self.operations, self.wall_ms, self.serial_ms = 0, 0.0, 0.0

    def charge(self) -> tuple[int, float, float]:
        """``(operations, service_ms, serial_ms)`` since the last charge.

        ``service_ms`` is the wall-clock the round took (overlap-
        accounted); ``serial_ms`` is the cost with every leg run
        back-to-back.  They agree except for schemes that fan
        independent legs out concurrently.
        """
        operations = self._scheme.server_operations()
        ops_delta = operations - self._last_ops
        self._last_ops = operations
        wall = self._scheme.wall_operations()
        wall_delta = wall - self._last_wall
        self._last_wall = wall
        if self._network is not None:
            # The last charge's backends, retired ones included, plus
            # all the link time of any a reshard has added since.
            known = {id(backend) for backend in self._network}
            backends = [server.backend for server in self._scheme.servers()]
            added_ms = sum(
                backend.simulated_ms for backend in backends
                if id(backend) not in known
            )
            serial_ms = (
                sum(backend.simulated_ms for backend in self._network)
                - self._link_ms + added_ms
            )
            self._network = backends
            self._link_ms = sum(backend.simulated_ms for backend in backends)
            # The backends accumulate serially; scale by the scheme's
            # overlap ratio so racing legs overlap here too.
            scale = (wall_delta / ops_delta) if ops_delta > 0 else 1.0
            service_ms = serial_ms * scale
        else:
            serial_ms = ops_delta * self._per_op
            service_ms = wall_delta * self._per_op
        self.operations += ops_delta
        self.wall_ms += service_ms
        self.serial_ms += serial_ms
        return ops_delta, service_ms, serial_ms
