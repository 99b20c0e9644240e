"""Cluster run reporting: per-shard load, failover, budget, tails."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.cluster.ledger import ClusterBudgetReport
from repro.obs.monitor import LeakageReport
from repro.simulation.metrics import (
    DEFAULT_PERCENTILES,
    LatencySummary,
    percentile_map,
)
from repro.simulation.reporting import format_table, latency_rows_from


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index over per-shard loads.

    1.0 means perfectly even load; ``1/D`` means one of ``D`` shards
    absorbed everything — the quantitative form of the load-hiding gap
    the sharded construction gives up versus replication.  An all-zero
    load vector is trivially even (1.0).
    """
    if not values:
        return 1.0
    if any(value < 0 for value in values):
        raise ValueError("loads must be non-negative")
    sum_of_squares = sum(value * value for value in values)
    if sum_of_squares == 0.0:
        return 1.0
    return sum(values) ** 2 / (len(values) * sum_of_squares)


@dataclass
class ShardReport:
    """One shard group's slice of a cluster run."""

    shard: int
    records: int
    queries: int
    server_operations: int
    failovers: int
    epsilon_spent: float


@dataclass
class ClusterReport:
    """The outcome of one :func:`repro.cluster.service.cluster` run.

    Simulated milliseconds are what
    :class:`~repro.simulation.metrics.CostMeter` charged over the run —
    the replicas' link time over network backends, else one roundtrip
    plus serialization per slot access under the run's network model
    (the serving simulator's rule too) — so reports are deterministic.
    """

    scheme: str
    base: str
    placement: str
    shards: int
    replicas: int
    n: int
    requests: int
    completed: int
    errors: int
    #: Answers that disagreed with the reference model.  Zero whenever
    #: failover + authenticated storage hold; positive under *silent*
    #: (unauthenticated) corruption — the detected-vs-silent contrast.
    mismatches: int
    network: str
    latency: LatencySummary
    server_operations: int
    per_server_storage_blocks: int
    total_storage_blocks: int
    load_jain_index: float
    budget: ClusterBudgetReport
    shard_reports: list[ShardReport] = field(default_factory=list)
    faults: dict = field(default_factory=dict)
    #: Extra quantiles beyond the summary's fixed fields, keyed ``pXX``.
    percentiles: dict = field(default_factory=dict)
    #: The run's cross-shard fan-out pricing (``serial`` /
    #: ``parallel``).
    executor: str = "serial"
    #: Requests dispatched per round through the batched entry points.
    batch: int = 1
    #: Total simulated time with every shard leg run back-to-back.
    serial_ms: float = 0.0
    #: Total simulated time under the executor's overlap accounting
    #: (equals :attr:`serial_ms` for the serial executor).
    wall_clock_ms: float = 0.0
    #: Online leakage-monitor verdicts when the run was driven with
    #: ``monitor=True``; empty otherwise.
    leakage: list[LeakageReport] = field(default_factory=list)

    @property
    def leakage_tripped(self) -> bool:
        """True when any online monitor exceeded its ε-implied ceiling."""
        return any(report.tripped for report in self.leakage)

    @property
    def ops_per_request(self) -> float:
        """Server operations per completed request."""
        if self.completed == 0:
            return 0.0
        return self.server_operations / self.completed

    @property
    def overlap_speedup(self) -> float:
        """Serial over wall-clock time — the cross-shard parallel payoff
        (1.0 when nothing overlapped)."""
        if self.wall_clock_ms <= 0.0:
            return 1.0
        return self.serial_ms / self.wall_clock_ms

    def to_rows(self, data: dict | None = None) -> list[list]:
        """``[metric, value]`` rows for the summary table.

        Rendered from the :meth:`to_dict` view — the JSON export is the
        single source of truth, so every figure the text table shows is
        also present (same value, machine-readable) under ``--json``.
        """
        if data is None:
            data = self.to_dict()
        budget = data["budget"]
        rows = [
            ["scheme", data["scheme"]],
            ["base scheme", data["base"]],
            ["placement", data["placement"]],
            ["shard groups", data["shards"]],
            ["replicas / group", data["replicas"]],
            ["records (n)", data["n"]],
            ["requests", data["requests"]],
            ["completed", data["completed"]],
            ["errors (alpha events)", data["errors"]],
            ["mismatches", data["mismatches"]],
            ["network", data["network"]],
            ["executor", data["executor"]],
            ["dispatch batch", data["batch"]],
            ["serial ms", f"{data['serial_ms']:.2f}"],
            ["wall-clock ms", f"{data['wall_clock_ms']:.2f}"],
            ["overlap speedup", f"{data['overlap_speedup']:.2f}x"],
            ["server operations", data["server_operations"]],
            ["ops / request", f"{data['ops_per_request']:.2f}"],
            ["per-server storage blocks", data["per_server_storage_blocks"]],
            ["total storage blocks", data["total_storage_blocks"]],
            ["shard load balance (Jain)", f"{data['load_jain_index']:.3f}"],
            ["budget epochs", budget["epochs"]],
            ["per-query epsilon", f"{budget['per_query_epsilon']:.4f}"],
            ["worst-shard epsilon spent",
             f"{budget['worst_shard_epsilon']:.2f}"],
            ["colluding epsilon bound",
             f"{budget['colluding_epsilon']:.2f}"],
        ]
        rows.extend(latency_rows_from(data["latency_ms"]))
        faults = data["faults"]
        for name in sorted(faults):
            rows.append([f"faults: {name}", faults[name]])
        for entry in data.get("leakage", []):
            verdict = "TRIPPED" if entry["tripped"] else "ok"
            rows.append([
                f"leakage: {entry['attack']}",
                f"{verdict} emp={entry['empirical_success']:.3f} "
                f"bound={entry['bound']:.3f} trials={entry['trials']}",
            ])
        return rows

    def to_text(self) -> str:
        """Render the summary and per-shard tables (from :meth:`to_dict`)."""
        data = self.to_dict()
        summary = format_table(
            ["metric", "value"],
            self.to_rows(data),
            title=(
                f"Cluster: {data['shards']}x{data['replicas']} "
                f"{data['base']} shard groups "
                f"({data['placement']} placement)"
            ),
        )
        shard_rows = [
            [s["shard"], s["records"], s["queries"], s["server_operations"],
             s["failovers"], f"{s['epsilon_spent']:.2f}"]
            for s in data["shards_detail"]
        ]
        shards = format_table(
            ["shard", "records", "queries", "server ops", "failovers",
             "eps spent"],
            shard_rows,
            title="Per-shard load",
        )
        return summary + "\n\n" + shards

    def to_dict(self) -> dict:
        """A JSON-serializable view (for ``--json``).

        The single source of truth: :meth:`to_rows` / :meth:`to_text`
        render from this mapping, so the text table can never show a
        figure the JSON export omits.
        """
        return {
            "scheme": self.scheme,
            "base": self.base,
            "placement": self.placement,
            "shards": self.shards,
            "replicas": self.replicas,
            "n": self.n,
            "requests": self.requests,
            "completed": self.completed,
            "errors": self.errors,
            "mismatches": self.mismatches,
            "network": self.network,
            "executor": self.executor,
            "batch": self.batch,
            "serial_ms": self.serial_ms,
            "wall_clock_ms": self.wall_clock_ms,
            "overlap_speedup": self.overlap_speedup,
            "server_operations": self.server_operations,
            "ops_per_request": self.ops_per_request,
            "per_server_storage_blocks": self.per_server_storage_blocks,
            "total_storage_blocks": self.total_storage_blocks,
            "load_jain_index": self.load_jain_index,
            "latency_ms": self.latency.to_dict(),
            # The configurable quantile list, kept apart from the fixed
            # summary fields so each tail has exactly one source of truth.
            "percentiles": dict(self.percentiles),
            "budget": {
                "queries": self.budget.queries,
                "per_query_epsilon": self.budget.per_query_epsilon,
                "worst_shard_epsilon": self.budget.worst_shard_epsilon,
                "colluding_epsilon": self.budget.colluding_epsilon,
                "epochs": self.budget.epochs,
            },
            "faults": dict(self.faults),
            "leakage": [report.to_dict() for report in self.leakage],
            "leakage_tripped": self.leakage_tripped,
            "shards_detail": [
                {
                    "shard": s.shard,
                    "records": s.records,
                    "queries": s.queries,
                    "server_operations": s.server_operations,
                    "failovers": s.failovers,
                    "epsilon_spent": s.epsilon_spent,
                }
                for s in self.shard_reports
            ],
        }


def extra_percentiles(
    latencies: Sequence[float],
    fractions: Sequence[float] = DEFAULT_PERCENTILES,
) -> dict[str, float]:
    """The configurable quantile set for :attr:`ClusterReport.percentiles`."""
    return percentile_map(latencies, fractions)
