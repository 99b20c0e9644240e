"""What a serving run measured: throughput, queues, tails, fairness."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.simulation.metrics import LatencySummary
from repro.simulation.reporting import format_table, latency_rows_from


@dataclass
class TenantReport:
    """Per-tenant isolation counters.

    Attributes:
        tenant: session label.
        requests: requests the tenant offered (including shed ones).
        completed: requests answered.
        errors: requests that hit the scheme's error event.
        shed: requests admission control refused — visible drop
            accounting, not silent queue growth.
        mean_latency_ms: average arrival-to-completion time.
        max_latency_ms: the tenant's worst request.
        server_ops: server operations attributed to the tenant (a
            shared dispatch's cost splits evenly across its requests,
            so this may be fractional).
    """

    tenant: str
    requests: int = 0
    completed: int = 0
    errors: int = 0
    shed: int = 0
    mean_latency_ms: float = 0.0
    max_latency_ms: float = 0.0
    server_ops: float = 0.0


@dataclass
class ServingReport:
    """The outcome of one :class:`~repro.serving.simulator.ServingSimulator` run.

    All times are simulated milliseconds under the run's network model,
    so reports are deterministic and hardware-independent.
    """

    scheme: str
    scheduler: str
    network: str
    clients: int
    requests: int
    completed: int
    errors: int
    duration_ms: float
    latency: LatencySummary
    queue_latency: LatencySummary
    mean_queue_depth: float
    max_queue_depth: int
    dispatches: int
    server_operations: int
    tenants: list[TenantReport] = field(default_factory=list)
    #: Requests admission control refused across all tenants.  Non-zero
    #: only under a scheduler with admission caps (the continuous
    #: batcher); shed requests count in :attr:`requests` but never in
    #: :attr:`completed`.
    shed: int = 0
    #: Peak dispatch groups simultaneously in flight (1 for the
    #: lock-step fifo/window schedulers; up to the continuous
    #: batcher's ``max_in_flight``).
    max_in_flight: int = 1
    #: Injected/observed fault totals (``failed_operations``,
    #: ``corrupted_reads``, cluster ``failovers`` …); empty for a
    #: fault-free run.
    faults: dict = field(default_factory=dict)
    #: Total dispatch service time with every leg run back-to-back.
    serial_ms: float = 0.0
    #: Total dispatch service time actually charged — overlap-accounted
    #: for schemes that fan legs out concurrently (equals
    #: :attr:`serial_ms` otherwise).
    wall_clock_ms: float = 0.0
    #: Online leakage-monitor verdicts
    #: (:class:`~repro.obs.monitor.LeakageReport` instances) when the
    #: run was served with ``monitor=True``; empty otherwise.
    leakage: list = field(default_factory=list)

    @property
    def leakage_tripped(self) -> bool:
        """True when any online monitor exceeded its ε-implied ceiling."""
        return any(getattr(report, "tripped", False) for report in self.leakage)

    @property
    def overlap_speedup(self) -> float:
        """Serial over wall-clock dispatch time (1.0 when nothing
        overlapped)."""
        if self.wall_clock_ms <= 0.0:
            return 1.0
        return self.serial_ms / self.wall_clock_ms

    @property
    def throughput_rps(self) -> float:
        """Completed requests per simulated second."""
        if self.duration_ms <= 0:
            return 0.0
        return self.completed / (self.duration_ms / 1000.0)

    @property
    def mean_batch_size(self) -> float:
        """Average requests per dispatch."""
        if self.dispatches == 0:
            return 0.0
        return self.completed / self.dispatches

    @property
    def ops_per_request(self) -> float:
        """Server operations per completed request — the batching payoff."""
        if self.completed == 0:
            return 0.0
        return self.server_operations / self.completed

    @property
    def fairness_index(self) -> float:
        """Jain's fairness index over per-tenant mean latencies.

        1.0 means every tenant saw the same mean latency; ``1/k`` is the
        worst case where one of ``k`` tenants absorbed all the delay.
        Tenants that completed nothing are excluded.
        """
        means = [t.mean_latency_ms for t in self.tenants if t.completed]
        if not means:
            return 1.0
        square_of_sum = sum(means) ** 2
        sum_of_squares = sum(m * m for m in means)
        if sum_of_squares == 0.0:
            return 1.0
        return square_of_sum / (len(means) * sum_of_squares)

    @property
    def fairness(self) -> dict:
        """Per-tenant isolation view: Jain index plus shed accounting.

        Admission-control drops are reported here per tenant (offered
        versus shed) so an open-loop flood that gets load-shed is
        *visible* in the fairness section rather than silently absorbed
        into queue depth.
        """
        return {
            "index": self.fairness_index,
            "shed_total": self.shed,
            "tenants": [
                {
                    "tenant": t.tenant,
                    "offered": t.requests,
                    "shed": t.shed,
                    "shed_fraction": (
                        t.shed / t.requests if t.requests else 0.0
                    ),
                }
                for t in self.tenants
            ],
        }

    def to_rows(self, data: dict | None = None) -> list[list]:
        """``[metric, value]`` rows for the summary table.

        Rendered from the :meth:`to_dict` view — the JSON export is the
        single source of truth, so every figure the text table shows is
        also present (same value, machine-readable) under ``--json``.
        """
        if data is None:
            data = self.to_dict()
        rows = [
            ["scheme", data["scheme"]],
            ["scheduler", data["scheduler"]],
            ["network", data["network"]],
            ["clients", data["clients"]],
            ["requests", data["requests"]],
            ["completed", data["completed"]],
            ["shed (admission)", data["shed"]],
            ["errors (alpha events)", data["errors"]],
            ["duration ms", f"{data['duration_ms']:.2f}"],
            ["throughput req/s", f"{data['throughput_rps']:.1f}"],
        ]
        rows.extend(latency_rows_from(data["latency_ms"]))
        rows.extend([
            ["queue wait p95 ms", f"{data['queue_latency_ms']['p95']:.2f}"],
            ["queue depth mean", f"{data['mean_queue_depth']:.2f}"],
            ["queue depth max", data["max_queue_depth"]],
            ["in-flight max", data["max_in_flight"]],
            ["dispatches", data["dispatches"]],
            ["mean batch size", f"{data['mean_batch_size']:.2f}"],
            ["server operations", data["server_operations"]],
            ["serial ms", f"{data['serial_ms']:.2f}"],
            ["wall-clock ms", f"{data['wall_clock_ms']:.2f}"],
            ["overlap speedup", f"{data['overlap_speedup']:.2f}x"],
            ["ops / request", f"{data['ops_per_request']:.2f}"],
            ["tenant fairness (Jain)", f"{data['fairness_index']:.3f}"],
        ])
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
        """Render the summary and per-tenant tables (from :meth:`to_dict`)."""
        data = self.to_dict()
        summary = format_table(
            ["metric", "value"],
            self.to_rows(data),
            title=(
                f"Serving: {data['scheme']} via "
                f"{data['scheduler']} scheduler"
            ),
        )
        tenant_rows = [
            [t["tenant"], t["requests"], t["completed"], t["errors"],
             t["shed"],
             f"{t['mean_latency_ms']:.2f}", f"{t['max_latency_ms']:.2f}",
             f"{t['server_ops']:.1f}"]
            for t in data["tenants"]
        ]
        tenants = format_table(
            ["tenant", "requests", "completed", "errors", "shed", "mean ms",
             "max ms", "server ops"],
            tenant_rows,
            title="Per-tenant isolation",
        )
        return summary + "\n\n" + tenants

    def to_dict(self) -> dict:
        """A JSON-serializable view (for ``--json``).

        The single source of truth: :meth:`to_rows` / :meth:`to_text`
        render from this mapping, so the text table can never show a
        figure the JSON export omits.
        """
        return {
            "scheme": self.scheme,
            "scheduler": self.scheduler,
            "network": self.network,
            "clients": self.clients,
            "requests": self.requests,
            "completed": self.completed,
            "errors": self.errors,
            "shed": self.shed,
            "duration_ms": self.duration_ms,
            "throughput_rps": self.throughput_rps,
            "latency_ms": self.latency.to_dict(),
            "queue_latency_ms": self.queue_latency.to_dict(),
            "faults": dict(self.faults),
            "queue_wait_p95_ms": self.queue_latency.p95_ms,
            "mean_queue_depth": self.mean_queue_depth,
            "max_queue_depth": self.max_queue_depth,
            "max_in_flight": self.max_in_flight,
            "dispatches": self.dispatches,
            "mean_batch_size": self.mean_batch_size,
            "server_operations": self.server_operations,
            "serial_ms": self.serial_ms,
            "wall_clock_ms": self.wall_clock_ms,
            "overlap_speedup": self.overlap_speedup,
            "ops_per_request": self.ops_per_request,
            "fairness_index": self.fairness_index,
            "fairness": self.fairness,
            "leakage": [report.to_dict() for report in self.leakage],
            "leakage_tripped": self.leakage_tripped,
            "tenants": [
                {
                    "tenant": t.tenant,
                    "requests": t.requests,
                    "completed": t.completed,
                    "errors": t.errors,
                    "shed": t.shed,
                    "mean_latency_ms": t.mean_latency_ms,
                    "max_latency_ms": t.max_latency_ms,
                    "server_ops": t.server_ops,
                }
                for t in self.tenants
            ],
        }
