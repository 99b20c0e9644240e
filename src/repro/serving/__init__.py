"""Concurrent multi-client serving: load generation, scheduling, reporting.

The ROADMAP north star is a system that serves heavy traffic from many
users, but the harness drives every scheme from a single sequential
client loop.  This package adds the missing serving regime as a
*deterministic discrete-event simulation*::

    N client sessions ──► load generator (open-loop Poisson /
         │                closed-loop think time) emits arrivals
         ▼
    request scheduler — one dispatch policy in three settings: fifo,
         │              window (batching window) and continuous
         ▼              (pipelined, admission caps)
    one scheme worker — batches routed through the ``query_many`` /
         │              ``read_many`` / ``get_many`` protocol entry
         │              points, so ``BatchDPIR`` fetches pad-set unions
         ▼              and ``MultiServerDPIR`` coalesces replica reads
    ServingReport — throughput, queue depth, per-tenant fairness, and
                    p50/p95/p99 latency from the network cost model

Simulated time comes from the same
:class:`~repro.simulation.metrics.CostMeter` the single-client
experiments use (on network backends, each request is one roundtrip
plus the transfer of its bytes; otherwise each block moved is one
roundtrip plus one block's transfer under the
:class:`~repro.storage.network.NetworkModel`), so serving numbers are
directly comparable to ``python -m repro run``.
Everything is seeded through :class:`~repro.crypto.rng.RandomSource`:
the same seed replays the same arrivals, batches and report.

Entry points: :func:`serve` (also re-exported as ``repro.serve``),
configured through a frozen :class:`ServingConfig`, and the
``python -m repro serve`` CLI subcommand.  The scheduler claims (window
beats FIFO, continuous outruns window, caps shed) are seeded tier-1
assertions on simulated figures; ``serve_cluster`` in
``BENCHMARK.json`` measures the cost.  ``fifo``, ``window`` (legacy
alias ``batch``) and ``continuous`` are three settings of
:class:`ContinuousBatchScheduler`, listed by :func:`scheduler_listings`
/ ``repro.schedulers()``; a custom policy is a :class:`RequestScheduler`
instance passed as ``ServingConfig(scheduler=...)``.
"""

from repro.serving.config import ServingConfig
from repro.serving.load import (
    ArrivalPlan,
    ClosedLoopLoad,
    LoadGenerator,
    OpenLoopLoad,
)
from repro.serving.report import ServingReport, TenantReport
from repro.serving.requests import Request
from repro.serving.schedulers import (
    ContinuousBatchScheduler,
    RequestScheduler,
    available_schedulers,
    build_scheduler,
    resolve_scheduler_name,
    scheduler_listings,
)
from repro.serving.service import resolve_scheme_name, serve
from repro.serving.simulator import ClientSession, ServingSimulator

__all__ = [
    "ArrivalPlan",
    "ClientSession",
    "ClosedLoopLoad",
    "ContinuousBatchScheduler",
    "LoadGenerator",
    "OpenLoopLoad",
    "Request",
    "RequestScheduler",
    "ServingConfig",
    "ServingReport",
    "ServingSimulator",
    "TenantReport",
    "available_schedulers",
    "build_scheduler",
    "resolve_scheduler_name",
    "scheduler_listings",
    "serve",
]
