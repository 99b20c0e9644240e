"""The deterministic discrete-event serving simulator.

One scheme instance is modelled as a worker with one or more *dispatch
lanes* (the schemes are synchronous state machines; concurrency lives
in the *queueing and pipelining*, not inside a query).  Events —
request arrivals, batch-window wake-ups, dispatch completions —
advance a simulated clock; each dispatch occupies a lane for the time
its server operations cost under the network model, using exactly the
accounting of :class:`~repro.storage.backends.NetworkBackend` (one
roundtrip per request plus the serialization of its bytes).

Pipelining across rounds: the scheduler's
:attr:`~repro.serving.schedulers.RequestScheduler.pipeline_depth` is
the number of lanes.  The lock-step schedulers (fifo/window) keep the
historical single-lane behaviour — round N+1 waits for round N — while
the continuous batcher keeps up to ``max_in_flight`` dispatch windows
open at once, so new arrivals are admitted into in-flight windows and
a slow leg no longer stalls the whole pipeline.  Scheme execution
still happens in dispatch order (and every executor runs a stage's legs
in submission order), only the simulated occupancy windows overlap —
which is what keeps admission, dispatch and completion order bit-stable
across the serial and parallel executors.

Admission control: before a request enqueues, the scheduler's
``try_admit`` may refuse it.  Refused requests are *shed* — counted
per tenant in the report's fairness section, never served — which is
how an open-loop Poisson flood produces bounded queues and bounded
tails instead of unbounded queue growth.

Dispatch groups are routed through the batched protocol entry points
(``query_many`` / ``read_many`` / ``write_many`` / ``get_many``), which
is what lets ``BatchDPIR`` download one pad-set union for a whole group
instead of one pad set per request.

Determinism: the event heap is tie-broken by an insertion counter and
all randomness is pre-drawn by the arrival plans, so identical inputs
replay identical reports.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Sequence

from repro.api.protocols import PrivateIR, PrivateKVS, PrivateRAM, Scheme
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.serving.load import ArrivalPlan
from repro.serving.report import ServingReport, TenantReport
from repro.serving.requests import Request
from repro.serving.schedulers import RequestScheduler
from repro.simulation.metrics import CostMeter, LatencySummary
from repro.storage.faults import scheme_fault_counters
from repro.storage.network import LAN, NetworkModel
from repro.workloads.kv_traces import KVOperation, KVOpKind
from repro.workloads.trace import Operation, OpKind

_ARRIVE, _COMPLETE, _WAKE = 0, 1, 2


class ClientSession:
    """One tenant: a sequence of operations plus an arrival plan."""

    def __init__(
        self,
        tenant: str,
        operations: Sequence[Operation | KVOperation],
        plan: ArrivalPlan,
    ) -> None:
        self.tenant = tenant
        self.operations = list(operations)
        self.plan = plan


def _execute_batch(scheme: Scheme, batch: list[Request]) -> None:
    """Run a dispatch group through the scheme's batched entry points.

    Consecutive same-kind runs stay grouped (so a read-write stream keeps
    its ordering) and error flags are recorded on the requests.
    """
    if isinstance(scheme, PrivateIR):
        indices = []
        for request in batch:
            operation = request.operation
            if not isinstance(operation, Operation) or operation.kind is not OpKind.READ:
                raise ValueError(
                    f"IR schemes only serve reads, got {operation!r}"
                )
            indices.append(operation.index)
        answers = scheme.query_many(indices)
        for request, answer in zip(batch, answers):
            request.errored = answer is None
        return
    if isinstance(scheme, PrivateRAM):
        for kind, group in itertools.groupby(batch, lambda r: r.operation.kind):
            run = list(group)
            if kind is OpKind.READ:
                scheme.read_many([r.operation.index for r in run])
            else:
                scheme.write_many(
                    [(r.operation.index, r.operation.value) for r in run]
                )
        return
    if isinstance(scheme, PrivateKVS):
        for kind, group in itertools.groupby(batch, lambda r: r.operation.kind):
            run = list(group)
            if kind is KVOpKind.GET:
                scheme.get_many([r.operation.key for r in run])
            else:
                for request in run:
                    scheme.put(request.operation.key, request.operation.value)
        return
    raise TypeError(
        f"{type(scheme).__name__} implements no servable protocol"
    )


class ServingSimulator:
    """Run concurrent sessions against one scheme under a scheduler.

    Args:
        scheme: any :class:`~repro.api.protocols.Scheme` instance.
        sessions: the tenants and their operation streams.
        scheduler: queueing policy (FIFO or batching).
        network: link model pricing server operations; defaults to
            :data:`~repro.storage.network.LAN`.  Ignored when the scheme
            already runs over network backends, whose own model wins.
        network_label: name recorded in the report.
        tracer: optional :class:`~repro.obs.tracer.Tracer`; each
            dispatch emits one ``serve.round`` span carrying the
            simulated clock (start = dispatch, end = completion) and
            queue-wait / service / serial annotations.  Defaults to the
            no-op tracer.
        registry: optional :class:`~repro.obs.metrics.MetricsRegistry`;
            admits / completions / errors are counted as requests flow.
    """

    def __init__(
        self,
        scheme: Scheme,
        sessions: Sequence[ClientSession],
        scheduler: RequestScheduler,
        network: NetworkModel | None = None,
        network_label: str = "lan",
        tracer: Tracer | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if not isinstance(scheme, Scheme):
            raise TypeError(
                f"{type(scheme).__name__} does not implement the "
                "repro.api.Scheme protocol"
            )
        self._scheme = scheme
        self._sessions = list(sessions)
        tenants = [session.tenant for session in self._sessions]
        if len(set(tenants)) != len(tenants):
            raise ValueError("session tenant labels must be unique")
        self._scheduler = scheduler
        self._model = network if network is not None else LAN
        self._network_label = network_label
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._registry = registry
        if registry is not None:
            self._admitted, self._completed, self._errored, self._shed = (
                registry.counter(name, text) for name, text in (
                    ("repro_serve_admitted_total", "Requests admitted to the queue"),
                    ("repro_serve_completed_total", "Requests completed"),
                    ("repro_serve_errors_total", "Requests completed with errors"),
                    ("repro_serve_shed_total",
                     "Requests refused by admission control"),
                )
            )

    def run(self) -> ServingReport:
        """Simulate to completion and return the report.

        Per-session state sits in lists indexed by ``session_index``; the
        scheduler's methods are bound once and called on every event."""
        sessions = self._sessions
        operations = [session.operations for session in sessions]
        plans = [session.plan for session in sessions]
        reports = [TenantReport(tenant=session.tenant) for session in sessions]
        latencies: list[list[float]] = [[] for _ in sessions]
        heap: list[tuple[float, int, int, object]] = []
        ticket = itertools.count().__next__
        push = heapq.heappush
        pop = heapq.heappop

        def arrive(session_index: int, arrival: tuple[int, float]) -> None:
            op_index, time_ms = arrival
            if op_index < len(operations[session_index]):
                push(heap, (time_ms, ticket(), _ARRIVE,
                            (session_index, op_index)))

        for session_index, plan in enumerate(plans):
            for arrival in plan.initial_arrivals():
                arrive(session_index, arrival)

        scheme = self._scheme
        meter = CostMeter(scheme, self._model)
        charge = meter.charge
        scheduler = self._scheduler
        pending = scheduler.pending
        try_admit = scheduler.try_admit
        enqueue = scheduler.enqueue
        next_batch = scheduler.next_batch
        notify_complete = scheduler.notify_complete
        span = self._tracer.span
        counting = self._registry is not None
        requests: list[Request] = []

        depth = max(1, getattr(scheduler, "pipeline_depth", 1))
        in_flight = 0
        peak_in_flight = 0
        shed_total = 0
        last_ms = 0.0
        depth_area = 0.0
        max_depth = 0
        dispatches = 0
        last_dispatched: list[Request] = []
        makespan_ms = 0.0

        while heap:
            now_ms, _, kind, payload = pop(heap)
            depth_area += pending() * (now_ms - last_ms)
            last_ms = now_ms

            if kind == _ARRIVE:
                session_index, op_index = payload
                report = reports[session_index]
                request = Request(
                    report.tenant, operations[session_index][op_index],
                    now_ms, len(requests), session_index, op_index,
                )
                requests.append(request)
                report.requests += 1
                if not try_admit(request, now_ms):
                    # Shed: admission control refused the request.  It
                    # never queues; the session's plan still advances so
                    # a closed loop is not deadlocked by a refusal.
                    request.shed = True
                    shed_total += 1
                    report.shed += 1
                    if counting:
                        self._shed.inc(tenant=report.tenant)
                    with span("serve.shed", tenant=report.tenant) as shed_span:
                        shed_span.set_sim(now_ms, now_ms)
                    follow = plans[session_index].after_completion(
                        op_index, now_ms
                    )
                    if follow is not None:
                        arrive(session_index, follow)
                else:
                    if counting:
                        self._admitted.inc(tenant=report.tenant)
                    wake_ms = enqueue(request, now_ms)
                    queued = pending()
                    if queued > max_depth:
                        max_depth = queued
                    if wake_ms is not None:
                        push(heap, (wake_ms, ticket(), _WAKE, None))
            elif kind == _COMPLETE:
                in_flight -= 1
                batch: list[Request] = payload
                notify_complete(batch, now_ms)
                makespan_ms = max(makespan_ms, now_ms)
                for request in batch:
                    request.completed_ms = now_ms
                    session_index = request.session_index
                    report = reports[session_index]
                    report.completed += 1
                    if counting:
                        self._completed.inc(tenant=request.tenant)
                    if request.errored:
                        report.errors += 1
                        if counting:
                            self._errored.inc(tenant=request.tenant)
                    latencies[session_index].append(
                        now_ms - request.arrival_ms
                    )
                    follow = plans[session_index].after_completion(
                        request.op_index, now_ms
                    )
                    if follow is not None:
                        arrive(session_index, follow)
            # _WAKE carries no payload; it only forces a dispatch check.

            while in_flight < depth:
                batch = next_batch(now_ms)
                if not batch:
                    break
                queue_wait = 0.0
                for request in batch:
                    request.dispatched_ms = now_ms
                    queue_wait += now_ms - request.arrival_ms
                with span(
                    "serve.round", round=dispatches, batch=len(batch)
                ) as round_span:
                    _execute_batch(scheme, batch)
                ops_delta, service_ms, serial_ms = charge()
                # Annotate after the executor legs ran so the span
                # carries the dispatch's simulated occupancy window.
                round_span.set_sim(now_ms, now_ms + service_ms)
                round_span.annotate(
                    queue_wait_ms=queue_wait / len(batch),
                    service_ms=service_ms,
                    serial_ms=serial_ms,
                    inflight=in_flight + 1,
                )
                dispatches += 1
                share = ops_delta / len(batch)
                for request in batch:
                    reports[request.session_index].server_ops += share
                last_dispatched = batch
                push(heap, (now_ms + service_ms, ticket(), _COMPLETE, batch))
                in_flight += 1
                peak_in_flight = max(peak_in_flight, in_flight)

        # The run is over: an upload the scheme held for a next request
        # that is not coming goes now.  It is no request's latency, but
        # it is work the servers did — for the last dispatch group.
        scheme.flush()
        ops_delta = charge()[0]
        if last_dispatched:
            share = ops_delta / len(last_dispatched)
            for request in last_dispatched:
                reports[request.session_index].server_ops += share

        for report, values in zip(reports, latencies):
            if values:
                report.mean_latency_ms = sum(values) / len(values)
                report.max_latency_ms = max(values)

        completed = [r for r in requests if r.completed_ms is not None]
        return ServingReport(
            scheme=type(scheme).__name__,
            scheduler=scheduler.name,
            network=self._network_label,
            clients=len(sessions),
            requests=len(requests),
            completed=len(completed),
            errors=sum(1 for r in completed if r.errored),
            duration_ms=makespan_ms,
            latency=LatencySummary.from_values(
                [r.latency_ms for r in completed]
            ),
            queue_latency=LatencySummary.from_values(
                [r.queue_ms for r in completed]
            ),
            mean_queue_depth=(depth_area / makespan_ms) if makespan_ms > 0 else 0.0,
            max_queue_depth=max_depth,
            shed=shed_total,
            max_in_flight=peak_in_flight if dispatches else 0,
            dispatches=dispatches,
            server_operations=meter.operations,
            tenants=reports,
            faults=scheme_fault_counters(scheme),
            serial_ms=meter.serial_ms,
            wall_clock_ms=meter.wall_ms,
        )
