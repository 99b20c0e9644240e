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
from repro.simulation.metrics import LatencySummary
from repro.storage.backends import NetworkBackend
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


class _CostMeter:
    """Convert a dispatch's server-operation delta into simulated time.

    When every server already runs over a :class:`NetworkBackend`, the
    backends' own accumulated milliseconds are authoritative: one
    roundtrip per *request* — a held upload and the downloads it rides
    with (``StorageServer.exchange``), or a lone round — plus the
    transfer of its bytes.  Otherwise each *block* moved is priced at
    one roundtrip plus one block transfer under ``model``.  The two do
    not agree on a batched scheme: a K-block round is ``rtt + transfer(K
    blocks)`` on the backend and ``K · (rtt + transfer(block))`` here.

    Overlap: schemes whose :meth:`~repro.api.protocols.Scheme.wall_operations`
    diverges from their serial operation count (the cluster schemes
    under a parallel executor) occupy the worker for the *overlapped*
    wall-clock of each dispatch; the serial figure is still metered so
    the report can show both.
    """

    def __init__(self, scheme: Scheme, model: NetworkModel) -> None:
        self._scheme = scheme
        self._model = model
        backends = [server.backend for server in scheme.servers()]
        network = [b for b in backends if isinstance(b, NetworkBackend)]
        self._network = network if backends and len(network) == len(backends) else None
        self._last_ms = self._network_ms()
        self._last_ops = scheme.server_operations()
        self._last_wall = scheme.wall_operations()

    def _network_ms(self) -> float:
        if self._network is None:
            return 0.0
        return sum(backend.simulated_ms for backend in self._network)

    def charge(self) -> tuple[int, float, float]:
        """``(operations, service_ms, serial_ms)`` since the last charge.

        ``service_ms`` is the wall-clock the dispatch occupies the
        worker for (overlap-accounted); ``serial_ms`` is the cost with
        every leg run back-to-back.  They agree except for schemes that
        fan independent legs out concurrently.
        """
        operations = self._scheme.server_operations()
        ops_delta = operations - self._last_ops
        self._last_ops = operations
        wall = self._scheme.wall_operations()
        wall_delta = wall - self._last_wall
        self._last_wall = wall
        if self._network is not None:
            now_ms = self._network_ms()
            serial_ms = now_ms - self._last_ms
            self._last_ms = now_ms
            # The backends accumulate serially; scale by the scheme's
            # overlap ratio so racing legs overlap here too.
            scale = (wall_delta / ops_delta) if ops_delta > 0 else 1.0
            service_ms = serial_ms * scale
        else:
            per_op = self._model.rtt_ms + self._model.transfer_ms(
                self._scheme.block_size
            )
            serial_ms = ops_delta * per_op
            service_ms = wall_delta * per_op
        return ops_delta, service_ms, serial_ms


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
        for kind, run in _runs(batch, lambda r: r.operation.kind):
            if kind is OpKind.READ:
                scheme.read_many([r.operation.index for r in run])
            else:
                scheme.write_many(
                    [(r.operation.index, r.operation.value) for r in run]
                )
        return
    if isinstance(scheme, PrivateKVS):
        for kind, run in _runs(batch, lambda r: r.operation.kind):
            if kind is KVOpKind.GET:
                scheme.get_many([r.operation.key for r in run])
            else:
                for request in run:
                    scheme.put(request.operation.key, request.operation.value)
        return
    raise TypeError(
        f"{type(scheme).__name__} implements no servable protocol"
    )


def _runs(batch: list[Request], key) -> list[tuple[object, list[Request]]]:
    grouped: list[tuple[object, list[Request]]] = []
    for request in batch:
        kind = key(request)
        if grouped and grouped[-1][0] is kind:
            grouped[-1][1].append(request)
        else:
            grouped.append((kind, [request]))
    return grouped


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
            self._admitted = registry.counter(
                "repro_serve_admitted_total", "Requests admitted to the queue"
            )
            self._completed = registry.counter(
                "repro_serve_completed_total", "Requests completed"
            )
            self._errored = registry.counter(
                "repro_serve_errors_total", "Requests completed with errors"
            )
            self._shed = registry.counter(
                "repro_serve_shed_total",
                "Requests refused by admission control",
            )
        else:
            self._admitted = self._completed = self._errored = None
            self._shed = None

    def run(self) -> ServingReport:
        """Simulate to completion and return the report."""
        heap: list[tuple[float, int, int, object]] = []
        ticket = itertools.count()

        def push(time_ms: float, kind: int, payload: object) -> None:
            heapq.heappush(heap, (time_ms, next(ticket), kind, payload))

        for session_index, session in enumerate(self._sessions):
            plan_arrivals = session.plan.initial_arrivals()
            for op_index, time_ms in plan_arrivals:
                if op_index < len(session.operations):
                    push(time_ms, _ARRIVE, (session_index, op_index))

        meter = _CostMeter(self._scheme, self._model)
        scheduler = self._scheduler
        requests: list[Request] = []
        tenant_reports = {
            session.tenant: TenantReport(tenant=session.tenant)
            for session in self._sessions
        }
        tenant_latencies: dict[str, list[float]] = {
            session.tenant: [] for session in self._sessions
        }

        depth = max(1, getattr(scheduler, "pipeline_depth", 1))
        in_flight = 0
        peak_in_flight = 0
        shed_total = 0
        last_ms = 0.0
        depth_area = 0.0
        max_depth = 0
        dispatches = 0
        last_dispatched: list[Request] = []
        total_ops = 0
        total_wall_ms = 0.0
        total_serial_ms = 0.0
        makespan_ms = 0.0

        while heap:
            now_ms, _, kind, payload = heapq.heappop(heap)
            depth_area += scheduler.pending() * (now_ms - last_ms)
            last_ms = now_ms

            if kind == _ARRIVE:
                session_index, op_index = payload
                session = self._sessions[session_index]
                request = Request(
                    tenant=session.tenant,
                    operation=session.operations[op_index],
                    arrival_ms=now_ms,
                    sequence=len(requests),
                    session_index=session_index,
                    op_index=op_index,
                )
                requests.append(request)
                tenant_reports[session.tenant].requests += 1
                if not scheduler.try_admit(request, now_ms):
                    # Shed: admission control refused the request.  It
                    # never queues; the session's plan still advances so
                    # a closed loop is not deadlocked by a refusal.
                    request.shed = True
                    shed_total += 1
                    tenant_reports[session.tenant].shed += 1
                    if self._shed is not None:
                        self._shed.inc(tenant=session.tenant)
                    with self._tracer.span(
                        "serve.shed", tenant=session.tenant
                    ) as shed_span:
                        shed_span.set_sim(now_ms, now_ms)
                    follow = session.plan.after_completion(op_index, now_ms)
                    if follow is not None:
                        next_index, at_ms = follow
                        if next_index < len(session.operations):
                            push(at_ms, _ARRIVE, (session_index, next_index))
                else:
                    if self._admitted is not None:
                        self._admitted.inc(tenant=session.tenant)
                    wake_ms = scheduler.enqueue(request, now_ms)
                    max_depth = max(max_depth, scheduler.pending())
                    if wake_ms is not None:
                        push(wake_ms, _WAKE, None)
            elif kind == _COMPLETE:
                in_flight -= 1
                batch: list[Request] = payload
                scheduler.notify_complete(batch, now_ms)
                for request in batch:
                    request.completed_ms = now_ms
                    makespan_ms = max(makespan_ms, now_ms)
                    report = tenant_reports[request.tenant]
                    report.completed += 1
                    if self._completed is not None:
                        self._completed.inc(tenant=request.tenant)
                    if request.errored:
                        report.errors += 1
                        if self._errored is not None:
                            self._errored.inc(tenant=request.tenant)
                    tenant_latencies[request.tenant].append(request.latency_ms)
                    session = self._sessions[request.session_index]
                    follow = session.plan.after_completion(
                        request.op_index, now_ms
                    )
                    if follow is not None:
                        next_index, at_ms = follow
                        if next_index < len(session.operations):
                            push(at_ms, _ARRIVE,
                                 (request.session_index, next_index))
            # _WAKE carries no payload; it only forces a dispatch check.

            while in_flight < depth:
                batch = scheduler.next_batch(now_ms)
                if not batch:
                    break
                queue_wait = 0.0
                for request in batch:
                    request.dispatched_ms = now_ms
                    queue_wait += now_ms - request.arrival_ms
                with self._tracer.span(
                    "serve.round", round=dispatches, batch=len(batch)
                ) as round_span:
                    _execute_batch(self._scheme, batch)
                ops_delta, service_ms, serial_ms = meter.charge()
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
                total_ops += ops_delta
                total_wall_ms += service_ms
                total_serial_ms += serial_ms
                share = ops_delta / len(batch)
                for request in batch:
                    tenant_reports[request.tenant].server_ops += share
                last_dispatched = batch
                push(now_ms + service_ms, _COMPLETE, batch)
                in_flight += 1
                peak_in_flight = max(peak_in_flight, in_flight)

        # The run is over: an upload the scheme held for a next request
        # that is not coming goes now.  It is no request's latency, but
        # it is work the servers did — for the last dispatch group.
        self._scheme.flush()
        ops_delta, service_ms, serial_ms = meter.charge()
        total_ops += ops_delta
        total_wall_ms += service_ms
        total_serial_ms += serial_ms
        if last_dispatched:
            share = ops_delta / len(last_dispatched)
            for request in last_dispatched:
                tenant_reports[request.tenant].server_ops += share

        for tenant, latencies in tenant_latencies.items():
            report = tenant_reports[tenant]
            if latencies:
                report.mean_latency_ms = sum(latencies) / len(latencies)
                report.max_latency_ms = max(latencies)

        completed = [r for r in requests if r.completed_ms is not None]
        duration_ms = makespan_ms
        return ServingReport(
            scheme=type(self._scheme).__name__,
            scheduler=scheduler.name,
            network=self._network_label,
            clients=len(self._sessions),
            requests=len(requests),
            completed=len(completed),
            errors=sum(1 for r in completed if r.errored),
            duration_ms=duration_ms,
            latency=LatencySummary.from_values(
                [r.latency_ms for r in completed]
            ),
            queue_latency=LatencySummary.from_values(
                [r.queue_ms for r in completed]
            ),
            mean_queue_depth=(depth_area / duration_ms) if duration_ms > 0 else 0.0,
            max_queue_depth=max_depth,
            shed=shed_total,
            max_in_flight=peak_in_flight if dispatches else 0,
            dispatches=dispatches,
            server_operations=total_ops,
            tenants=[tenant_reports[s.tenant] for s in self._sessions],
            faults=scheme_fault_counters(self._scheme),
            serial_ms=total_serial_ms,
            wall_clock_ms=total_wall_ms,
        )
