"""Drive schemes over workload traces with correctness checking.

The harness dispatches on the :mod:`repro.api` protocols:

* :class:`~repro.api.protocols.PrivateIR` — ``query`` (DP-IR, strawman,
  linear PIR, batch/multi-server/sharded DP-IR).
* :class:`~repro.api.protocols.PrivateRAM` — ``read``/``write`` (DP-RAM,
  Path ORAM, plaintext RAM).
* :class:`~repro.api.protocols.PrivateKVS` — ``get``/``put``/``delete``
  (DP-KVS, ORAM-KVS, plaintext KVS).

Operation counters, multi-server aggregation and client-storage figures
all come from the shared :class:`~repro.api.protocols.Scheme` surface —
no attribute probing.  Every run keeps a client-side reference model (a
plain dict) and counts mismatches, so the experiments measure
privacy/bandwidth of schemes that are *demonstrably correct* on the same
trace.
"""

from __future__ import annotations

import time

from repro.api.protocols import PrivateIR, PrivateKVS, PrivateRAM, Scheme
from repro.simulation.metrics import RunMetrics
from repro.storage.backends import NetworkBackend
from repro.storage.faults import scheme_fault_counters
from repro.workloads.kv_traces import KVOpKind, KVTrace
from repro.workloads.trace import OpKind, Trace


def simulated_network_ms(scheme: Scheme) -> float | None:
    """Total simulated link time across the scheme's servers.

    ``None`` when no server runs over a latency-accounting
    :class:`~repro.storage.backends.NetworkBackend` — the distinction
    lets callers tell "zero milliseconds" from "not simulated at all".
    """
    total = 0.0
    found = False
    for server in scheme.servers():
        backend = server.backend
        if isinstance(backend, NetworkBackend):
            total += backend.simulated_ms
            found = True
    return total if found else None


class _LatencyProbe:
    """Record per-operation simulated latency deltas into a metrics bundle.

    A no-op for purely in-memory schemes; over network backends each
    ``sample()`` appends the link time spent since the previous sample,
    giving the per-query response-time stream the tail statistics need.
    """

    def __init__(self, scheme: Scheme, metrics: RunMetrics) -> None:
        self._scheme = scheme
        self._metrics = metrics
        self._last = simulated_network_ms(scheme)

    def sample(self) -> None:
        if self._last is None:
            return
        now = simulated_network_ms(self._scheme)
        self._metrics.latencies_ms.append(now - self._last)
        self._last = now


def _price_overlap(
    scheme: Scheme, metrics: RunMetrics, wall_before: float
) -> None:
    """Fill the metrics' serial vs wall-clock figures for the run.

    Both are priced under the LAN reference link (one roundtrip plus
    one block transfer per operation) so they are comparable across
    schemes; they differ exactly when the scheme overlapped independent
    legs (:meth:`~repro.api.protocols.Scheme.wall_operations`).
    """
    from repro.storage.network import LAN

    per_op = LAN.rtt_ms + LAN.transfer_ms(scheme.block_size)
    metrics.serial_ms = metrics.blocks_total * per_op
    metrics.wall_clock_ms = (
        scheme.wall_operations() - wall_before
    ) * per_op


def _server_counters(scheme) -> tuple[int, int]:
    """(reads, writes) across every server the scheme exposes.

    A scheme with no provisioned servers counts zero operations — it is
    not an error (the old duck-typed probe silently *skipped* an empty
    ``pool``, which this replaces).
    """
    if not isinstance(scheme, Scheme):
        raise TypeError(
            f"{type(scheme).__name__} does not implement the "
            "repro.api.Scheme protocol"
        )
    return scheme.server_counters()


def run_trace(scheme: Scheme, trace, **kwargs) -> RunMetrics:
    """Run ``trace`` against ``scheme``, dispatching on its protocol.

    ``Trace`` workloads go to :func:`run_ir_trace` or
    :func:`run_ram_trace` depending on the scheme; :class:`KVTrace`
    workloads go to :func:`run_kv_trace`.  Keyword arguments pass
    through to the protocol-specific runner.
    """
    if isinstance(trace, KVTrace):
        if not isinstance(scheme, PrivateKVS):
            raise TypeError(
                f"{type(scheme).__name__} cannot run a KV trace"
            )
        return run_kv_trace(scheme, trace, **kwargs)
    if isinstance(scheme, PrivateIR):
        return run_ir_trace(scheme, trace, **kwargs)
    if isinstance(scheme, PrivateRAM):
        return run_ram_trace(scheme, trace, **kwargs)
    raise TypeError(
        f"{type(scheme).__name__} implements no runnable protocol"
    )


def run_ir_trace(
    scheme: PrivateIR, trace: Trace, expected: list[bytes] | None = None
) -> RunMetrics:
    """Run a read-only trace against an IR scheme.

    Args:
        scheme: a :class:`~repro.api.protocols.PrivateIR`.
        trace: the workload (must be read-only).
        expected: plaintext database for correctness checking; mismatches
            are counted only for non-errored queries.
    """
    reads_before, writes_before = _server_counters(scheme)
    wall_before = scheme.wall_operations()
    metrics = RunMetrics(scheme=type(scheme).__name__, trace=trace.name)
    probe = _LatencyProbe(scheme, metrics)
    started = time.perf_counter()
    for operation in trace:
        if operation.kind is not OpKind.READ:
            raise ValueError("IR schemes only support reads")
        answer = scheme.query(operation.index)
        probe.sample()
        metrics.operations += 1
        if answer is None:
            metrics.errors += 1
        elif expected is not None and answer != expected[operation.index]:
            metrics.mismatches += 1
    scheme.flush()  # the last upload, so the counters below are complete
    metrics.elapsed_seconds = time.perf_counter() - started
    reads_after, writes_after = _server_counters(scheme)
    metrics.blocks_downloaded = reads_after - reads_before
    metrics.blocks_uploaded = writes_after - writes_before
    metrics.client_peak_blocks = scheme.client_peak_blocks
    metrics.fault_counters = scheme_fault_counters(scheme)
    _price_overlap(scheme, metrics, wall_before)
    return metrics


def run_ram_trace(
    scheme: PrivateRAM, trace: Trace, initial: list[bytes] | None = None
) -> RunMetrics:
    """Run a read/write trace against a RAM scheme.

    Args:
        scheme: a :class:`~repro.api.protocols.PrivateRAM`.
        trace: the workload.
        initial: initial database contents for the reference model; when
            omitted, reads are only checked against writes the trace
            itself performed.
    """
    reads_before, writes_before = _server_counters(scheme)
    wall_before = scheme.wall_operations()
    metrics = RunMetrics(scheme=type(scheme).__name__, trace=trace.name)
    reference: dict[int, bytes] = (
        {i: bytes(b) for i, b in enumerate(initial)} if initial else {}
    )
    probe = _LatencyProbe(scheme, metrics)
    started = time.perf_counter()
    for operation in trace:
        if operation.kind is OpKind.READ:
            answer = scheme.read(operation.index)
            metrics.operations += 1
            if operation.index in reference and answer != reference[operation.index]:
                metrics.mismatches += 1
        else:
            scheme.write(operation.index, operation.value)
            reference[operation.index] = operation.value
            metrics.operations += 1
        probe.sample()
    scheme.flush()  # the last upload, so the counters below are complete
    metrics.elapsed_seconds = time.perf_counter() - started
    reads_after, writes_after = _server_counters(scheme)
    metrics.blocks_downloaded = reads_after - reads_before
    metrics.blocks_uploaded = writes_after - writes_before
    metrics.client_peak_blocks = scheme.client_peak_blocks
    metrics.fault_counters = scheme_fault_counters(scheme)
    _price_overlap(scheme, metrics, wall_before)
    return metrics


def run_kv_trace(
    scheme: PrivateKVS, trace: KVTrace, check: bool = True
) -> RunMetrics:
    """Run a key-value trace against a KVS scheme.

    Args:
        scheme: a :class:`~repro.api.protocols.PrivateKVS`.
        trace: the workload.
        check: maintain a reference dict and count mismatches, including
            missing-key lookups that must return ``None``.

    The protocol guarantees exact values — schemes strip their own
    storage padding — so the reference comparison is plain equality.
    """
    reads_before, writes_before = _server_counters(scheme)
    wall_before = scheme.wall_operations()
    metrics = RunMetrics(scheme=type(scheme).__name__, trace=trace.name)
    reference: dict[bytes, bytes] = {}
    probe = _LatencyProbe(scheme, metrics)
    started = time.perf_counter()
    for operation in trace:
        if operation.kind is KVOpKind.GET:
            answer = scheme.get(operation.key)
            metrics.operations += 1
            if check and answer != reference.get(operation.key):
                metrics.mismatches += 1
        else:
            scheme.put(operation.key, operation.value)
            reference[operation.key] = operation.value
            metrics.operations += 1
        probe.sample()
    scheme.flush()  # the last upload, so the counters below are complete
    metrics.elapsed_seconds = time.perf_counter() - started
    reads_after, writes_after = _server_counters(scheme)
    metrics.blocks_downloaded = reads_after - reads_before
    metrics.blocks_uploaded = writes_after - writes_before
    metrics.client_peak_blocks = scheme.client_peak_blocks
    metrics.fault_counters = scheme_fault_counters(scheme)
    _price_overlap(scheme, metrics, wall_before)
    return metrics
