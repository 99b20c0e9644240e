"""Drive a scheme over a workload trace with correctness checking.

:func:`run_trace` is the one trace driver — ``repro run`` (cluster
schemes included), ``repro audit`` and the experiments all call it.  It
dispatches on the :mod:`repro.api` protocols:

* :class:`~repro.api.protocols.PrivateIR` — ``query`` / ``query_many``
  (DP-IR, strawman, linear PIR, batch/multi-server/sharded DP-IR).
* :class:`~repro.api.protocols.PrivateRAM` — ``read`` / ``read_many`` /
  ``write`` (DP-RAM, Path ORAM, plaintext RAM).
* :class:`~repro.api.protocols.PrivateKVS` — ``get`` / ``get_many`` /
  ``put`` (DP-KVS, ORAM-KVS, plaintext KVS).

Operation counters, multi-server aggregation and client-storage figures
all come from the shared :class:`~repro.api.protocols.Scheme` surface —
no attribute probing.  Every run keeps a client-side reference model (a
plain dict) and counts mismatches, so the experiments measure
privacy/bandwidth of schemes that are *demonstrably correct* on the same
trace.  Latency is what :class:`~repro.simulation.metrics.CostMeter`
charges for each round.
"""

from __future__ import annotations

import time
from itertools import groupby
from typing import Iterator, NamedTuple, Sequence

from repro.api.protocols import PrivateIR, PrivateKVS, PrivateRAM, Scheme
from repro.simulation.metrics import CostMeter, RunMetrics
from repro.storage.faults import scheme_fault_counters
from repro.storage.network import NetworkModel
from repro.workloads.kv_traces import KVOpKind, KVTrace
from repro.workloads.trace import OpKind, Trace


class _Protocol(NamedTuple):
    """How the driver speaks one protocol."""

    read: object  # the trace's read kind
    one: str  # single-read entry point
    many: str  # batched-read entry point
    write: str | None  # write entry point (None: reads only)
    operand: str  # the operation field reads and writes address
    none_is_error: bool  # a None answer is an error event (IR's α)
    checks_absent: bool  # an operand the model lacks must read None


_IR = _Protocol(OpKind.READ, "query", "query_many", None, "index", True, False)
_RAM = _Protocol(OpKind.READ, "read", "read_many", "write", "index", False, False)
_KVS = _Protocol(KVOpKind.GET, "get", "get_many", "put", "key", False, True)


def _protocol(scheme: Scheme, trace: Trace | KVTrace) -> _Protocol:
    if isinstance(trace, KVTrace):
        if not isinstance(scheme, PrivateKVS):
            raise TypeError(f"{type(scheme).__name__} cannot run a KV trace")
        return _KVS
    if isinstance(scheme, PrivateIR):
        return _IR
    if isinstance(scheme, PrivateRAM):
        return _RAM
    raise TypeError(f"{type(scheme).__name__} implements no runnable protocol")


def _rounds(trace, read: object, batch: int) -> Iterator[list]:
    """Consecutive reads in rounds of up to ``batch``; each write alone."""
    for reads, group in groupby(trace, lambda operation: operation.kind is read):
        run, size = list(group), batch if reads else 1
        for start in range(0, len(run), size):
            yield run[start:start + size]


def run_trace(
    scheme: Scheme,
    trace: Trace | KVTrace,
    initial: Sequence[bytes] | None = None,
    *,
    batch: int = 1,
    network: NetworkModel | None = None,
) -> RunMetrics:
    """Run ``trace`` against ``scheme``, dispatching on its protocol.

    Args:
        scheme: a :class:`~repro.api.protocols.PrivateIR`,
            :class:`~repro.api.protocols.PrivateRAM` or (for a
            :class:`KVTrace`) :class:`~repro.api.protocols.PrivateKVS`.
        trace: the workload; an IR scheme's must be read-only.
        initial: the database the scheme starts from, seeding the
            reference model.  A read is checked when the model holds its
            index — without ``initial``, only indices the trace wrote.
            A KV get is always checked (an absent key must read ``None``).
        batch: consecutive reads go out in rounds of up to ``batch``; a
            round of one through the single-op entry point (``query`` /
            ``read`` / ``get``), a longer one through ``*_many``.  Every
            write goes alone.
        network: link model pricing each round's operations when the
            servers are not network-backed; with neither, no latency is
            recorded.

    Raises:
        TypeError: if the scheme implements no protocol that runs
            ``trace``.
        ValueError: on a write in an IR trace.
    """
    protocol = _protocol(scheme, trace)
    if batch < 1:
        raise ValueError(f"batch must be positive, got {batch}")
    one = getattr(scheme, protocol.one)
    many = getattr(scheme, protocol.many)
    write = getattr(scheme, protocol.write) if protocol.write else None
    operand = protocol.operand
    reference = {i: bytes(block) for i, block in enumerate(initial or ())}
    metrics = RunMetrics(scheme=type(scheme).__name__, trace=trace.name)
    reads_before, writes_before = scheme.server_counters()
    meter = CostMeter(scheme, network)
    latencies = metrics.latencies_ms if meter.priced else None
    started = time.perf_counter()
    for round_ops in _rounds(trace, protocol.read, batch):
        first = round_ops[0]
        if first.kind is not protocol.read:
            if write is None:
                raise ValueError("IR schemes only support reads")
            write(getattr(first, operand), first.value)
            reference[getattr(first, operand)] = first.value
        else:
            operands = [getattr(operation, operand) for operation in round_ops]
            answers = many(operands) if len(operands) > 1 else [one(operands[0])]
            for target, answer in zip(operands, answers):
                if answer is None and protocol.none_is_error:
                    metrics.errors += 1
                elif protocol.checks_absent or target in reference:
                    if answer != reference.get(target):
                        metrics.mismatches += 1
        metrics.operations += len(round_ops)
        if latencies is not None:
            round_ms = meter.charge()[1]
            latencies.extend([round_ms] * len(round_ops))
    scheme.flush()  # the last upload, so the counters below are complete
    meter.charge()
    metrics.elapsed_seconds = time.perf_counter() - started
    reads_after, writes_after = scheme.server_counters()
    metrics.blocks_downloaded = reads_after - reads_before
    metrics.blocks_uploaded = writes_after - writes_before
    metrics.client_peak_blocks = scheme.client_peak_blocks
    metrics.fault_counters = scheme_fault_counters(scheme)
    metrics.server_operations = meter.operations
    metrics.deployment = scheme.deployment()
    if meter.priced:
        metrics.serial_ms, metrics.wall_clock_ms = meter.serial_ms, meter.wall_ms
    return metrics
