"""The named-workload catalogue shared by the run and serve drivers.

One place maps user-facing workload names (``uniform``, ``zipf``,
``ycsb-b``, …) to trace builders, so the CLI, :func:`repro.serve` and
future sweeps validate the same names and build the same traces instead
of each keeping a drifting copy of the dispatch table.
"""

from __future__ import annotations

from repro.crypto.rng import RandomSource
from repro.workloads import generators, kv_traces
from repro.workloads.kv_traces import KVTrace
from repro.workloads.trace import Trace

INDEX_WORKLOADS = ("uniform", "sequential", "zipf", "hotspot", "readwrite")
KV_WORKLOADS = ("ycsb-a", "ycsb-b", "ycsb-c", "insert-lookup")


def check_workload(
    name: str, kind: str, scheme: str, writable: bool
) -> None:
    """Reject a workload the scheme cannot run, before any trace is built.

    Args:
        name: the workload name.
        kind: the scheme's protocol, ``"ir"``, ``"ram"`` or ``"kvs"``.
        scheme: the scheme's name, for the message.
        writable: whether the scheme accepts writes.

    Raises:
        ValueError: for a KV workload on an IR or RAM scheme, or
            ``readwrite`` on an IR or read-only scheme.  (A KVS scheme
            takes index workload names as ``insert-lookup``.)
    """
    if kind != "kvs" and name in KV_WORKLOADS:
        raise ValueError(f"workload {name!r} needs a KVS scheme")
    if name == "readwrite" and (kind == "ir" or not writable):
        raise ValueError(
            f"scheme {scheme!r} is read-only; pick a read workload"
        )


def index_trace(
    name: str,
    universe: int,
    length: int,
    rng: RandomSource,
    write_fraction: float = 0.5,
    sequential_start: int = 0,
) -> Trace:
    """Build the named index-addressed workload.

    Args:
        name: one of :data:`INDEX_WORKLOADS`.
        universe: database size the trace addresses.
        length: operations to generate.
        rng: randomness source.
        write_fraction: write share of the ``readwrite`` workload.
        sequential_start: starting offset of the ``sequential`` scan
            (the serving layer offsets each tenant differently).

    Raises:
        ValueError: for unknown names.
    """
    if name == "uniform":
        return generators.uniform_trace(universe, length, rng)
    if name == "sequential":
        return generators.sequential_trace(
            universe, length, start=sequential_start
        )
    if name == "zipf":
        return generators.zipf_trace(universe, length, rng)
    if name == "hotspot":
        return generators.hotspot_trace(universe, length, rng)
    if name == "readwrite":
        return generators.read_write_trace(
            universe, length, rng, write_fraction=write_fraction
        )
    raise ValueError(f"unknown index workload {name!r}")


def kv_trace(
    name: str,
    capacity: int,
    length: int,
    rng: RandomSource,
    value_size: int = 32,
) -> KVTrace:
    """Build the named key-value workload.

    Index workload names are accepted as aliases for ``insert-lookup``
    (their natural KV analogue: a mixed insert/lookup stream over the
    same operation budget).

    Args:
        name: one of :data:`KV_WORKLOADS` or :data:`INDEX_WORKLOADS`.
        capacity: the store's key capacity.
        length: total operation budget (inserts plus lookups).
        rng: randomness source.
        value_size: bytes per value.

    Raises:
        ValueError: for unknown names.
    """
    if name in INDEX_WORKLOADS:
        name = "insert-lookup"
    keys = max(1, min(capacity, length) // 2)
    if name.startswith("ycsb-") and name in KV_WORKLOADS:
        return kv_traces.ycsb_trace(
            keys, max(0, length - keys), rng,
            profile=name[-1].upper(), value_size=value_size,
        )
    if name == "insert-lookup":
        return kv_traces.insert_then_lookup_trace(
            keys, max(0, length - keys), rng, value_size=value_size
        )
    raise ValueError(f"unknown KV workload {name!r}")
