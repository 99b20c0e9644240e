"""The unified scheme API: protocols, backends, registry and factory.

This package is the seam between scheme implementations and everything
that drives them (harness, CLI, examples, benchmarks)::

    consumers (harness / CLI / examples / benchmarks)
          │  talk only to…
          ▼
    repro.api  — PrivateIR / PrivateRAM / PrivateKVS protocols,
          │      repro.build(name, ...) factory, scheme registry
          ▼
    repro.core + repro.baselines — the constructions
          │  store blocks through…
          ▼
    repro.storage — StorageServer over pluggable StorageBackend
                    (in-memory, simulated network links, …)

Typical use::

    import repro

    ram = repro.build("dp_ram", n=4096, seed=7)
    ram.write(3, b"hello".ljust(64, b"\\x00"))
    assert ram.read(3).startswith(b"hello")

    for name in repro.available_schemes("kvs"):
        print(name)

New schemes register a builder with
:func:`~repro.api.registry.register_scheme` and implement the matching
protocol; nothing else in the library needs to learn about them.

The serving layer rides the same seam: :func:`repro.serving.serve` (also
reachable as ``repro.api.serve``) builds any registered scheme by name
and drives it with concurrent clients; because it dispatches through the
protocol ``*_many`` entry points, every scheme — including ones
registered by downstream code — is servable without extra wiring.

So does the cluster layer: :mod:`repro.cluster` composes any registered
IR/KVS scheme into shard groups with replicas, and the resulting
``ClusterIR`` / ``ClusterKVS`` are themselves registered
(``cluster_dp_ir`` …), so they pass the same conformance suite and are
servable like any single-node scheme.  :func:`schemes` lists the full
catalogue including the accepted alias spellings.
"""

from repro.api.protocols import PrivateIR, PrivateKVS, PrivateRAM, Scheme
from repro.api.registry import (
    SchemeListing,
    SchemeSpec,
    available_schemes,
    build,
    register_scheme,
    scheme_spec,
    schemes,
)
from repro.storage.backends import (
    BackendFactory,
    InMemoryBackend,
    NetworkBackend,
    NetworkBackendFactory,
    StorageBackend,
)

__all__ = [
    "BackendFactory",
    "InMemoryBackend",
    "NetworkBackend",
    "NetworkBackendFactory",
    "PrivateIR",
    "PrivateKVS",
    "PrivateRAM",
    "Scheme",
    "SchemeListing",
    "SchemeSpec",
    "StorageBackend",
    "available_schemes",
    "build",
    "register_scheme",
    "scheme_spec",
    "schemes",
    "serve",
]


def __getattr__(name: str) -> object:
    # Lazy: repro.serving consumes this package (registry, protocols,
    # backends), so importing it eagerly here would be a cycle.
    if name == "serve":
        from repro.serving import serve

        return serve
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
