"""repro — differentially private storage access with small overhead.

A full reproduction of Patel, Persiano and Yeo, *"What Storage Access
Privacy is Achievable with Small Overhead?"* (PODS 2019): the DP-IR,
DP-RAM and DP-KVS constructions, the lower bounds they match, the
oblivious two-choice hashing substrate, oblivious baselines (Path ORAM,
linear PIR), and the privacy-audit machinery used to verify every claim
empirically.

Quickstart::

    import repro

    ram = repro.build("dp_ram", n=1024)   # eps = O(log n), <= 3 blocks/query
    value = ram.read(7)
    ram.write(7, b"new".ljust(64, b"\\x00"))

Every scheme is registered in :mod:`repro.api` and constructible by name
via :func:`repro.build`; direct class construction (``DPRAM(blocks)``)
keeps working.  See README.md for the architecture overview and
``python -m repro experiments`` for the paper-versus-measured results.
"""

from repro.analysis.datasheet import PrivacyDatasheet, datasheet_for
from repro.analysis.ledger import BudgetExceededError, PrivacyLedger
from repro.api import (
    PrivateIR,
    PrivateKVS,
    PrivateRAM,
    Scheme,
    available_schemes,
    build,
    register_scheme,
    schemes,
)
from repro.baselines import (
    LinearScanPIR,
    ORAMKeyValueStore,
    PathORAM,
    PlaintextKVS,
    PlaintextRAM,
    RecursivePathORAM,
)
from repro.core import (
    BatchDPIR,
    BucketDPRAM,
    DPIR,
    DPIRParams,
    DPKVS,
    DPKVSParams,
    DPRAM,
    DPRAMParams,
    MultiServerDPIR,
    ReadOnlyDPRAM,
    ShardedDPIR,
    StrawmanIR,
)
from repro.cluster import ClusterIR, ClusterKVS, ClusterLedger
from repro.crypto import PRF, SeededRandomSource, SystemRandomSource
from repro.obs import (
    BudgetTimeline,
    LeakageReport,
    MetricsRegistry,
    NullTracer,
    Tracer,
    default_monitors,
    diff_traces,
    evaluate_slo,
    instrument_scheme,
    trace_profile,
    trace_summary,
    watch_scheme,
)
from repro.parallel import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    resolve_executor,
)
from repro.serving import (
    ContinuousBatchScheduler,
    RequestScheduler,
    ServingConfig,
    ServingReport,
    serve,
)
from repro.serving import scheduler_listings as schedulers
from repro.storage import (
    InMemoryBackend,
    NetworkBackend,
    ServerPool,
    StorageBackend,
    StorageServer,
    Transcript,
)
from repro.storage.network import LAN, MOBILE, WAN, NetworkModel

__version__ = "1.0.0"

__all__ = [
    "BatchDPIR",
    "BucketDPRAM",
    "BudgetExceededError",
    "BudgetTimeline",
    "ClusterIR",
    "ClusterKVS",
    "ClusterLedger",
    "ContinuousBatchScheduler",
    "DPIR",
    "DPIRParams",
    "DPKVS",
    "DPKVSParams",
    "DPRAM",
    "DPRAMParams",
    "Executor",
    "InMemoryBackend",
    "LAN",
    "LeakageReport",
    "LinearScanPIR",
    "MOBILE",
    "MetricsRegistry",
    "MultiServerDPIR",
    "NetworkBackend",
    "NetworkModel",
    "NullTracer",
    "ORAMKeyValueStore",
    "PRF",
    "ParallelExecutor",
    "PathORAM",
    "PlaintextKVS",
    "PlaintextRAM",
    "PrivacyDatasheet",
    "PrivacyLedger",
    "PrivateIR",
    "PrivateKVS",
    "PrivateRAM",
    "ReadOnlyDPRAM",
    "RecursivePathORAM",
    "RequestScheduler",
    "Scheme",
    "SeededRandomSource",
    "SerialExecutor",
    "ServerPool",
    "ServingConfig",
    "ServingReport",
    "ShardedDPIR",
    "StorageBackend",
    "StorageServer",
    "StrawmanIR",
    "SystemRandomSource",
    "Tracer",
    "Transcript",
    "WAN",
    "available_schemes",
    "build",
    "cluster",
    "datasheet_for",
    "default_monitors",
    "diff_traces",
    "evaluate_slo",
    "instrument_scheme",
    "register_scheme",
    "resolve_executor",
    "schedulers",
    "schemes",
    "serve",
    "trace_profile",
    "trace_summary",
    "watch_scheme",
]
