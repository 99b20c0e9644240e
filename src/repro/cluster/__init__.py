"""Sharded + replicated multi-node deployment of any registered scheme.

The ROADMAP north star is a production-scale system; this package is
the deployment layer that takes any registered IR or KVS scheme and
runs it as **N shard groups × R replicas**::

    client query / key
         │
         ▼
    ShardRouter ── contiguous-range or hash placement maps the logical
         │         index / key to its owning shard group
         ▼
    shard group s ── R independently built base-scheme instances over
         │           the shard's ≈ n/D records; reads rotate across
         │           replicas and FAIL OVER on ServerFault or on an
         │           authenticated-decryption failure (tampering)
         ▼
    ClusterLedger ── per-shard ε ledgers composed into cluster-wide
                     budgets via repro.analysis.composition

Because :class:`~repro.cluster.scheme.ClusterIR` and
:class:`~repro.cluster.scheme.ClusterKVS` implement the ordinary
:mod:`repro.api` protocols, the harness, the conformance suite and the
:mod:`repro.serving` simulator drive a cluster unchanged — registered
as ``cluster_dp_ir`` / ``cluster_batch_dp_ir`` / ``cluster_dp_kvs``.
``reshard()`` and ``rebalance()`` migrate key ranges online; per-shard
load counters make the load-hiding gap of sharding (one hot shard
serves more traffic) measurable as a Jain index.

Privacy model, stated honestly: the per-shard pad splits as ``K/D`` so
each shard instance's exact budget over its ``n/D`` records equals the
single-server budget over ``n`` — but the *routing* of a query to its
owner shard is only hidden from non-colluding shard operators.  The
:class:`~repro.cluster.ledger.ClusterLedger` reports both that model's
binding budget (worst single shard) and the colluding upper bound.
An ``epsilon_cap`` is an *admission* check — an operation a touched
shard cannot afford is refused before anything runs — while every
draw that was served (failover retries included) is always recorded.

A cluster run is a registry build driven by the one trace driver, like
any other scheme's: ``repro.build("cluster_dp_ir", shard_count=4, …)``
and :func:`~repro.simulation.harness.run_trace`, or ``python -m repro
run --scheme cluster_dp_ir --shards 4``; the run record's cluster
section is :meth:`ClusterIR.deployment`.  The scaling table (``K/D``
ops, ``n/D`` storage, the single-server ε) and the failover curve are seeded tier-1 assertions
(``tests/integration/test_cluster_integration.py``); ``serve_cluster``
in ``BENCHMARK.json`` measures the cost.
"""

from repro.cluster.group import (
    DEFAULT_MAX_ATTEMPTS,
    GroupExhaustedError,
    KVShardGroup,
    ShardGroup,
)
from repro.cluster.ledger import ClusterBudgetReport, ClusterLedger
from repro.cluster.router import (
    HashRouter,
    RangeRouter,
    ShardRouter,
    make_router,
)
from repro.cluster.scheme import (
    ClusterIR,
    ClusterKVS,
    MigrationReport,
    jain_index,
)

__all__ = [
    "ClusterBudgetReport",
    "ClusterIR",
    "ClusterKVS",
    "ClusterLedger",
    "DEFAULT_MAX_ATTEMPTS",
    "GroupExhaustedError",
    "HashRouter",
    "KVShardGroup",
    "MigrationReport",
    "RangeRouter",
    "ShardGroup",
    "ShardRouter",
    "jain_index",
    "make_router",
]

