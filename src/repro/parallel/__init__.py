"""Cross-shard fan-out: one way to run a stage, two ways to price it.

The cluster layer runs N shard groups × R replicas; a multi-server
scheme reads from D replicas.  Each such step is a *stage* of
independent legs.  ``repro.parallel`` runs every stage the same way and
lets the caller choose how it is priced:

* :class:`~repro.parallel.executor.Executor` — the ``fan_out(tasks)``
  contract: run the legs on the caller's thread in submission order,
  capture per-task faults (:class:`~repro.storage.faults.ServerFault`,
  :class:`~repro.crypto.encryption.IntegrityError`) instead of
  aborting siblings, and record per-task timing.
* :class:`~repro.parallel.executor.SerialExecutor` — stage cost is the
  *sum* of the legs.
* :class:`~repro.parallel.executor.ParallelExecutor` — stage cost is the
  *max* over the legs plus dispatch overhead: the legs are priced as
  racing, as they would on separate servers.

Privacy invariant: executors change **wall-clock accounting only** —
never the sequence of mechanism draws, since every executor runs the
same legs in the same order.  The privacy ledger therefore charges
exactly the same draws whichever executor prices the stage, which is
what lets the tests assert *parallel wall-clock < serial* while
ops/request, storage and ε stay exactly invariant
(``tests/integration/test_parallel_integration.py``,
``tests/property/test_prop_parallel.py``).  The concurrency that does
matter to privacy — the interleaving of client requests — is the
serving scheduler's (:mod:`repro.serving`).

Entry points: ``executor=`` on :class:`~repro.cluster.scheme.ClusterIR`
/ :class:`~repro.cluster.scheme.ClusterKVS`, their registry builders and
:func:`repro.serve`, and the ``--executor`` CLI flag; ``serve_cluster`` in ``BENCHMARK.json`` measures the path.
"""

from repro.parallel.executor import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    TaskResult,
    resolve_executor,
)

__all__ = [
    "Executor",
    "ParallelExecutor",
    "SerialExecutor",
    "TaskResult",
    "resolve_executor",
]
