"""Cross-shard parallel execution: pluggable executors + overlap accounting.

The cluster layer runs N shard groups × R replicas, but until this
package existed every shard-group sub-batch executed *sequentially*
inside one process — cross-shard parallelism was modelled in the
accounting only, never overlapped in wall-clock.  ``repro.parallel``
closes that gap with a small, pluggable abstraction:

* :class:`~repro.parallel.executor.Executor` — the ``fan_out(tasks)``
  contract: run independent legs, preserve ordering, capture per-task
  faults (:class:`~repro.storage.faults.ServerFault`,
  :class:`~repro.crypto.encryption.IntegrityError`) instead of
  aborting siblings, and record per-task timing.
* :class:`~repro.parallel.executor.SerialExecutor` — one leg after
  another; stage cost is the *sum* of the legs.
* :class:`~repro.parallel.executor.ParallelExecutor` — a real
  ``ThreadPoolExecutor``-backed fan-out; stage cost is the *max* over
  concurrent legs plus dispatch overhead.
* :class:`~repro.parallel.executor.SimulatedParallelExecutor` — runs
  legs in deterministic submission order but *accounts* them as
  overlapped; the executor the property tests use to prove serial and
  parallel paths are bit-identical.

Privacy invariant, stated honestly: executors change **wall-clock
accounting only** — never the sequence of mechanism draws.  A leg that
is causally dependent (a failover retry only exists because the
previous attempt failed) or that mutates shared client state executes
in deterministic order even under the threaded executor, so the
privacy ledger charges exactly the same draws whichever executor runs
the stage.  That is what lets the tests assert *parallel wall-clock <
serial* while ops/request, storage and ε stay exactly invariant
(``tests/integration/test_parallel_integration.py``,
``tests/property/test_prop_parallel.py``).

Entry points: ``executor=`` on :class:`~repro.cluster.scheme.ClusterIR`
/ :class:`~repro.cluster.scheme.ClusterKVS` and on
:func:`repro.cluster` / :func:`repro.serve`, and the ``--executor`` CLI
flag; ``serve_cluster`` in ``BENCHMARK.json`` measures the path.
"""

from repro.parallel.executor import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    SimulatedParallelExecutor,
    TaskResult,
    resolve_executor,
)

__all__ = [
    "Executor",
    "ParallelExecutor",
    "SerialExecutor",
    "SimulatedParallelExecutor",
    "TaskResult",
    "resolve_executor",
]
