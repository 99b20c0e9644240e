"""Property tests: executors never change answers or privacy budgets.

The headline invariant of :mod:`repro.parallel`: for any cluster
geometry, fault injection and workload, the serial and parallel
executors return bit-identical retrievals, charge identical
privacy-ledger budgets and count identical failovers.
Overlap is a wall-clock accounting change, never a mechanism change.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.scheme import ClusterIR, ClusterKVS
from repro.crypto.rng import SeededRandomSource
from repro.storage.blocks import integer_database


def _ledger_signature(instance):
    report = instance.ledger.report()
    return (
        report.queries,
        report.per_query_epsilon,
        report.worst_shard_epsilon,
        report.colluding_epsilon,
    )


class TestExecutorEquivalenceProperties:
    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(16, 64),
        shards=st.integers(1, 4),
        replicas=st.integers(1, 3),
        flaky=st.booleans(),
        corrupting=st.booleans(),
        batch=st.integers(1, 9),
        seed=st.integers(0, 2**16),
    )
    def test_ir_retrievals_and_budgets_identical_under_faults(
        self, n, shards, replicas, flaky, corrupting, batch, seed
    ):
        shards = min(shards, n)
        blocks = integer_database(n)
        failure = (
            tuple([0.25] + [0.0] * (replicas - 1)) if flaky and replicas > 1
            else 0.0
        )
        corruption = (
            tuple([0.2] + [0.0] * (replicas - 1))
            if corrupting and replicas > 1
            else 0.0
        )
        outcomes = {}
        for executor in ("serial", "parallel"):
            instance = ClusterIR(
                blocks,
                shard_count=shards,
                replica_count=replicas,
                pad_size=min(8, n),
                alpha=0.05,
                failure_rate=failure,
                corruption_rate=corruption,
                rng=SeededRandomSource(seed),
                executor=executor,
            )
            answers = []
            indices = list(range(n))
            for start in range(0, n, batch):
                answers.extend(instance.query_many(indices[start:start + batch]))
            outcomes[executor] = (
                answers,
                _ledger_signature(instance),
                instance.fault_counters(),
                instance.server_operations(),
            )
        serial = outcomes["serial"]
        assert outcomes["parallel"] == serial, "parallel diverged from serial"
        # Wall-clock may only ever shrink relative to serial.
        assert serial[3] >= 0

    @settings(max_examples=8, deadline=None)
    @given(
        n=st.integers(16, 64),
        shards=st.integers(1, 4),
        replicas=st.integers(1, 3),
        flaky=st.booleans(),
        keys=st.integers(4, 24),
        seed=st.integers(0, 2**16),
    )
    def test_kvs_values_and_budgets_identical_under_faults(
        self, n, shards, replicas, flaky, keys, seed
    ):
        failure = (
            tuple([0.2] + [0.0] * (replicas - 1)) if flaky and replicas > 1
            else 0.0
        )
        outcomes = {}
        for executor in ("serial", "parallel"):
            instance = ClusterKVS(
                n,
                shard_count=shards,
                replica_count=replicas,
                failure_rate=failure,
                # Head-room for the worst hash skew the strategy can
                # produce (all `keys` landing on one shard): with
                # n >= 16 and shards <= 4, ceil(8 * 16 / 4) = 32 > 24.
                capacity_slack=8.0,
                rng=SeededRandomSource(seed),
                executor=executor,
            )
            for i in range(keys):
                instance.put(b"key-%d" % i, b"value-%d" % i)
            got = instance.get_many([b"key-%d" % i for i in range(keys)])
            outcomes[executor] = (
                got,
                _ledger_signature(instance),
                instance.fault_counters(),
            )
        serial = outcomes["serial"]
        assert outcomes["parallel"] == serial
        assert serial[0] == [b"value-%d" % i for i in range(keys)]

    @settings(max_examples=8, deadline=None)
    @given(
        n=st.integers(16, 48),
        shards=st.integers(2, 4),
        new_shards=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    def test_reshard_wall_clock_never_exceeds_serial(
        self, n, shards, new_shards, seed
    ):
        shards = min(shards, n)
        new_shards = min(new_shards, n)
        blocks = integer_database(n)
        instance = ClusterIR(
            blocks,
            shard_count=shards,
            replica_count=1,
            pad_size=min(8, n),
            rng=SeededRandomSource(seed),
            executor="parallel",
        )
        report = instance.reshard(new_shards)
        assert report.wall_operations <= report.migration_operations
        if shards > 1:
            assert report.wall_operations < report.migration_operations
        for index in range(n):
            answer = None
            for _ in range(64):
                answer = instance.query(index)
                if answer is not None:
                    break
            assert answer == blocks[index]
