"""Pins that a cluster counts each server operation exactly once.

The servers' own read / write counters are the ground truth.  A
cluster's ``server_operations()`` and a serving run's
``ServingReport.server_operations`` must equal the change in
Σ(reads + writes) over ``servers()`` across any history: direct entry
point calls, failover retries, integrity fall-backs, KVS write fan-out,
held uploads, a whole ``repro.serve`` run and a reshard's drain and
re-insertion.  ``wall_operations()`` equals it under the serial
executor and never exceeds it under the parallel one (a stage costs at
most the sum of its legs).
"""

import pytest

import repro
from repro.cluster.scheme import ClusterIR, ClusterKVS
from repro.crypto.rng import SeededRandomSource
from repro.serving import ServingConfig
from repro.storage.blocks import integer_database
from repro.storage.faults import scheme_fault_counters

N = 256
SHARDS = 2
REPLICAS = 3

#: ``(fault, coin mode) -> rate`` of replica 0; the other two replicas
#: are clean, so a shard never runs out of replicas.  A per-round coin
#: is tossed once per batched round, so it needs a higher rate to fire.
IR_RATES = {
    ("failure_rate", "per_slot"): 0.02,
    ("failure_rate", "per_round"): 0.2,
    ("corruption_rate", "per_slot"): 0.1,
    ("corruption_rate", "per_round"): 0.3,
}
KVS_RATES = {
    ("failure_rate", "per_slot"): 0.0005,
    ("failure_rate", "per_round"): 0.01,
    ("corruption_rate", "per_slot"): 0.01,
    ("corruption_rate", "per_round"): 0.1,
}
FAULTS = ("clean", "failure_rate", "corruption_rate")
COIN_MODES = ("per_slot", "per_round")
EXECUTORS = ("serial", "parallel")


def _server_ops(scheme) -> int:
    return _ops_of(scheme.servers())


def _ops_of(servers) -> int:
    return sum(server.reads + server.writes for server in servers)


class _Counted:
    """The servers' operations since construction, beside the cluster's
    own figures."""

    def __init__(self, scheme):
        self.scheme = scheme
        self.start_servers = _server_ops(scheme)
        self.start_operations = scheme.server_operations()
        self.start_wall = scheme.wall_operations()

    def check(self, executor: str) -> int:
        scheme = self.scheme
        served = _server_ops(scheme) - self.start_servers
        assert scheme.server_operations() - self.start_operations == served
        wall = scheme.wall_operations() - self.start_wall
        if executor == "serial":
            assert wall == served
        else:
            assert wall <= served
        return served


def _faults(rates, fault, coin_mode):
    if fault == "clean":
        return {}
    return {fault: (rates[fault, coin_mode], 0.0, 0.0)}


def _serve_and_check(scheme, counted, executor, workload, fault):
    before = _server_ops(scheme)
    report = repro.serve(scheme, ServingConfig(
        clients=4, requests_per_client=16, scheduler="continuous",
        max_in_flight=2, rate_rps=400, workload=workload, seed=3,
    ))
    assert report.completed == report.requests
    assert report.server_operations == _server_ops(scheme) - before
    counted.check(executor)
    # A fault case that injected nothing would pin only the clean path.
    assert bool(scheme_fault_counters(scheme)) == (fault != "clean")


def _reshard_and_check(scheme, executor, next_round):
    """A migration counts its drain once, on the generation it drains,
    and its re-insertion once, on the new generation, whose servers are
    counted from their first operation."""
    drained_servers = scheme.servers()
    before = _ops_of(drained_servers)
    operations_before = scheme.server_operations()
    wall_before = scheme.wall_operations()
    report = scheme.reshard(3)
    drained = _ops_of(drained_servers) - before
    refilled = _server_ops(scheme)
    migrated = drained + refilled
    assert scheme.server_operations() - operations_before == migrated
    wall = scheme.wall_operations() - wall_before
    if executor == "serial":
        assert wall == migrated
    else:
        assert wall <= migrated
    # The report leaves out only the flush of the uploads held before it.
    assert refilled < report.migration_operations <= migrated
    counted = _Counted(scheme)
    next_round()
    assert counted.check(executor) > 0


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("coin_mode", COIN_MODES)
@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("base", ["batch_dp_ir", "dp_ir"])
def test_ir_cluster_counts_every_server_operation_once(
    base, fault, coin_mode, executor
):
    rng = SeededRandomSource(f"accounting/{base}/{fault}/{coin_mode}")
    scheme = ClusterIR(
        integer_database(N), base=base, shard_count=SHARDS,
        replica_count=REPLICAS, pad_size=16, executor=executor,
        fault_coin_mode=coin_mode, rng=rng.spawn("cluster"),
        **_faults(IR_RATES, fault, coin_mode),
    )
    counted = _Counted(scheme)
    coins = rng.spawn("indices")
    for _ in range(6):
        scheme.query_many([coins.randbelow(N) for _ in range(12)])
        counted.check(executor)
    for _ in range(8):
        scheme.query(coins.randbelow(N))
    assert counted.check(executor) > 0
    _serve_and_check(scheme, counted, executor, "uniform", fault)
    _reshard_and_check(
        scheme, executor, lambda: scheme.query_many(list(range(0, N, 9)))
    )


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("coin_mode", COIN_MODES)
@pytest.mark.parametrize("fault", FAULTS)
def test_kvs_cluster_counts_every_server_operation_once(
    fault, coin_mode, executor
):
    rng = SeededRandomSource(f"accounting/dp_kvs/{fault}/{coin_mode}")
    scheme = ClusterKVS(
        N, base="dp_kvs", shard_count=SHARDS, replica_count=REPLICAS,
        value_size=32, executor=executor, fault_coin_mode=coin_mode,
        rng=rng.spawn("cluster"), **_faults(KVS_RATES, fault, coin_mode),
    )
    counted = _Counted(scheme)
    keys = [b"key-%03d" % index for index in range(24)]
    for position, key in enumerate(keys):
        scheme.put(key, bytes([position]) * 4)
    counted.check(executor)
    assert len(scheme.get_many(keys[:12])) == 12
    scheme.get(keys[20])
    scheme.delete(keys[0])
    scheme.flush()
    assert counted.check(executor) > 0
    _serve_and_check(scheme, counted, executor, "ycsb-a", fault)
    _reshard_and_check(
        scheme, executor, lambda: scheme.get_many(keys[4:16])
    )


@pytest.mark.parametrize("executor", EXECUTORS)
def test_a_meter_spanning_a_reshard_charges_what_the_servers_did(executor):
    """A charge across a migration prices the drain and the re-insertion:
    positive, and equal to the ``server_operations()`` delta."""
    from repro.simulation.metrics import CostMeter
    from repro.storage.network import LAN

    scheme = ClusterIR(
        integer_database(64, 16), shard_count=2, replica_count=2,
        pad_size=8, executor=executor, rng=SeededRandomSource(3),
    )
    meter = CostMeter(scheme, LAN)
    operations_before = scheme.server_operations()
    wall_before = scheme.wall_operations()
    drained_servers = scheme.servers()
    drained_before = _ops_of(drained_servers)
    for index in range(10):
        scheme.query(index)
    scheme.reshard(4)
    operations, service_ms, serial_ms = meter.charge()
    served = _ops_of(drained_servers) - drained_before + _server_ops(scheme)
    assert operations == scheme.server_operations() - operations_before
    assert operations == served > 0
    per_op = LAN.rtt_ms + LAN.transfer_ms(scheme.block_size)
    assert serial_ms == operations * per_op
    assert service_ms == (scheme.wall_operations() - wall_before) * per_op
    assert 0.0 < service_ms <= serial_ms


def _link_ms(backends) -> float:
    return sum(backend.simulated_ms for backend in backends)


@pytest.mark.parametrize("executor", EXECUTORS)
def test_a_network_meter_spanning_a_reshard_charges_both_generations(
    executor,
):
    """Over network backends a charge is link time: the drained
    generation's since the last charge, and all of the new one's."""
    from repro.simulation.metrics import CostMeter

    scheme = repro.build("cluster_dp_ir", n=N, seed=1, backend="network",
                         network="lan", executor=executor)
    meter = CostMeter(scheme, None)
    for index in range(20):
        scheme.query(index)
    meter.charge()
    drained = [server.backend for server in scheme.servers()]
    drained_ms = _link_ms(drained)
    for index in range(20, 30):
        scheme.query(index)
    scheme.reshard(4)
    for index in range(20):
        scheme.query(index)
    _, _, serial_ms = meter.charge()
    live = [server.backend for server in scheme.servers()]
    assert not set(map(id, live)) & set(map(id, drained))
    assert _link_ms(live) > 0
    assert serial_ms == pytest.approx(
        _link_ms(drained) - drained_ms + _link_ms(live)
    )
    # The next charge is the new generation's alone.
    live_ms = _link_ms(live)
    for index in range(20):
        scheme.query(index)
    operations, service_ms, serial_ms = meter.charge()
    assert operations == 100
    assert serial_ms == pytest.approx(_link_ms(live) - live_ms)
    assert 0.0 < service_ms <= serial_ms
    assert meter.serial_ms == pytest.approx(_link_ms(drained + live))


def test_a_memory_meter_walks_no_servers_per_charge():
    """Without network backends the meter prices operations and never
    looks at a server after construction."""
    from repro.simulation.metrics import CostMeter
    from repro.storage.network import LAN

    scheme = repro.build("cluster_dp_ir", n=N, seed=1)
    meter = CostMeter(scheme, LAN)
    walks = []
    servers = scheme.servers
    scheme.servers = lambda: walks.append(1) or servers()
    for index in range(5):
        scheme.query(index)
        meter.charge()
    scheme.reshard(4)
    meter.charge()
    assert meter.operations > 0
    assert walks == []
