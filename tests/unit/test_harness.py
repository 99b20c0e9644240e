"""Tests for repro.simulation.harness.run_trace."""

import pytest

import repro
from repro.analysis.datasheet import PrivacyDatasheet
from repro.baselines.linear_pir import LinearScanPIR
from repro.api import scheme_spec
from repro.baselines.plaintext import PlaintextKVS, PlaintextRAM
from repro.core.dp_ir import DPIR
from repro.crypto.rng import default_rng
from repro.simulation.harness import run_trace
from repro.storage.blocks import encode_int, integer_database
from repro.storage.network import LAN
from repro.workloads import catalogue
from repro.workloads.generators import read_write_trace, uniform_trace
from repro.workloads.kv_traces import KVTrace, KVOperation
from repro.workloads.trace import Operation, Trace, reads_from_indices


class TestRunIrTrace:
    def test_counts_and_correctness(self, rng, small_db):
        scheme = DPIR(small_db, pad_size=4, alpha=0.2, rng=rng.spawn("ir"))
        trace = uniform_trace(len(small_db), 50, rng.spawn("t"))
        metrics = run_trace(scheme, trace, initial=small_db)
        assert metrics.operations == 50
        assert metrics.blocks_downloaded == 200  # 4 per query
        assert metrics.blocks_uploaded == 0
        assert metrics.mismatches == 0
        assert 0 < metrics.errors < 30

    def test_rejects_write_operations(self, rng, small_db):
        scheme = DPIR(small_db, pad_size=2, alpha=0.1, rng=rng)
        trace = Trace([Operation.write(0, b"v")], universe=len(small_db))
        with pytest.raises(ValueError):
            run_trace(scheme, trace)

    def test_detects_wrong_expectations(self, rng, small_db):
        scheme = DPIR(small_db, pad_size=2, alpha=0.01, rng=rng.spawn("ir"))
        wrong = list(reversed(small_db))
        trace = reads_from_indices([0] * 20, len(small_db))
        metrics = run_trace(scheme, trace, initial=wrong)
        assert metrics.mismatches > 0


class TestRunRamTrace:
    def test_plaintext_roundtrip(self, rng, small_db):
        ram = PlaintextRAM(small_db)
        trace = read_write_trace(len(small_db), 100, rng.spawn("t"))
        metrics = run_trace(ram, trace, initial=small_db)
        assert metrics.operations == 100
        assert metrics.mismatches == 0
        assert metrics.blocks_per_operation == 1.0

    def test_reference_model_catches_corruption(self, rng, small_db):
        class BrokenRAM(PlaintextRAM):
            def read(self, index):
                del index
                return b"garbage"

        ram = BrokenRAM(small_db)
        trace = reads_from_indices([0, 1], len(small_db))
        metrics = run_trace(ram, trace, initial=small_db)
        assert metrics.mismatches == 2

    def test_without_initial_reference_only_tracks_writes(self, rng, small_db):
        ram = PlaintextRAM(small_db)
        trace = Trace(
            [
                Operation.read(0),  # unknown to the reference, not checked
                Operation.write(1, encode_int(42)),
                Operation.read(1),
            ],
            universe=len(small_db),
        )
        metrics = run_trace(ram, trace)
        assert metrics.mismatches == 0


class TestRunKvTrace:
    def test_plaintext_roundtrip(self, rng):
        store = PlaintextKVS(64)
        trace = KVTrace(
            [
                KVOperation.put(b"a", b"1"),
                KVOperation.get(b"a"),
                KVOperation.get(b"missing"),
            ]
        )
        metrics = run_trace(store, trace)
        assert metrics.operations == 3
        assert metrics.mismatches == 0

    def test_detects_lost_write(self):
        class ForgetfulKVS(PlaintextKVS):
            def put(self, key, value):
                del key, value  # drops everything

        store = ForgetfulKVS(64)
        trace = KVTrace([KVOperation.put(b"a", b"1"), KVOperation.get(b"a")])
        metrics = run_trace(store, trace)
        assert metrics.mismatches == 1

    def test_detects_phantom_value(self):
        class PhantomKVS(PlaintextKVS):
            def get(self, key):
                del key
                return b"phantom"

        store = PhantomKVS(64)
        trace = KVTrace([KVOperation.get(b"never-inserted")])
        metrics = run_trace(store, trace)
        assert metrics.mismatches == 1


class TestSchemeShapes:
    def test_unknown_scheme_rejected(self):
        class NoServer:
            pass

        with pytest.raises(TypeError):
            run_trace(NoServer(), reads_from_indices([0], 1))

    def test_empty_server_group_counts_zero(self):
        """Regression: the old duck-typed probe evaluated

            getattr(scheme, "pool", None) or getattr(scheme, "servers", None)

        so a scheme whose server group was *empty* (falsy) was silently
        skipped and misreported as shapeless.  The protocol's ``servers()``
        makes an empty group a legitimate zero-operation answer.
        """
        from repro.api.protocols import PrivateIR

        class UnprovisionedIR(PrivateIR):
            """An IR scheme whose servers are not yet provisioned."""

            @property
            def n(self):
                return 4

            @property
            def block_size(self):
                return 8

            def servers(self):
                return ()

            def datasheet(self):
                return PrivacyDatasheet("UnprovisionedIR", 4, 0.0, "perfect",
                                        0.0, 0.0, 0.0, 0, 4.0, 0)

            def query(self, index):
                return b"\x00" * 8  # answered from a warm client cache

        scheme = UnprovisionedIR()
        assert scheme.server_counters() == (0, 0)
        metrics = run_trace(scheme, reads_from_indices([0, 1], 4))
        assert metrics.operations == 2
        assert metrics.blocks_downloaded == 0
        assert metrics.blocks_uploaded == 0


def _record_rounds(scheme, names):
    """Record ``(entry point, operand count)`` of each outermost call."""
    calls = []
    depth = [0]
    for name in names:
        inner = getattr(scheme, name)

        def recording(*args, _name=name, _inner=inner):
            if depth[0] == 0:
                many = _name.endswith("_many")
                calls.append((_name, len(args[0]) if many else 1))
            depth[0] += 1
            try:
                return _inner(*args)
            finally:
                depth[0] -= 1

        setattr(scheme, name, recording)
    return calls


def _ir_case(db):
    trace = reads_from_indices([0, 1, 2, 3, 4, 5, 6], len(db))
    expected = [("query_many", 3), ("query_many", 3), ("query", 1)]
    return LinearScanPIR(db), trace, ("query", "query_many"), expected


def _ram_case(db):
    value = encode_int(99)
    trace = Trace(
        [Operation.read(i) for i in range(4)]
        + [Operation.write(4, value), Operation.read(4), Operation.write(5, value)],
        universe=len(db),
    )
    expected = [("read_many", 3), ("read", 1), ("write", 1), ("read", 1),
                ("write", 1)]
    return PlaintextRAM(db), trace, ("read", "read_many", "write"), expected


def _kvs_case(db):
    del db
    trace = KVTrace(
        [KVOperation.put(b"a", b"1")]
        + [KVOperation.get(key) for key in (b"a", b"b", b"a", b"c")]
        + [KVOperation.put(b"b", b"2"), KVOperation.get(b"b")]
    )
    expected = [("put", 1), ("get_many", 3), ("get", 1), ("put", 1),
                ("get", 1)]
    return PlaintextKVS(64), trace, ("get", "get_many", "put"), expected


class TestRounds:
    @pytest.mark.parametrize("case", [_ir_case, _ram_case, _kvs_case],
                             ids=["ir", "ram", "kvs"])
    def test_reads_batch_into_rounds_and_writes_go_alone(self, small_db, case):
        scheme, trace, names, expected = case(small_db)
        calls = _record_rounds(scheme, names)
        metrics = run_trace(scheme, trace, small_db, batch=3)
        assert calls == expected
        assert metrics.operations == len(trace)
        assert (metrics.errors, metrics.mismatches) == (0, 0)

    @pytest.mark.parametrize("case", [_ir_case, _ram_case, _kvs_case],
                             ids=["ir", "ram", "kvs"])
    def test_batch_one_is_one_single_op_call_each(self, small_db, case):
        scheme, trace, names, _ = case(small_db)
        calls = _record_rounds(scheme, names)
        run_trace(scheme, trace, small_db)
        assert [count for _, count in calls] == [1] * len(trace)
        assert not any(name.endswith("_many") for name, _ in calls)

    def test_ir_trace_with_a_write_raises(self, small_db):
        scheme = LinearScanPIR(small_db)
        trace = Trace([Operation.read(0), Operation.write(1, small_db[1])],
                      universe=len(small_db))
        with pytest.raises(ValueError):
            run_trace(scheme, trace, small_db, batch=3)

    def test_batch_must_be_positive(self, small_db):
        with pytest.raises(ValueError):
            run_trace(PlaintextRAM(small_db), reads_from_indices([0], 32),
                      batch=0)


class TestLatency:
    def test_memory_scheme_without_a_model_records_none(self, small_db):
        metrics = run_trace(PlaintextRAM(small_db),
                            reads_from_indices([0, 1, 2], 32))
        assert metrics.latencies_ms == []
        assert metrics.serial_ms is None
        assert metrics.wall_clock_ms is None

    def test_a_model_prices_each_round_once_per_operation(self, small_db):
        per_op = LAN.rtt_ms + LAN.transfer_ms(len(small_db[0]))
        metrics = run_trace(PlaintextRAM(small_db),
                            reads_from_indices([0, 1, 2, 3], 32),
                            batch=3, network=LAN)
        assert metrics.latencies_ms == [3 * per_op] * 3 + [per_op]
        assert metrics.serial_ms == metrics.wall_clock_ms == pytest.approx(
            4 * per_op
        )

    @pytest.mark.parametrize("name", repro.available_schemes())
    def test_a_network_run_is_priced_at_its_servers_link_time(self, name):
        # Over network backends the meter reads the links, not a model:
        # the run's serial total is the link time its servers accrued,
        # the flush that ends the run included.
        kind = scheme_spec(name).kind
        rng = default_rng(5)
        kwargs = dict(value_size=16) if kind == "kvs" else {}
        scheme = repro.build(name, n=32, rng=rng.spawn("scheme"),
                             backend="network", network="lan", **kwargs)
        links = [server.backend for server in scheme.servers()]
        before = sum(link.simulated_ms for link in links)
        if kind == "kvs":
            trace = catalogue.kv_trace("ycsb-a", 32, 24, rng.spawn("trace"),
                                       value_size=16)
            metrics = run_trace(scheme, trace)
        else:
            workload = "zipf" if kind == "ir" or not scheme.writable else (
                "readwrite"
            )
            trace = catalogue.index_trace(workload, 32, 24,
                                          rng.spawn("trace"))
            metrics = run_trace(scheme, trace, initial=integer_database(32))
        assert metrics.mismatches == 0
        link_ms = sum(
            server.backend.simulated_ms for server in scheme.servers()
        )
        assert link_ms > before
        assert metrics.serial_ms == pytest.approx(link_ms - before)
        assert len(metrics.latencies_ms) == 24
        assert sum(metrics.latencies_ms) <= metrics.wall_clock_ms + 1e-9
        assert metrics.wall_clock_ms <= metrics.serial_ms + 1e-9
