"""Tests for repro.simulation.harness."""

import pytest

from repro.analysis.datasheet import PrivacyDatasheet
from repro.baselines.plaintext import PlaintextKVS, PlaintextRAM
from repro.core.dp_ir import DPIR
from repro.simulation.harness import run_ir_trace, run_kv_trace, run_ram_trace
from repro.storage.blocks import encode_int, integer_database
from repro.workloads.generators import read_write_trace, uniform_trace
from repro.workloads.kv_traces import KVTrace, KVOperation
from repro.workloads.trace import Operation, Trace, reads_from_indices


class TestRunIrTrace:
    def test_counts_and_correctness(self, rng, small_db):
        scheme = DPIR(small_db, pad_size=4, alpha=0.2, rng=rng.spawn("ir"))
        trace = uniform_trace(len(small_db), 50, rng.spawn("t"))
        metrics = run_ir_trace(scheme, trace, expected=small_db)
        assert metrics.operations == 50
        assert metrics.blocks_downloaded == 200  # 4 per query
        assert metrics.blocks_uploaded == 0
        assert metrics.mismatches == 0
        assert 0 < metrics.errors < 30

    def test_rejects_write_operations(self, rng, small_db):
        scheme = DPIR(small_db, pad_size=2, alpha=0.1, rng=rng)
        trace = Trace([Operation.write(0, b"v")], universe=len(small_db))
        with pytest.raises(ValueError):
            run_ir_trace(scheme, trace)

    def test_detects_wrong_expectations(self, rng, small_db):
        scheme = DPIR(small_db, pad_size=2, alpha=0.01, rng=rng.spawn("ir"))
        wrong = list(reversed(small_db))
        trace = reads_from_indices([0] * 20, len(small_db))
        metrics = run_ir_trace(scheme, trace, expected=wrong)
        assert metrics.mismatches > 0


class TestRunRamTrace:
    def test_plaintext_roundtrip(self, rng, small_db):
        ram = PlaintextRAM(small_db)
        trace = read_write_trace(len(small_db), 100, rng.spawn("t"))
        metrics = run_ram_trace(ram, trace, initial=small_db)
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
        metrics = run_ram_trace(ram, trace, initial=small_db)
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
        metrics = run_ram_trace(ram, trace)
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
        metrics = run_kv_trace(store, trace)
        assert metrics.operations == 3
        assert metrics.mismatches == 0

    def test_detects_lost_write(self):
        class ForgetfulKVS(PlaintextKVS):
            def put(self, key, value):
                del key, value  # drops everything

        store = ForgetfulKVS(64)
        trace = KVTrace([KVOperation.put(b"a", b"1"), KVOperation.get(b"a")])
        metrics = run_kv_trace(store, trace)
        assert metrics.mismatches == 1

    def test_detects_phantom_value(self):
        class PhantomKVS(PlaintextKVS):
            def get(self, key):
                del key
                return b"phantom"

        store = PhantomKVS(64)
        trace = KVTrace([KVOperation.get(b"never-inserted")])
        metrics = run_kv_trace(store, trace)
        assert metrics.mismatches == 1

    def test_check_disabled(self):
        class PhantomKVS(PlaintextKVS):
            def get(self, key):
                del key
                return b"phantom"

        store = PhantomKVS(64)
        trace = KVTrace([KVOperation.get(b"x")])
        metrics = run_kv_trace(store, trace, check=False)
        assert metrics.mismatches == 0


class TestSchemeShapes:
    def test_unknown_scheme_rejected(self):
        class NoServer:
            pass

        with pytest.raises(TypeError):
            run_ir_trace(NoServer(), reads_from_indices([0], 1))

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
        metrics = run_ir_trace(scheme, reads_from_indices([0, 1], 4))
        assert metrics.operations == 2
        assert metrics.blocks_downloaded == 0
        assert metrics.blocks_uploaded == 0
