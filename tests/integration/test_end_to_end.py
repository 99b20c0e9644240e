"""End-to-end integration: schemes x workloads through the harness."""

import math

import pytest
from dp_ram_view import seen_pairs, watch

from repro.baselines.linear_pir import LinearScanPIR
from repro.baselines.oram_kvs import ORAMKeyValueStore
from repro.baselines.path_oram import PathORAM
from repro.baselines.plaintext import PlaintextKVS, PlaintextRAM
from repro.core.dp_ir import DPIR
from repro.core.dp_kvs import DPKVS
from repro.core.dp_ram import DPRAM, ReadOnlyDPRAM
from repro.core.multi_server import MultiServerDPIR
from repro.simulation.harness import run_trace
from repro.storage.blocks import integer_database
from repro.workloads.generators import (
    hotspot_trace,
    read_write_trace,
    sequential_trace,
    uniform_trace,
    zipf_trace,
)
from repro.workloads.kv_traces import insert_then_lookup_trace, ycsb_trace


N = 128


@pytest.fixture
def database():
    return integer_database(N)


class TestRamSchemesAcrossWorkloads:
    @pytest.mark.parametrize("make_trace", [
        lambda rng: uniform_trace(N, 150, rng),
        lambda rng: sequential_trace(N, 150),
        lambda rng: zipf_trace(N, 150, rng),
        lambda rng: hotspot_trace(N, 150, rng),
        lambda rng: read_write_trace(N, 150, rng, write_fraction=0.4),
    ])
    def test_dpram_correct_on_all_workloads(self, rng, database, make_trace):
        scheme = DPRAM(database, rng=rng.spawn("scheme"))
        log = watch(scheme)
        trace = make_trace(rng.spawn("trace"))
        metrics = run_trace(scheme, trace, initial=database)
        assert metrics.mismatches == 0
        # Whatever the workload: three blocks a query, less one where
        # d_j = o_j went over the wire as a single slot.
        pairs = seen_pairs(log, scheme)
        shared = sum(download == overwrite for download, overwrite in pairs)
        assert metrics.blocks_per_operation == 3.0 - shared / len(pairs)
        assert 2.0 <= metrics.blocks_per_operation <= 3.0

    def test_path_oram_matches_dpram_answers(self, rng, database):
        trace = read_write_trace(N, 200, rng.spawn("t"), write_fraction=0.3)
        dpram_metrics = run_trace(
            DPRAM(database, rng=rng.spawn("a")), trace, initial=database
        )
        oram_metrics = run_trace(
            PathORAM(database, rng=rng.spawn("b")), trace, initial=database
        )
        assert dpram_metrics.mismatches == 0
        assert oram_metrics.mismatches == 0
        # The headline gap, end to end:
        assert oram_metrics.blocks_per_operation > \
            5 * dpram_metrics.blocks_per_operation

    def test_read_only_dpram_on_read_workloads(self, rng, database):
        scheme = ReadOnlyDPRAM(database, rng=rng.spawn("ro"))
        trace = zipf_trace(N, 300, rng.spawn("t"))
        metrics = run_trace(scheme, trace, initial=database)
        assert metrics.mismatches == 0
        assert metrics.blocks_uploaded == 0


class TestIrSchemes:
    def test_dpir_vs_linear_pir_costs(self, rng, database):
        trace = uniform_trace(N, 100, rng.spawn("t"))
        dpir = DPIR(database, epsilon=math.log(N), alpha=0.05,
                    rng=rng.spawn("dpir"))
        pir = LinearScanPIR(database)
        dpir_metrics = run_trace(dpir, trace, initial=database)
        pir_metrics = run_trace(pir, trace, initial=database)
        assert dpir_metrics.mismatches == 0
        assert pir_metrics.mismatches == 0
        assert pir_metrics.blocks_per_operation == N
        assert dpir_metrics.blocks_per_operation < N / 2

    def test_multi_server_through_harness(self, rng, database):
        scheme = MultiServerDPIR(database, server_count=3, pad_size=9,
                                 alpha=0.1, rng=rng.spawn("ms"))
        trace = uniform_trace(N, 120, rng.spawn("t"))
        metrics = run_trace(scheme, trace, initial=database)
        assert metrics.mismatches == 0
        assert metrics.blocks_per_operation == 9.0


class TestKvsSchemes:
    @pytest.mark.parametrize("profile", ["A", "B", "C"])
    def test_dpkvs_on_ycsb(self, rng, profile):
        scheme = DPKVS(256, rng=rng.spawn(f"kvs-{profile}"))
        trace = ycsb_trace(40, 120, rng.spawn(f"t-{profile}"), profile=profile)
        metrics = run_trace(scheme, trace)
        assert metrics.mismatches == 0

    def test_dpkvs_negative_lookups(self, rng):
        scheme = DPKVS(256, rng=rng.spawn("kvs"))
        trace = insert_then_lookup_trace(30, 80, rng.spawn("t"),
                                         missing_fraction=0.4)
        metrics = run_trace(scheme, trace)
        assert metrics.mismatches == 0

    def test_all_kvs_schemes_agree(self, rng):
        trace = ycsb_trace(30, 100, rng.spawn("shared"), profile="A")
        results = {}
        for name, scheme in (
            ("plain", PlaintextKVS(256)),
            ("dpkvs", DPKVS(256, rng=rng.spawn("d"))),
            ("oramkvs", ORAMKeyValueStore(256, rng=rng.spawn("o"))),
        ):
            metrics = run_trace(scheme, trace)
            results[name] = metrics
            assert metrics.mismatches == 0, name
        assert results["plain"].blocks_per_operation < \
            results["dpkvs"].blocks_per_operation < \
            results["oramkvs"].blocks_per_operation


class TestCrossSchemeConsistency:
    def test_same_trace_same_answers(self, rng, database):
        """Every RAM scheme must produce identical read results."""
        trace = read_write_trace(N, 150, rng.spawn("t"), write_fraction=0.3)
        answers = {}
        for name, scheme in (
            ("plain", PlaintextRAM(database)),
            ("dpram", DPRAM(database, rng=rng.spawn("x"))),
            ("oram", PathORAM(database, rng=rng.spawn("y"))),
        ):
            collected = []
            for operation in trace:
                if operation.value is None:
                    collected.append(scheme.read(operation.index))
                else:
                    scheme.write(operation.index, operation.value)
            answers[name] = collected
        assert answers["plain"] == answers["dpram"] == answers["oram"]
