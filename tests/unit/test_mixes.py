"""Tests for repro.workloads.mixes."""

import pytest
from dp_ram_view import seen_pairs, watch

from repro.workloads.generators import sequential_trace, uniform_trace
from repro.workloads.mixes import (
    burst_trace,
    concat_traces,
    interleave_traces,
    working_set_shift_trace,
)


class TestConcat:
    def test_phases_in_order(self, rng):
        first = sequential_trace(8, 4)
        second = sequential_trace(8, 4, start=4)
        combined = concat_traces([first, second])
        assert combined.indices() == first.indices() + second.indices()
        assert combined.universe == 8

    def test_name_combines(self, rng):
        combined = concat_traces(
            [sequential_trace(4, 2), sequential_trace(4, 2)], name="phased"
        )
        assert combined.name == "phased"

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            concat_traces([])

    def test_rejects_universe_mismatch(self):
        with pytest.raises(ValueError):
            concat_traces([sequential_trace(4, 2), sequential_trace(8, 2)])


class TestInterleave:
    def test_preserves_per_trace_order(self, rng):
        first = sequential_trace(16, 6)          # 0,1,2,3,4,5
        second = sequential_trace(16, 6, start=10)  # 10..15
        merged = interleave_traces([first, second], rng)
        low = [op.index for op in merged if op.index < 10]
        high = [op.index for op in merged if op.index >= 10]
        assert low == first.indices()
        assert high == second.indices()
        assert len(merged) == 12

    def test_actually_interleaves(self, rng):
        first = sequential_trace(16, 20)
        second = sequential_trace(16, 20, start=8)
        merged = interleave_traces([first, second], rng)
        # Not simply concatenated: some high index precedes a low index.
        indices = merged.indices()
        assert indices != first.indices() + second.indices()

    def test_single_trace_identity(self, rng):
        trace = sequential_trace(8, 5)
        merged = interleave_traces([trace], rng)
        assert merged.indices() == trace.indices()

    def test_rejects_empty(self, rng):
        with pytest.raises(ValueError):
            interleave_traces([], rng)

    def test_rejects_universe_mismatch(self, rng):
        with pytest.raises(ValueError):
            interleave_traces(
                [sequential_trace(4, 2), sequential_trace(8, 2)], rng
            )

    def test_many_tenants_each_keep_order(self, rng):
        # The serving layer's multi-tenant regime: disjoint index bands
        # per tenant, every band's internal order intact after merging.
        tenants = [sequential_trace(64, 8, start=16 * t) for t in range(4)]
        merged = interleave_traces(tenants, rng)
        assert len(merged) == 32
        for which, tenant in enumerate(tenants):
            band = [op.index for op in merged
                    if 16 * which <= op.index < 16 * (which + 1)]
            assert band == tenant.indices()

    def test_unequal_lengths_all_operations_survive(self, rng):
        short = sequential_trace(32, 2)
        long = sequential_trace(32, 10, start=16)
        merged = interleave_traces([short, long], rng)
        assert sorted(merged.indices()) == sorted(
            short.indices() + long.indices()
        )

    def test_seeded_determinism(self):
        from repro.crypto.rng import SeededRandomSource

        traces = [sequential_trace(32, 6), sequential_trace(32, 6, start=8)]
        first = interleave_traces(traces, SeededRandomSource(17))
        second = interleave_traces(traces, SeededRandomSource(17))
        assert first.indices() == second.indices()


class TestBurst:
    def test_length(self, rng):
        trace = burst_trace(64, bursts=5, burst_length=20, rng=rng)
        assert len(trace) == 100

    def test_bursts_concentrate(self, rng):
        trace = burst_trace(1024, bursts=1, burst_length=100, rng=rng)
        counts: dict[int, int] = {}
        for op in trace:
            counts[op.index] = counts.get(op.index, 0) + 1
        assert max(counts.values()) > 60  # ~80% on the hot record

    def test_different_bursts_different_records(self, rng):
        trace = burst_trace(1 << 20, bursts=4, burst_length=50, rng=rng)
        hot_records = set()
        for start in range(0, 200, 50):
            window = [op.index for op in list(trace)[start : start + 50]]
            hot_records.add(max(set(window), key=window.count))
        assert len(hot_records) >= 3

    def test_zero_bursts(self, rng):
        assert len(burst_trace(8, 0, 10, rng)) == 0

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            burst_trace(0, 1, 1, rng)
        with pytest.raises(ValueError):
            burst_trace(8, -1, 1, rng)


class TestWorkingSetShift:
    def test_length(self, rng):
        trace = working_set_shift_trace(256, phases=3, phase_length=40,
                                        working_set=16, rng=rng)
        assert len(trace) == 120

    def test_phase_locality(self, rng):
        universe = 1 << 16
        trace = working_set_shift_trace(universe, phases=1, phase_length=200,
                                        working_set=32, rng=rng)
        # All queries land in one circular window of size 32: the largest
        # circular gap between touched indices must span nearly everything.
        touched = sorted(set(trace.indices()))
        gaps = [
            (touched[(i + 1) % len(touched)] - touched[i]) % universe
            for i in range(len(touched))
        ]
        assert max(gaps) >= universe - 32

    def test_phases_move(self, rng):
        trace = working_set_shift_trace(1 << 16, phases=4, phase_length=50,
                                        working_set=8, rng=rng)
        starts = []
        for phase in range(4):
            window = trace.indices()[phase * 50 : (phase + 1) * 50]
            starts.append(min(window))
        assert len(set(starts)) >= 3

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            working_set_shift_trace(0, 1, 1, 1, rng)
        with pytest.raises(ValueError):
            working_set_shift_trace(8, 1, 1, 9, rng)
        with pytest.raises(ValueError):
            working_set_shift_trace(8, -1, 1, 4, rng)


class TestMixesThroughSchemes:
    def test_dpram_on_composite_workload(self, rng):
        from repro.core.dp_ram import DPRAM
        from repro.simulation.harness import run_trace
        from repro.storage.blocks import integer_database

        n = 128
        database = integer_database(n)
        composite = concat_traces([
            burst_trace(n, 2, 30, rng.spawn("b")),
            working_set_shift_trace(n, 2, 30, 16, rng.spawn("w")),
            uniform_trace(n, 30, rng.spawn("u")),
        ])
        scheme = DPRAM(database, rng=rng.spawn("ram"))
        log = watch(scheme)
        metrics = run_trace(scheme, composite, initial=database)
        assert metrics.mismatches == 0
        # Three blocks less the queries whose d_j = o_j went as one slot.
        pairs = seen_pairs(log, scheme)
        shared = sum(download == overwrite for download, overwrite in pairs)
        assert 0 < shared < len(pairs)
        assert metrics.blocks_per_operation == 3.0 - shared / len(pairs)
