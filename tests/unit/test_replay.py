"""Tests for repro.workloads.replay."""

import pytest

from repro.workloads.generators import read_write_trace, uniform_trace
from repro.workloads.kv_traces import ycsb_trace
from repro.workloads.replay import (
    load_kv_trace,
    load_trace,
    save_kv_trace,
    save_trace,
)


class TestRamTraceRoundtrip:
    def test_read_only(self, rng, tmp_path):
        trace = uniform_trace(32, 50, rng)
        path = tmp_path / "trace.jsonl"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.universe == trace.universe
        assert loaded.name == trace.name
        assert loaded.operations == trace.operations

    def test_read_write(self, rng, tmp_path):
        trace = read_write_trace(16, 40, rng, write_fraction=0.5)
        path = tmp_path / "trace.jsonl"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.operations == trace.operations

    def test_empty_trace(self, tmp_path):
        from repro.workloads.trace import Trace

        path = tmp_path / "empty.jsonl"
        save_trace(Trace([], universe=8, name="empty"), path)
        loaded = load_trace(path)
        assert len(loaded) == 0
        assert loaded.universe == 8

    def test_rejects_kv_file(self, rng, tmp_path):
        path = tmp_path / "kv.jsonl"
        save_kv_trace(ycsb_trace(4, 4, rng), path)
        with pytest.raises(ValueError):
            load_trace(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "nothing.jsonl"
        path.write_text("")
        with pytest.raises(ValueError):
            load_trace(path)

    def test_rejects_missing_meta(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"op": "read", "index": 0}\n')
        with pytest.raises(ValueError):
            load_trace(path)


class TestKvTraceRoundtrip:
    def test_roundtrip(self, rng, tmp_path):
        trace = ycsb_trace(8, 30, rng, profile="A")
        path = tmp_path / "kv.jsonl"
        save_kv_trace(trace, path)
        loaded = load_kv_trace(path)
        assert loaded.name == trace.name
        assert loaded.operations == trace.operations

    def test_binary_safe(self, rng, tmp_path):
        from repro.workloads.kv_traces import KVOperation, KVTrace

        trace = KVTrace([
            KVOperation.put(bytes(range(16)), b"\x00\xff\n\""),
            KVOperation.get(bytes(range(16))),
        ])
        path = tmp_path / "binary.jsonl"
        save_kv_trace(trace, path)
        assert load_kv_trace(path).operations == trace.operations

    def test_rejects_ram_file(self, rng, tmp_path):
        path = tmp_path / "ram.jsonl"
        save_trace(uniform_trace(8, 4, rng), path)
        with pytest.raises(ValueError):
            load_kv_trace(path)


class TestReplayThroughHarness:
    def test_saved_trace_reproduces_metrics(self, rng, tmp_path):
        from repro.baselines.plaintext import PlaintextRAM
        from repro.simulation.harness import run_trace
        from repro.storage.blocks import integer_database

        database = integer_database(16)
        trace = read_write_trace(16, 60, rng, write_fraction=0.4)
        path = tmp_path / "replayed.jsonl"
        save_trace(trace, path)
        first = run_trace(PlaintextRAM(database), trace, initial=database)
        second = run_trace(PlaintextRAM(database), load_trace(path),
                           initial=database)
        assert first.blocks_total == second.blocks_total
        assert first.mismatches == second.mismatches == 0
