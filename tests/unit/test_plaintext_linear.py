"""Tests for repro.baselines.plaintext and repro.baselines.linear_pir."""

import pytest

from repro.baselines.linear_pir import LinearScanPIR
from repro.baselines.plaintext import PlaintextKVS, PlaintextRAM
from repro.storage.errors import BlockSizeError, RetrievalError


class TestPlaintextRAM:
    def test_read_write(self, small_db):
        ram = PlaintextRAM(small_db)
        assert ram.read(3) == small_db[3]
        updated = b"updated".ljust(ram.block_size, b"\x00")
        ram.write(3, updated)
        assert ram.read(3) == updated

    def test_one_block_per_query(self, small_db):
        ram = PlaintextRAM(small_db)
        ram.read(0)
        ram.write(1, b"x" * ram.block_size)
        assert ram.server.operations == 2

    def test_out_of_range(self, small_db):
        ram = PlaintextRAM(small_db)
        with pytest.raises(RetrievalError):
            ram.read(len(small_db))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PlaintextRAM([])

    def test_query_counter(self, small_db):
        ram = PlaintextRAM(small_db)
        ram.read(0)
        ram.read(1)
        assert ram.query_count == 2


class TestPlaintextKVS:
    def test_put_get_delete(self):
        store = PlaintextKVS(16)
        store.put(b"k", b"v")
        assert store.get(b"k").rstrip(b"\x00") == b"v"
        assert store.delete(b"k") is True
        assert store.get(b"k") is None
        assert store.delete(b"k") is False

    def test_one_block_per_operation(self):
        store = PlaintextKVS(16)
        store.put(b"k", b"v")
        store.get(b"k")
        assert store.server.operations == 2

    def test_missing_get_touches_nothing(self):
        store = PlaintextKVS(16)
        store.get(b"missing")
        assert store.server.operations == 0

    def test_capacity(self):
        store = PlaintextKVS(2)
        store.put(b"a", b"1")
        store.put(b"b", b"2")
        with pytest.raises(RetrievalError):
            store.put(b"c", b"3")

    def test_slot_reuse_after_delete(self):
        store = PlaintextKVS(1)
        store.put(b"a", b"1")
        store.delete(b"a")
        store.put(b"b", b"2")
        assert store.get(b"b").rstrip(b"\x00") == b"2"

    def test_oversize_value_rejected(self):
        store = PlaintextKVS(4, value_size=4)
        with pytest.raises(BlockSizeError):
            store.put(b"k", b"12345")

    def test_size_tracking(self):
        store = PlaintextKVS(8)
        store.put(b"a", b"1")
        store.put(b"a", b"2")
        store.put(b"b", b"3")
        assert store.size == 2


class TestLinearScanPIR:
    def test_always_correct(self, small_db):
        scheme = LinearScanPIR(small_db)
        for index in range(len(small_db)):
            assert scheme.query(index) == small_db[index]

    def test_touches_every_block(self, small_db):
        scheme = LinearScanPIR(small_db)
        scheme.query(5)
        assert scheme.server.reads == len(small_db)

    def test_identical_cost_for_every_query(self, small_db):
        scheme = LinearScanPIR(small_db)
        costs = []
        for index in (0, 7, 31):
            before = scheme.server.reads
            scheme.query(index)
            costs.append(scheme.server.reads - before)
        assert len(set(costs)) == 1  # perfectly oblivious

    def test_epsilon_zero(self, small_db):
        assert LinearScanPIR(small_db).epsilon == 0.0

    def test_out_of_range(self, small_db):
        scheme = LinearScanPIR(small_db)
        with pytest.raises(RetrievalError):
            scheme.query(-1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            LinearScanPIR([])
