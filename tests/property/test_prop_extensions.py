"""Property-based tests for the extension modules."""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.ledger import PrivacyLedger
from repro.core.batch_ir import BatchDPIR
from repro.crypto.encryption import (
    IntegrityError,
    decrypt_authenticated,
    encrypt_authenticated,
    generate_key,
)
from repro.crypto.rng import SeededRandomSource
from repro.baselines.recursive_oram import RecursivePathORAM
from repro.storage.blocks import encode_int, integer_database
from repro.storage.errors import BlockSizeError
from repro.storage.network import NetworkModel
from repro.workloads.replay import load_trace, save_trace
from repro.workloads.trace import Operation, Trace

import pytest


class TestAuthenticatedEncryptionProperties:
    @given(seed=st.integers(0, 2**63), payload=st.binary(max_size=256))
    @settings(max_examples=60)
    def test_roundtrip(self, seed, payload):
        rng = SeededRandomSource(seed)
        key = generate_key(rng)
        assert decrypt_authenticated(
            key, encrypt_authenticated(key, payload, rng)
        ) == payload

    @given(
        seed=st.integers(0, 2**63),
        payload=st.binary(min_size=1, max_size=128),
        position=st.integers(min_value=0),
        bit=st.integers(0, 7),
    )
    @settings(max_examples=60)
    def test_any_single_bit_flip_detected(self, seed, payload, position, bit):
        rng = SeededRandomSource(seed)
        key = generate_key(rng)
        sealed = bytearray(encrypt_authenticated(key, payload, rng))
        position %= len(sealed)
        sealed[position] ^= 1 << bit
        with pytest.raises(IntegrityError):
            decrypt_authenticated(key, bytes(sealed))


class TestBatchDpirProperties:
    @given(
        seed=st.integers(0, 2**32),
        batch=st.lists(st.integers(0, 31), min_size=1, max_size=10),
        pad=st.integers(1, 16),
    )
    @settings(max_examples=40, deadline=None)
    def test_batch_answers_correct_or_none(self, seed, batch, pad):
        rng = SeededRandomSource(seed)
        db = integer_database(32)
        scheme = BatchDPIR(db, pad_size=pad, alpha=0.2, rng=rng)
        answers = scheme.query_batch(batch)
        for index, answer in zip(batch, answers):
            assert answer is None or answer == db[index]

    @given(
        seed=st.integers(0, 2**32),
        batch=st.lists(st.integers(0, 31), min_size=1, max_size=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_union_cost_bounded(self, seed, batch):
        rng = SeededRandomSource(seed)
        scheme = BatchDPIR(integer_database(32), pad_size=4, alpha=0.2,
                           rng=rng)
        before = scheme.server.reads
        scheme.query_batch(batch)
        cost = scheme.server.reads - before
        assert cost <= min(32, len(batch) * 4)
        assert cost >= 4  # at least one full pad set


class TestLedgerProperties:
    @given(charges=st.lists(st.floats(0.0, 5.0), max_size=30))
    @settings(max_examples=60)
    def test_totals_are_sums(self, charges):
        ledger = PrivacyLedger()
        for epsilon in charges:
            ledger.charge(epsilon)
        assert ledger.epsilon_spent == pytest.approx(sum(charges))
        assert ledger.queries == len(charges)

    @given(
        cap=st.floats(0.5, 20.0),
        charges=st.lists(st.floats(0.01, 3.0), min_size=1, max_size=40),
    )
    @settings(max_examples=60)
    def test_cap_never_exceeded(self, cap, charges):
        from repro.analysis.ledger import BudgetExceededError

        ledger = PrivacyLedger(epsilon_cap=cap)
        for epsilon in charges:
            try:
                ledger.charge(epsilon)
            except BudgetExceededError:
                pass
        assert ledger.epsilon_spent <= cap + 1e-9


class TestNetworkProperties:
    @given(
        rtt=st.floats(0.0, 1000.0),
        bandwidth=st.floats(0.1, 10_000.0),
        roundtrips=st.integers(0, 100),
        blocks=st.floats(0, 10_000),
        block_bytes=st.integers(1, 1 << 16),
    )
    @settings(max_examples=80)
    def test_monotone_in_all_arguments(
        self, rtt, bandwidth, roundtrips, blocks, block_bytes
    ):
        link = NetworkModel(rtt_ms=rtt, bandwidth_mbps=bandwidth)
        base = link.response_time_ms(roundtrips, blocks, block_bytes)
        assert base >= 0
        assert link.response_time_ms(roundtrips + 1, blocks,
                                     block_bytes) >= base
        assert link.response_time_ms(roundtrips, blocks + 1,
                                     block_bytes) >= base


class TestReplayProperties:
    @given(
        data=st.lists(
            st.tuples(st.booleans(), st.integers(0, 15),
                      st.integers(0, 10**6)),
            max_size=25,
        )
    )
    @settings(max_examples=40)
    def test_roundtrip_arbitrary_traces(self, data, tmp_path_factory):
        operations = []
        for is_write, index, payload in data:
            if is_write:
                operations.append(Operation.write(index, encode_int(payload)))
            else:
                operations.append(Operation.read(index))
        trace = Trace(operations, universe=16, name="prop")
        path = tmp_path_factory.mktemp("replay") / "trace.jsonl"
        save_trace(trace, path)
        assert load_trace(path).operations == operations


class TestRecursiveOramProperties:
    @given(
        seed=st.integers(0, 2**32),
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(0, 63),
                      st.integers(0, 10**6)),
            max_size=15,
        ),
    )
    @settings(max_examples=15, deadline=None)
    def test_matches_dict_model(self, seed, ops):
        rng = SeededRandomSource(seed)
        oram = RecursivePathORAM(integer_database(64), positions_per_block=4,
                                 client_map_limit=8, rng=rng)
        model = {i: encode_int(i) for i in range(64)}
        for is_write, index, payload in ops:
            if is_write:
                value = encode_int(payload)
                oram.write(index, value)
                model[index] = value
            else:
                assert oram.read(index) == model[index]


class TestIntegerDatabaseProperties:
    @given(count=st.integers(0, 300), size=st.integers(0, 80))
    def test_is_encode_int_per_record(self, count, size):
        # The one-pass build is the per-record encoder, refusals included.
        if size < 8:
            with pytest.raises(BlockSizeError):
                integer_database(count, size)
            with pytest.raises(BlockSizeError):
                encode_int(count, size)
        else:
            assert integer_database(count, size) == [
                encode_int(i, size) for i in range(count)
            ]
