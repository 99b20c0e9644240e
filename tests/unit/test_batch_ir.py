"""Tests for repro.core.batch_ir."""

import pytest

from repro.core.batch_ir import BatchDPIR
from repro.storage.blocks import integer_database
from repro.storage.errors import RetrievalError


def _scheme(rng, n=128, pad=8, alpha=0.1):
    return BatchDPIR(integer_database(n), pad_size=pad, alpha=alpha,
                     rng=rng.spawn("batch"))


class TestBatchQueries:
    def test_answers_align_with_requests(self, rng):
        scheme = _scheme(rng, alpha=0.01)
        db = integer_database(128)
        indices = [3, 77, 12, 3]
        answers = scheme.query_batch(indices)
        assert len(answers) == 4
        for index, answer in zip(indices, answers):
            if answer is not None:
                assert answer == db[index]

    def test_duplicates_answered_independently(self, rng):
        scheme = _scheme(rng, alpha=0.5)
        outcomes = set()
        for _ in range(60):
            first, second = scheme.query_batch([5, 5])
            outcomes.add((first is None, second is None))
        # Independent coins: all four combinations appear.
        assert len(outcomes) == 4

    def test_error_rate_per_query(self, rng):
        scheme = _scheme(rng, alpha=0.3)
        batches = 300
        for _ in range(batches):
            scheme.query_batch([0, 1, 2])
        rate = scheme.error_count / scheme.query_count
        assert 0.25 < rate < 0.35

    def test_union_bandwidth_below_sum(self, rng):
        # The point of batching: coalesced pads cost less than m separate
        # queries at a meaningful pad-to-n ratio.
        scheme = _scheme(rng, n=64, pad=16, alpha=0.1)
        batch_size = 8
        before = scheme.server.reads
        scheme.query_batch(list(range(batch_size)))
        cost = scheme.server.reads - before
        assert cost < batch_size * scheme.pad_size
        assert cost <= scheme.n

    def test_expected_union_size_formula(self, rng):
        scheme = _scheme(rng, n=64, pad=16, alpha=0.1)
        expected = scheme.expected_union_size(8)
        assert expected == pytest.approx(
            64 * (1 - (1 - 1 / 64) ** (8 * 16))
        )
        # Empirically close:
        costs = []
        for _ in range(100):
            before = scheme.server.reads
            scheme.query_batch(list(range(8)))
            costs.append(scheme.server.reads - before)
        mean = sum(costs) / len(costs)
        assert mean == pytest.approx(expected, rel=0.1)

    def test_counters(self, rng):
        scheme = _scheme(rng)
        scheme.query_batch([0, 1])
        scheme.query_batch([2])
        assert scheme.batch_count == 2
        assert scheme.query_count == 3

    def test_empty_batch_rejected(self, rng):
        with pytest.raises(ValueError):
            _scheme(rng).query_batch([])

    def test_out_of_range_rejected(self, rng):
        scheme = _scheme(rng, n=16)
        with pytest.raises(RetrievalError):
            scheme.query_batch([0, 16])

    def test_expected_union_validation(self, rng):
        with pytest.raises(ValueError):
            _scheme(rng).expected_union_size(0)


class TestMembershipRates:
    def test_per_query_membership_matches_single_scheme(self, rng):
        # A batch of size 1 must behave exactly like DPIR.
        n, pad, alpha = 64, 4, 0.25
        scheme = _scheme(rng, n=n, pad=pad, alpha=alpha)
        trials = 2000
        included = 0
        for _ in range(trials):
            before = scheme.server.reads
            answers = scheme.query_batch([9])
            if answers[0] is not None:
                included += 1
            assert scheme.server.reads - before == pad
        assert included / trials == pytest.approx(1 - alpha, abs=0.03)
