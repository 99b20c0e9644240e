"""Tests for repro.core.multi_server (Appendix C)."""

import pytest

from repro.core.multi_server import MultiServerDPIR
from repro.storage.blocks import integer_database
from repro.storage.errors import RetrievalError


def _scheme(rng, n=64, servers=4, pad_size=8, alpha=0.1):
    return MultiServerDPIR(
        integer_database(n), server_count=servers, pad_size=pad_size,
        alpha=alpha, rng=rng.spawn("ms"),
    )


class TestConstruction:
    def test_rejects_zero_servers(self, rng, small_db):
        with pytest.raises(ValueError):
            MultiServerDPIR(small_db, server_count=0, pad_size=1, rng=rng)


class TestQuery:
    def test_successful_queries_correct(self, rng):
        scheme = _scheme(rng, alpha=0.05)
        db = integer_database(64)
        successes = 0
        for _ in range(100):
            answer = scheme.query(9)
            if answer is not None:
                successes += 1
                assert answer == db[9]
        assert successes > 80

    def test_error_rate(self, rng):
        scheme = _scheme(rng, alpha=0.4)
        trials = 1000
        errors = sum(1 for _ in range(trials) if scheme.query(0) is None)
        assert 0.33 < errors / trials < 0.47
        assert scheme.error_count == errors
        assert scheme.query_count == trials

    def test_total_bandwidth_is_pad_size(self, rng):
        scheme = _scheme(rng, pad_size=8)
        before = scheme.pool.total_operations()
        scheme.query(3)
        assert scheme.pool.total_operations() - before == 8

    def test_work_spreads_over_servers(self, rng):
        scheme = _scheme(rng, servers=4, pad_size=8)
        for _ in range(200):
            scheme.query(rng.randbelow(64))
        loads = [server.operations for server in scheme.pool]
        assert all(load > 0 for load in loads)
        assert max(loads) < 2.5 * min(loads)  # roughly balanced

    def test_out_of_range(self, rng):
        scheme = _scheme(rng)
        with pytest.raises(RetrievalError):
            scheme.query(64)


class TestCorruptedView:
    def test_view_only_contains_corrupted_servers(self, rng):
        scheme = _scheme(rng, servers=4)
        view = scheme.sample_corrupted_view(5, corrupted={1, 3})
        assert all(server in {1, 3} for server, _ in view)

    def test_full_corruption_sees_whole_plan(self, rng):
        scheme = _scheme(rng, servers=4, pad_size=8)
        view = scheme.sample_corrupted_view(5, corrupted={0, 1, 2, 3})
        assert len(view) == 8

    def test_view_size_scales_with_t(self, rng):
        scheme = _scheme(rng, servers=4, pad_size=8, alpha=0.05)
        sizes = {}
        for corrupted_count in (1, 2, 4):
            corrupted = set(range(corrupted_count))
            total = sum(
                len(scheme.sample_corrupted_view(0, corrupted))
                for _ in range(300)
            )
            sizes[corrupted_count] = total / 300
        assert sizes[1] < sizes[2] < sizes[4]
        assert sizes[4] == pytest.approx(8, abs=0.01)
        assert sizes[1] == pytest.approx(2, abs=0.6)

    def test_real_index_visibility_rate(self, rng):
        # Real fetch visible to one corrupted server of four ~ 1/4 of the
        # time (on the non-error branch).
        scheme = _scheme(rng, servers=4, pad_size=4, alpha=0.05)
        trials = 1500
        query = 17
        visible = sum(
            1
            for _ in range(trials)
            if any(slot == query
                   for _, slot in scheme.sample_corrupted_view(query, {0}))
        )
        # Pr ~= (1-a)*t + pad collisions ~= 0.95*0.25 + small
        assert 0.18 < visible / trials < 0.33

    def test_sampling_does_not_touch_servers(self, rng):
        scheme = _scheme(rng)
        before = scheme.pool.total_operations()
        scheme.sample_corrupted_view(0, {0})
        assert scheme.pool.total_operations() == before
