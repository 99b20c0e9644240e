"""Tests for repro.core.sharded_ir."""

import pytest

from repro.core.sharded_ir import ShardedDPIR
from repro.storage.blocks import integer_database
from repro.storage.errors import RetrievalError, StorageError


def _scheme(rng, n=64, shards=4, pad=8, alpha=0.1):
    return ShardedDPIR(integer_database(n), shard_count=shards,
                       pad_size=pad, alpha=alpha, rng=rng.spawn("sharded"))


class TestLayout:
    def test_storage_is_n_not_dn(self, rng):
        scheme = _scheme(rng, n=64, shards=4)
        assert scheme.total_storage_blocks() == 64

    def test_uneven_split(self, rng):
        scheme = _scheme(rng, n=10, shards=3, pad=2)
        sizes = [server.capacity for server in scheme.shards]
        assert sorted(sizes) == [3, 3, 4]
        assert sum(sizes) == 10

    def test_shard_of_covers_all_indices(self, rng):
        scheme = _scheme(rng, n=37, shards=5, pad=2)
        for index in range(37):
            shard = scheme.shard_of(index)
            lo = sum(s.capacity for s in scheme.shards[:shard])
            assert lo <= index < lo + scheme.shards[shard].capacity

    def test_shard_of_out_of_range(self, rng):
        scheme = _scheme(rng, n=16, shards=2, pad=2)
        with pytest.raises(StorageError):
            scheme.shard_of(16)

    def test_rejects_more_shards_than_blocks(self, rng):
        with pytest.raises(ValueError):
            ShardedDPIR(integer_database(4), shard_count=8, pad_size=1,
                        rng=rng)


class TestQuerying:
    def test_correct_answers(self, rng):
        scheme = _scheme(rng, alpha=0.01)
        db = integer_database(64)
        for index in (0, 15, 16, 63):
            answers = [scheme.query(index) for _ in range(30)]
            hits = [a for a in answers if a is not None]
            assert hits
            assert all(a == db[index] for a in hits)

    def test_error_rate(self, rng):
        scheme = _scheme(rng, alpha=0.3)
        trials = 800
        errors = sum(1 for _ in range(trials) if scheme.query(5) is None)
        assert 0.24 < errors / trials < 0.36
        assert scheme.error_count == errors

    def test_total_bandwidth_is_pad_size(self, rng):
        scheme = _scheme(rng, pad=8)
        before = sum(s.operations for s in scheme.shards)
        scheme.query(0)
        assert sum(s.operations for s in scheme.shards) - before == 8

    def test_out_of_range(self, rng):
        scheme = _scheme(rng, n=16, shards=2, pad=2)
        with pytest.raises(RetrievalError):
            scheme.query(16)


class TestShardViews:
    def test_view_restricted_to_corrupted_shards(self, rng):
        scheme = _scheme(rng, n=64, shards=4, pad=16)
        view = scheme.sample_shard_view(0, corrupted={1, 2})
        assert all(scheme.shard_of(g) in {1, 2} for g in view)

    def test_full_corruption_sees_pad(self, rng):
        scheme = _scheme(rng, n=64, shards=4, pad=16)
        view = scheme.sample_shard_view(0, corrupted={0, 1, 2, 3})
        assert len(view) == 16

    def test_view_scales_with_corrupted_fraction(self, rng):
        scheme = _scheme(rng, n=64, shards=4, pad=16, alpha=0.05)
        sizes = []
        for count in (1, 2, 4):
            total = sum(
                len(scheme.sample_shard_view(0, set(range(count))))
                for _ in range(200)
            )
            sizes.append(total / 200)
        assert sizes[0] < sizes[1] < sizes[2]

    def test_sampling_touches_no_servers(self, rng):
        scheme = _scheme(rng)
        before = sum(s.operations for s in scheme.shards)
        scheme.sample_shard_view(0, {0})
        assert sum(s.operations for s in scheme.shards) == before


class TestHotShardLoad:
    def test_hot_record_loads_its_shard(self, rng):
        # The trade versus replication: hot traffic shows up on one shard.
        scheme = _scheme(rng, n=64, shards=4, pad=4, alpha=0.05)
        hot = 5  # lives on shard 0
        for _ in range(300):
            scheme.query(hot)
        loads = [server.reads for server in scheme.shards]
        assert loads[0] > max(loads[1:])

    def test_harness_integration(self, rng):
        from repro.simulation.harness import run_trace
        from repro.workloads.generators import uniform_trace

        db = integer_database(64)
        scheme = _scheme(rng, pad=8, alpha=0.1)
        trace = uniform_trace(64, 100, rng.spawn("t"))
        metrics = run_trace(scheme, trace, initial=db)
        assert metrics.mismatches == 0
        assert metrics.blocks_per_operation == 8.0
