"""Property tests for the batched hot path.

Three families:

* ``read_many`` / ``write_many`` are observationally equivalent to the
  per-slot loop — identical blocks, counters and transcript event
  sequences — including under fault injection (``FlakyServer``
  mid-batch leaves exactly the per-slot prefix behind).
* ``sample_distinct`` draws uniform distinct subsets: exact size, exact
  range, distinctness, a chi-square smoke over all subsets, and the
  hole-shifted pad-set construction preserves the real index.  The
  draw-at-a-time loops they replaced stay here as the oracle: same
  values, same order, same stream consumption.
* ``DPIR`` and its per-slot oracle (``repro.storage.bench._PerSlotDPIR``)
  are the same scheme at the same seed — answers, counters and
  per-query transcript multisets all agree.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dp_ir import DPIR
from repro.core.sampling import draw_pad_set
from repro.crypto.rng import SeededRandomSource, _float_floyd
from repro.storage.bench import _PerSlotDPIR
from repro.storage.blocks import integer_database
from repro.storage.errors import StorageError
from repro.storage.faults import FlakyServer, ServerFault
from repro.storage.server import StorageServer
from repro.storage.transcript import Transcript

seeds = st.integers(min_value=0, max_value=2**32)


def _loaded_server(n: int) -> StorageServer:
    server = StorageServer(n)
    server.load(integer_database(n))
    return server


class TestReadManyEquivalence:
    @given(
        seed=seeds,
        indices=st.lists(
            st.integers(min_value=0, max_value=31), min_size=0, max_size=48
        ),
    )
    @settings(max_examples=60)
    def test_matches_per_slot_loop(self, seed, indices):
        del seed  # reads draw no randomness; kept for shrinking variety
        loop_server = _loaded_server(32)
        batch_server = _loaded_server(32)
        loop_log, batch_log = Transcript(), Transcript()
        loop_server.attach_transcript(loop_log)
        batch_server.attach_transcript(batch_log)
        loop_server.begin_query(7)
        batch_server.begin_query(7)

        loop_blocks = [loop_server.read(index) for index in indices]
        batch_blocks = batch_server.read_many(indices)

        assert loop_blocks == batch_blocks
        assert loop_server.reads == batch_server.reads == len(indices)
        assert loop_log.signature() == batch_log.signature()

    @given(
        items=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=15),
                st.binary(min_size=4, max_size=4),
            ),
            min_size=0,
            max_size=24,
        )
    )
    @settings(max_examples=60)
    def test_write_many_matches_per_slot_loop(self, items):
        loop_server = _loaded_server(16)
        batch_server = _loaded_server(16)
        loop_log, batch_log = Transcript(), Transcript()
        loop_server.attach_transcript(loop_log)
        batch_server.attach_transcript(batch_log)

        for index, block in items:
            loop_server.write(index, block)
        batch_server.write_many(items)

        assert loop_server.writes == batch_server.writes == len(items)
        assert loop_log.signature() == batch_log.signature()
        for slot in range(16):
            assert loop_server.peek(slot) == batch_server.peek(slot)

    def test_out_of_range_fails_before_side_effects(self):
        server = _loaded_server(8)
        log = Transcript()
        server.attach_transcript(log)
        with pytest.raises(StorageError):
            server.read_many([0, 1, 99])
        # Fail-fast: no counters bumped, no events recorded.
        assert server.reads == 0
        assert len(log) == 0

    def test_unwritten_slot_fails_before_side_effects(self):
        server = StorageServer(4)
        server.write(0, b"x")
        with pytest.raises(StorageError):
            server.read_many([0, 1])
        assert server.reads == 0

    def test_empty_batch_is_free(self):
        server = _loaded_server(4)
        assert server.read_many([]) == []
        server.write_many([])
        assert server.operations == 0


class TestFaultInjectionEquivalence:
    @given(seed=seeds)
    @settings(max_examples=40)
    def test_flaky_mid_batch_matches_per_slot_loop(self, seed):
        indices = list(range(16))
        outcomes = []
        for mode in ("loop", "batch"):
            server = _loaded_server(16)
            log = Transcript()
            server.attach_transcript(log)
            flaky = FlakyServer(server, 0.3, SeededRandomSource(seed))
            served = None
            fault = None
            try:
                if mode == "loop":
                    served = [flaky.read(index) for index in indices]
                else:
                    served = flaky.read_many(indices)
            except ServerFault as exc:
                fault = str(exc)
            outcomes.append(
                (served, fault, server.reads, flaky.fault_counters(),
                 log.signature())
            )
        # Same answers (or the same fault at the same slot), the same
        # inner counter state, fault tally and transcript prefix.
        assert outcomes[0] == outcomes[1]

    def test_read_many_does_not_bypass_the_fault_layer(self):
        # A rate-1.0 flaky server must fail the very first batched slot;
        # if __getattr__ routed read_many to the inner server it would
        # silently succeed.
        server = _loaded_server(8)
        flaky = FlakyServer(server, 1.0, SeededRandomSource(0))
        with pytest.raises(ServerFault):
            flaky.read_many([0, 1, 2])
        assert flaky.failures == 1
        assert server.reads == 0


def loop_float_floyd(rand, universe, count):
    """Floyd's sampling one draw at a time, as ``_float_floyd`` ran it."""
    chosen = set()
    out = []
    for j in range(universe - count + 1, universe + 1):
        candidate = int(rand() * j)
        if candidate in chosen:
            candidate = j - 1
        chosen.add(candidate)
        out.append(candidate)
    return out


def loop_draw_pad_set(rng, n, pad_size, alpha, index):
    """``draw_pad_set`` appending one shifted value at a time."""
    if rng.random() >= alpha:
        pad = [index]
        for value in loop_float_floyd(rng.random, n - 1, pad_size - 1):
            pad.append(value + 1 if value >= index else value)
        return pad, True
    return loop_float_floyd(rng.random, n, pad_size), False


class TestSamplerMatchesTheLoopOracle:
    @given(
        seed=seeds,
        universe=st.integers(min_value=1, max_value=80),
        data=st.data(),
    )
    @settings(max_examples=150)
    def test_same_values_order_and_stream(self, seed, universe, data):
        # Small universes force collisions; count == universe forces
        # the fix-up on nearly every step.
        count = data.draw(st.integers(min_value=0, max_value=universe))
        source, oracle = SeededRandomSource(seed), SeededRandomSource(seed)
        assert source.sample_distinct(universe, count) == loop_float_floyd(
            oracle.random, universe, count
        )
        assert source.random() == oracle.random()

    @given(draws=st.lists(st.floats(0, 1, exclude_max=True), max_size=12))
    def test_scripted_collisions_replay_floyds_fix_up(self, draws):
        # Arbitrary raw draws, repeated ones included: chains where a
        # replaced candidate collides with a later draw must agree too.
        universe = len(draws) + 3
        assert _float_floyd(
            iter(draws).__next__, universe, len(draws)
        ) == loop_float_floyd(iter(draws).__next__, universe, len(draws))

    @given(
        seed=seeds,
        pad_size=st.integers(min_value=1, max_value=64),
        alpha=st.sampled_from([0.0, 0.3, 1.0]),
        index=st.integers(min_value=0, max_value=63),
    )
    @settings(max_examples=150)
    def test_pad_set_same_values_order_and_stream(
        self, seed, pad_size, alpha, index
    ):
        source, oracle = SeededRandomSource(seed), SeededRandomSource(seed)
        assert draw_pad_set(source, 64, pad_size, alpha, index) == (
            loop_draw_pad_set(oracle, 64, pad_size, alpha, index)
        )
        assert source.random() == oracle.random()


class TestSampleDistinct:
    @given(
        seed=seeds,
        universe=st.integers(min_value=1, max_value=200),
        data=st.data(),
    )
    @settings(max_examples=80)
    def test_exact_size_range_distinct(self, seed, universe, data):
        count = data.draw(st.integers(min_value=0, max_value=universe))
        picked = SeededRandomSource(seed).sample_distinct(universe, count)
        assert len(picked) == count
        assert len(set(picked)) == count
        assert all(0 <= value < universe for value in picked)

    def test_full_universe_is_a_permutation(self):
        picked = SeededRandomSource(3).sample_distinct(10, 10)
        assert sorted(picked) == list(range(10))

    def test_rejects_bad_counts(self):
        source = SeededRandomSource(4)
        with pytest.raises(ValueError):
            source.sample_distinct(5, 6)
        with pytest.raises(ValueError):
            source.sample_distinct(5, -1)

    def test_chi_square_uniform_over_subsets(self):
        # All C(6, 2) = 15 subsets of a 6-element universe should be
        # equally likely; a chi-square smoke with a generous bound
        # (p ~ 1e-4 has chi2 ~ 40 at 14 dof).
        source = SeededRandomSource(0x5A17)
        trials = 6000
        counts: dict[frozenset, int] = {}
        for _ in range(trials):
            subset = frozenset(source.sample_distinct(6, 2))
            counts[subset] = counts.get(subset, 0) + 1
        assert len(counts) == 15
        expected = trials / 15
        chi2 = sum(
            (observed - expected) ** 2 / expected
            for observed in counts.values()
        )
        assert chi2 < 40.0

    def test_inclusion_rate_is_k_over_n(self):
        source = SeededRandomSource(0xFACE)
        trials = 4000
        hits = sum(
            1 for _ in range(trials) if 7 in source.sample_distinct(20, 5)
        )
        assert abs(hits / trials - 5 / 20) < 0.03


class TestDrawPadSet:
    @given(seed=seeds, index=st.integers(min_value=0, max_value=63))
    @settings(max_examples=80)
    def test_shape(self, seed, index):
        pad, include_real = draw_pad_set(
            SeededRandomSource(seed), 64, 8, 0.2, index
        )
        assert len(pad) == 8
        assert len(set(pad)) == 8
        assert all(0 <= value < 64 for value in pad)
        if include_real:
            assert pad[0] == index

    def test_error_branch_rate(self):
        rng = SeededRandomSource(0xA1FA)
        trials = 3000
        errors = sum(
            1
            for _ in range(trials)
            if not draw_pad_set(rng, 32, 4, 0.25, 0)[1]
        )
        assert 0.21 < errors / trials < 0.29


class TestDPIRModeEquivalence:
    @given(seed=seeds)
    @settings(max_examples=25)
    def test_batched_and_per_slot_are_the_same_scheme(self, seed):
        n = 64
        blocks = integer_database(n)
        workload = SeededRandomSource(seed ^ 0xBEEF)
        indices = [workload.randbelow(n) for _ in range(30)]
        witnesses = []
        for scheme_type in (_PerSlotDPIR, DPIR):
            scheme = scheme_type(
                blocks,
                epsilon=math.log(n),
                alpha=0.2,
                rng=SeededRandomSource(seed),
            )
            log = Transcript()
            scheme.attach_transcript(log)
            answers = [scheme.query(index) for index in indices]
            witnesses.append(
                (answers, scheme.server.reads, scheme.error_count,
                 log.signature())
            )
        assert witnesses[0] == witnesses[1]
