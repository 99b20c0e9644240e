"""Property tests for the batched hot path.

Four families:

* ``read_many`` / ``write_many`` are observationally equivalent to the
  per-slot loop — identical blocks, counters and transcript event
  sequences — including under fault injection (``FlakyServer``
  mid-batch leaves exactly the per-slot prefix behind).
* ``sample_distinct`` / ``draw_pad_set`` against a draw-at-a-time
  reference of the word carve kept here (``loop_*``): same bytes in,
  same values out in the same order, same stream position afterwards —
  on seeded streams, at every word-width boundary and on scripted byte
  strings that force collisions, biased-tail rejections and top-ups.
* The carve is *exact*: every 16-bit word through the production decode,
  and every input of the reference at 8- and 4-bit words, gives each
  subset (and each lead element, and each pad) the same number of
  preimages.  Seeded frequency audits then check ``draw_pad_set``
  two-sidedly against ``repro.analysis.dp_ir_exact``.
* ``DPIR`` and its per-slot oracle (``_PerSlotDPIR``, kept here) are the
  same scheme at the same seed — answers, counters, α errors and
  per-query transcripts all agree.
"""

import itertools
import math
import os
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.dp_ir_exact import (
    dpir_membership_probabilities,
    dpir_transcript_probability,
)
from repro.core.dp_ir import DPIR
from repro.core.sampling import draw_pad_set
from repro.crypto.rng import (
    RandomSource,
    SeededRandomSource,
    SystemRandomSource,
)
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


class Tape(RandomSource):
    """A source whose ``bytes()`` replays a script, then a seeded stream.

    Everything served is kept, so the draw-at-a-time reference can be
    run over the very bytes the code under test read; ``random()`` is a
    scripted α coin.
    """

    def __init__(self, script=b"", seed=0, coin=0.5):
        self._script = script
        self._rest = SeededRandomSource(seed)
        self._coin = coin
        self.served = b""
        self.reads = []

    def random(self):
        return self._coin

    def randbelow(self, bound):
        raise AssertionError("the carve draws bytes only")

    def bytes(self, length):
        chunk, self._script = self._script[:length], self._script[length:]
        chunk += self._rest.bytes(length - len(chunk))
        self.served += chunk
        self.reads.append(length)
        return chunk

    def spawn(self, label):
        raise AssertionError("the carve spawns nothing")

    def lanes(self, universe):
        """What was served, as the lane integers of ``universe``'s carve."""
        lane_bytes = geometry(universe)[1]
        assert len(self.served) % lane_bytes == 0
        return iter([
            int.from_bytes(self.served[at:at + lane_bytes], "little")
            for at in range(0, len(self.served), lane_bytes)
        ])


def geometry(universe):
    """``(word_bits, lane_bytes)`` of the production carve for ``universe``."""
    value_bytes = next(w for w in (1, 2, 4, 8) if universe <= 1 << 8 * w)
    return 16 * value_bytes, 3 * value_bytes


def loop_first_distinct(lanes, universe, want, word_bits):
    """The carve one lane at a time: first ``want`` distinct accepted values.

    A lane's low ``word_bits`` bits are its word ``w``; the value is
    ``(w * universe) >> word_bits`` and the word is rejected when the
    remainder falls below ``2^word_bits mod universe``.
    """
    modulus = 1 << word_bits
    picked, seen = [], set()
    while len(picked) < want:
        value, low = divmod(next(lanes) % modulus * universe, modulus)
        if low >= modulus % universe and value not in seen:
            picked.append(value)
            seen.add(value)
    return picked


def loop_sample_distinct(lanes, universe, count, word_bits):
    """``sample_distinct`` over a lane stream, dense complement included."""
    if 2 * count <= universe:
        return loop_first_distinct(lanes, universe, count, word_bits)
    *dropped, lead = loop_first_distinct(
        lanes, universe, universe - count + 1, word_bits
    )
    dropped = {lead, *dropped}
    return [lead] + [v for v in range(universe) if v not in dropped]


def loop_draw_pad_set(coin, lanes, n, pad_size, alpha, index, word_bits):
    """``draw_pad_set`` on a given α coin and lane stream."""
    pad = loop_sample_distinct(lanes, n, pad_size, word_bits)
    if coin < alpha:
        return pad, False
    # The index takes its own slot if it was drawn, else the lead's.
    slot = pad.index(index) if index in pad else 0
    pad[slot] = pad[0]
    pad[0] = index
    return pad, True


def accepted_word(value, universe, word_bits):
    """The smallest word the carve maps to ``value`` and accepts."""
    modulus = 1 << word_bits
    return -(-(value * modulus + modulus % universe) // universe)


def script_for(universe, targets):
    """Lanes hitting ``targets`` in turn; ``None`` is a rejected word.

    Word 0 has remainder 0, which is in the biased tail of every
    universe that is not a power of two.  The lane's headroom bytes are
    set, so a decode that fails to mask them shows.
    """
    word_bits, lane_bytes = geometry(universe)
    word_bytes = word_bits // 8
    return b"".join(
        (0 if target is None else accepted_word(target, universe, word_bits))
        .to_bytes(word_bytes, "little") + b"\xff" * (lane_bytes - word_bytes)
        for target in targets
    )


def assert_matches_reference(tape, universe, count):
    picked = tape.sample_distinct(universe, count)
    lanes = tape.lanes(universe)
    assert picked == loop_sample_distinct(
        lanes, universe, count, geometry(universe)[0]
    )
    # Same stream position: the reference used every lane that was read.
    assert next(lanes, None) is None
    return picked


WIDTH_BOUNDARIES = [
    2**8 - 1, 2**8, 2**8 + 1, 2**16 - 1, 2**16, 2**16 + 1,
    2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64,
]


class TestSamplerMatchesTheLoopOracle:
    @given(
        seed=seeds,
        universe=st.integers(min_value=1, max_value=80),
        data=st.data(),
    )
    @settings(max_examples=150)
    def test_same_values_order_and_stream(self, seed, universe, data):
        # Small universes force collisions and rejections; counts above
        # half the universe take the complement path.
        count = data.draw(st.integers(min_value=0, max_value=universe))
        tape = Tape(seed=seed)
        picked = assert_matches_reference(tape, universe, count)
        # The concrete source runs the same carve on its own bytes().
        source, twin = SeededRandomSource(seed), SeededRandomSource(seed)
        assert source.sample_distinct(universe, count) == picked
        for length in tape.reads:
            twin.bytes(length)
        assert source.random() == twin.random()

    @pytest.mark.parametrize("universe", [1, 2, 3, 7, 8, 9, *WIDTH_BOUNDARIES[:6]])
    def test_edge_counts(self, universe):
        half = universe // 2
        for count in sorted({0, 1, half, min(half + 1, universe), universe}):
            picked = assert_matches_reference(
                Tape(seed=universe + count), universe, count
            )
            assert len(set(picked)) == len(picked) == count
            assert all(0 <= value < universe for value in picked)

    @pytest.mark.parametrize("universe", WIDTH_BOUNDARIES)
    def test_both_sides_of_every_word_width(self, universe):
        for count in (0, 1, 2, 64):
            picked = assert_matches_reference(
                Tape(seed=count), universe, count
            )
            assert len(set(picked)) == count
            assert all(0 <= value < universe for value in picked)

    def test_universe_beyond_the_widest_word_is_refused(self):
        with pytest.raises(ValueError):
            SeededRandomSource(0).sample_distinct(2**64 + 1, 2)

    def test_scripted_rejections_collisions_and_top_ups(self):
        # reject, 3 | 3 (collision) | reject | 1: four reads, the last
        # three topping up one lane each, and nothing read past the end.
        tape = Tape(script_for(5, [None, 3, 3, None, 1]))
        assert assert_matches_reference(tape, 5, 2) == [3, 1]
        assert tape.reads == [6, 3, 3, 3]
        # Dense: 4 of 5 carves 5 - 4 + 1 = 2 values; the second leads.
        tape = Tape(script_for(5, [2, 2, None, 4]))
        assert assert_matches_reference(tape, 5, 4) == [4, 0, 1, 3]
        assert tape.reads == [6, 3, 3]

    @given(
        universe=st.sampled_from([3, 5, 6, 7, 12, 100, 255, 257, 1000]),
        seed=seeds,
        data=st.data(),
    )
    @settings(max_examples=150)
    def test_scripted_streams(self, universe, seed, data):
        # Arbitrary prefixes of repeated values and rejected words, then
        # a seeded stream: chains of top-ups must agree too.
        targets = data.draw(st.lists(
            st.one_of(st.none(), st.integers(0, min(universe, 9) - 1)),
            max_size=16,
        ))
        count = data.draw(st.integers(min_value=0, max_value=min(universe, 12)))
        tape = Tape(script_for(universe, targets), seed=seed)
        assert_matches_reference(tape, universe, count)

    @given(
        seed=seeds,
        n=st.sampled_from([64, 100, 300]),
        coin=st.floats(0, 1, exclude_max=True),
        alpha=st.sampled_from([0.0, 0.3, 1.0]),
        data=st.data(),
    )
    @settings(max_examples=150)
    def test_pad_set_same_values_order_and_stream(
        self, seed, n, coin, alpha, data
    ):
        pad_size = data.draw(st.integers(min_value=1, max_value=n))
        index = data.draw(st.integers(min_value=0, max_value=n - 1))
        tape = Tape(seed=seed, coin=coin)
        drawn = draw_pad_set(tape, n, pad_size, alpha, index)
        lanes = tape.lanes(n)
        assert drawn == loop_draw_pad_set(
            coin, lanes, n, pad_size, alpha, index, geometry(n)[0]
        )
        assert next(lanes, None) is None

    def test_system_source_draws_a_pad_with_one_urandom_call(
        self, monkeypatch
    ):
        # A seeded stand-in for the kernel keeps the (3 %) collision
        # top-up out of the count.
        calls = []
        entropy = SeededRandomSource(5)

        def urandom(length):
            calls.append(length)
            return entropy.bytes(length)

        monkeypatch.setattr(os, "urandom", urandom)
        picked = SystemRandomSource().sample_distinct(65536, 63)
        assert len(set(picked)) == 63
        assert calls == [63 * 6]


def _preimages(universe, count, word_bits, length, outcome):
    """Tally ``outcome(result)`` over *every* stream of ``length`` lanes.

    Streams too short to finish the draw are the carve's "read on" case
    and count for nothing; a stream that finishes early stands for all
    its continuations, which the enumeration visits one by one.
    """
    tally = Counter()
    for stream in itertools.product(range(1 << word_bits), repeat=length):
        try:
            result = loop_sample_distinct(
                iter(stream), universe, count, word_bits
            )
        except StopIteration:
            continue
        tally[outcome(result)] += 1
    return tally


class TestExactnessByEnumeration:
    """Zero bias as an identity, not a tolerance."""

    @pytest.mark.parametrize("universe", [3, 5, 6, 7, 100, 255, 256])
    def test_production_decode_of_every_16_bit_word(self, universe):
        # All 65 536 words of a one-byte-value lane, 4 096 to a carve
        # call: each value keeps exactly floor(2^16 / universe) words.
        values = []
        for start in range(0, 1 << 16, 1 << 12):
            script = b"".join(
                word.to_bytes(2, "little") + b"\xa5"
                for word in range(start, start + (1 << 12))
            )
            values += Tape(script)._carve(universe, 1 << 12)
        assert len(values) == (1 << 16) - (1 << 16) % universe
        assert set(Counter(values).values()) == {(1 << 16) // universe}
        assert set(values) == set(range(universe))
        # ...in stream order: the reference sees the same sequence.
        assert values == [
            word * universe >> 16
            for word in range(1 << 16)
            if (word * universe) % (1 << 16) >= (1 << 16) % universe
        ]

    @pytest.mark.parametrize(
        "universe,count,word_bits,length",
        [(u, c, 8, 2) for u in (3, 5, 6, 7) for c in (1, 2)]
        + [(3, 2, 4, 4), (5, 2, 4, 4), (5, 3, 4, 4), (6, 3, 4, 4),
           (6, 4, 4, 4), (7, 3, 4, 4), (7, 5, 4, 4), (7, 7, 4, 4)],
    )
    def test_every_subset_and_lead_has_the_same_preimages(
        self, universe, count, word_bits, length
    ):
        tally = _preimages(
            universe, count, word_bits, length,
            lambda result: (frozenset(result), result[0]),
        )
        # Every (subset, lead) pair occurs, all equally often: the set is
        # uniform and its first element is uniform given the set.
        assert len(tally) == math.comb(universe, count) * count
        assert len(set(tally.values())) == 1

    @pytest.mark.parametrize(
        "n,pad_size,index", [(5, 3, 0), (6, 3, 5), (7, 4, 2), (7, 2, 6)]
    )
    def test_every_pad_has_the_same_preimages(self, n, pad_size, index):
        # The production ``draw_pad_set`` on the include-real branch,
        # fed the sample of every 4-lane stream of 4-bit words: each
        # (K-1)-subset of [n] \ {index} comes out equally often.
        class Sampled:
            def __init__(self, sample):
                self.sample = sample

            def random(self):
                return 0.5

            def sample_distinct(self, universe, count):
                assert (universe, count) == (n, pad_size)
                return list(self.sample)

        tally = Counter()
        for stream in itertools.product(range(16), repeat=4):
            try:
                sample = loop_sample_distinct(iter(stream), n, pad_size, 4)
            except StopIteration:
                continue
            pad, include_real = draw_pad_set(
                Sampled(sample), n, pad_size, 0.0, index
            )
            assert include_real and pad[0] == index
            assert index not in pad[1:] and len(set(pad)) == pad_size
            tally[frozenset(pad[1:])] += 1
        assert len(tally) == math.comb(n - 1, pad_size - 1)
        assert len(set(tally.values())) == 1


def _four_sigma(rate, trials):
    return 4.0 * math.sqrt(rate * (1.0 - rate) / trials)


class TestPadSetDistribution:
    """Seeded, two-sided: too much pad mass fails as well as too little."""

    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95])
    @pytest.mark.parametrize(
        "n,pad_size", [(7, 3), (8, 4), (9, 7), (10, 5), (11, 6), (12, 2)]
    )
    def test_subset_frequencies_match_the_exact_analysis(
        self, n, pad_size, alpha
    ):
        index = n // 3
        rng = SeededRandomSource(1000 * n + pad_size)
        trials = 20000
        observed = Counter()
        for _ in range(trials):
            pad, include_real = draw_pad_set(rng, n, pad_size, alpha, index)
            assert len(set(pad)) == pad_size
            if include_real:
                assert pad[0] == index
            observed[frozenset(pad)] += 1
        chi2 = dof = 0
        for subset in itertools.combinations(range(n), pad_size):
            expected = trials * dpir_transcript_probability(
                n, pad_size, alpha, index, frozenset(subset)
            )
            if expected == 0.0:
                assert frozenset(subset) not in observed
                continue
            chi2 += (observed[frozenset(subset)] - expected) ** 2 / expected
            dof += 1
        dof -= 1
        # Five standard deviations of a chi-square with ``dof`` degrees.
        assert chi2 < dof + 5.0 * math.sqrt(2.0 * dof)

    @pytest.mark.parametrize(
        "n,pad_size",
        [(7, 1), (7, 7), (13, 6), (13, 7), (16, 4), (23, 20), (32, 8),
         (40, 5), (40, 21), (40, 39)],
    )
    def test_membership_rates_are_the_declared_ones(self, n, pad_size):
        alpha, index, other = 0.3, n - 2, 1
        own_rate, other_rate = dpir_membership_probabilities(
            n, pad_size, alpha
        )
        assert own_rate == pytest.approx((1 - alpha) + alpha * pad_size / n)
        rng = SeededRandomSource(77 * n + pad_size)
        trials = 20000
        own = others = errors = error_leads = 0
        for _ in range(trials):
            pad, include_real = draw_pad_set(rng, n, pad_size, alpha, index)
            own += index in pad
            others += other in pad
            if include_real:
                assert pad[0] == index
            else:
                errors += 1
                error_leads += pad[0] == index
        assert abs(own / trials - own_rate) <= _four_sigma(own_rate, trials)
        assert abs(others / trials - other_rate) <= _four_sigma(
            other_rate, trials
        )
        assert abs(errors / trials - alpha) <= _four_sigma(alpha, trials)
        # On the error branch the index leads only by chance.
        assert abs(error_leads / errors - 1 / n) <= _four_sigma(1 / n, errors)


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


class _PerSlotDPIR(DPIR):
    """Oracle: Algorithm 1 with the pad set fetched by ``K`` per-slot
    ``read()`` calls instead of one ``read_many`` round.

    Consumes the same randomness, touches the same slots in the same
    sorted order and leaves identical counters and transcripts as
    :class:`~repro.core.dp_ir.DPIR` — the baseline the invariance
    witnesses below compare against.
    """

    def query(self, index: int) -> bytes | None:
        download_set, include_real = self._draw_set(index)
        self._server.begin_query(self._queries)
        self._queries += 1
        result: bytes | None = None
        for slot in sorted(download_set):
            block = self._server.read(slot)
            if include_real and slot == index:
                result = block
        if not include_real:
            self._errors += 1
        return result


class TestDPIRModeEquivalence:
    @staticmethod
    def _witnesses(seed, n, queries, **params):
        blocks = integer_database(n)
        workload = SeededRandomSource(seed ^ 0xBEEF)
        indices = [workload.randbelow(n) for _ in range(queries)]
        witnesses = []
        for scheme_type in (_PerSlotDPIR, DPIR):
            scheme = scheme_type(
                blocks, rng=SeededRandomSource(seed), **params
            )
            log = Transcript()
            scheme.attach_transcript(log)
            answers = [scheme.query(index) for index in indices]
            server = scheme.server
            witnesses.append(
                (answers, server.reads, server.writes, server.capacity,
                 scheme.epsilon, scheme.error_count, log.signature())
            )
        return witnesses

    @given(seed=seeds)
    @settings(max_examples=25)
    def test_batched_and_per_slot_are_the_same_scheme(self, seed):
        per_slot, batched = self._witnesses(
            seed, 64, 30, epsilon=math.log(64), alpha=0.2
        )
        assert per_slot == batched

    def test_seeded_witness_covers_the_alpha_error_branch(self):
        # One fixed history on which the α coin is known to have fired,
        # so the identity above is known to cover error events too; and
        # a query costs exactly K reads of an n-slot server either way.
        per_slot, batched = self._witnesses(
            0x1A7, 512, 200, pad_size=16, alpha=0.1
        )
        assert per_slot == batched
        _, reads, writes, capacity, _, errors, _ = batched
        assert (reads, writes, capacity) == (200 * 16, 0, 512)
        assert errors > 0
