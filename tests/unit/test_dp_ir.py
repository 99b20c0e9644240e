"""Tests for repro.core.dp_ir (Algorithm 1) and the client core its four
placements share."""

import hashlib
import math

import pytest

from repro.core.batch_ir import BatchDPIR
from repro.core.dp_ir import DPIR
from repro.core.multi_server import MultiServerDPIR
from repro.core.sharded_ir import ShardedDPIR
from repro.crypto.rng import SeededRandomSource
from repro.storage.blocks import integer_database
from repro.storage.errors import BlockSizeError, RetrievalError
from repro.storage.transcript import Transcript


def _scheme(rng, n=64, epsilon=None, alpha=0.1, pad_size=None):
    db = integer_database(n)
    if epsilon is None and pad_size is None:
        epsilon = math.log(n)
    return DPIR(db, epsilon=epsilon, pad_size=pad_size, alpha=alpha,
                rng=rng.spawn("dpir")), db


_FAMILY = [DPIR, BatchDPIR, MultiServerDPIR, ShardedDPIR]


@pytest.mark.parametrize("scheme_type", _FAMILY)
class TestFamilyConstructorContract:
    """One constructor under the four classes: what it refuses, it refuses
    everywhere; what it resolves, it resolves as ``DPIR`` does."""

    def test_rejects_empty_database(self, scheme_type, rng):
        with pytest.raises(ValueError):
            scheme_type([], pad_size=1, rng=rng)

    def test_requires_exactly_one_of_epsilon_and_pad_size(
        self, scheme_type, rng, small_db
    ):
        with pytest.raises(ValueError):
            scheme_type(small_db, epsilon=1.0, pad_size=2, rng=rng)
        with pytest.raises(ValueError):
            scheme_type(small_db, rng=rng)

    def test_rejects_ragged_database(self, scheme_type, small_db):
        source = SeededRandomSource(8)
        ragged = small_db[:5] + [b"short"] + small_db[6:]
        with pytest.raises(BlockSizeError, match="block 5 has 5 bytes"):
            scheme_type(ragged, pad_size=2, rng=source)
        assert source.random() == SeededRandomSource(8).random()

    @pytest.mark.parametrize("budget", [{"pad_size": 4}, {"epsilon": 2.5}])
    def test_parameters_agree_with_dpir(
        self, scheme_type, budget, rng, small_db
    ):
        scheme = scheme_type(small_db, alpha=0.1, rng=rng.spawn("a"), **budget)
        single = DPIR(small_db, alpha=0.1, rng=rng.spawn("b"), **budget)
        assert scheme.params == single.params
        assert (scheme.epsilon, scheme.pad_size, scheme.alpha) == (
            single.epsilon, single.pad_size, single.alpha
        )
        assert (scheme.n, scheme.block_size) == (32, len(small_db[0]))


@pytest.mark.parametrize("scheme_type,helper,corrupted", [
    (DPIR, "sample_query_set", ()),
    (BatchDPIR, "sample_query_set", ()),
    (MultiServerDPIR, "sample_corrupted_view", ({0},)),
    (ShardedDPIR, "sample_shard_view", ({0},)),
])
@pytest.mark.parametrize("bad", [-1, 64])
def test_sampling_helper_rejects_bad_index_before_the_first_coin(
    scheme_type, helper, corrupted, bad
):
    # The auditors call these: a refused sample must not shift the stream
    # the next sample is drawn from.
    source = SeededRandomSource(4)
    scheme = scheme_type(integer_database(64), pad_size=4, alpha=0.1, rng=source)
    with pytest.raises(RetrievalError):
        getattr(scheme, helper)(bad, *corrupted)
    assert source.random() == SeededRandomSource(4).random()
    assert scheme.server_counters() == (0, 0)


class TestConstruction:
    def test_pad_size_resolution(self, rng):
        scheme, _ = _scheme(rng, n=1000, epsilon=math.log(1000), alpha=0.05)
        expected = math.ceil(0.95 * 1000 / (0.05 * (1000 - 1)))
        assert scheme.pad_size == expected
        assert scheme.epsilon <= math.log(1000)

    def test_explicit_pad_size(self, rng):
        scheme, _ = _scheme(rng, pad_size=5)
        assert scheme.pad_size == 5

    def test_exposes_exact_epsilon(self, rng):
        scheme, _ = _scheme(rng, n=64, pad_size=4, alpha=0.1)
        expected = math.log(0.9 * 64 / (0.1 * 4) + 1)
        assert scheme.epsilon == pytest.approx(expected)


class TestQuery:
    def test_successful_query_returns_block(self, rng):
        scheme, db = _scheme(rng, alpha=0.01)
        answers = [scheme.query(7) for _ in range(50)]
        successes = [a for a in answers if a is not None]
        assert successes  # alpha=0.01 so most succeed
        assert all(a == db[7] for a in successes)

    def test_error_rate_near_alpha(self, rng):
        scheme, _ = _scheme(rng, alpha=0.3)
        trials = 2000
        errors = sum(1 for _ in range(trials) if scheme.query(3) is None)
        assert 0.25 < errors / trials < 0.35

    def test_error_counter(self, rng):
        scheme, _ = _scheme(rng, alpha=0.5)
        for _ in range(100):
            scheme.query(0)
        assert scheme.query_count == 100
        assert scheme.error_count > 10
        assert scheme.error_count == sum(
            1 for _ in ()
        ) + scheme.error_count  # counter is stable

    def test_bandwidth_is_exactly_pad_size(self, rng):
        scheme, _ = _scheme(rng, pad_size=6)
        before = scheme.server.reads
        scheme.query(1)
        assert scheme.server.reads - before == 6

    def test_out_of_range_rejected(self, rng):
        scheme, _ = _scheme(rng)
        with pytest.raises(RetrievalError):
            scheme.query(scheme.n)
        with pytest.raises(RetrievalError):
            scheme.query(-1)

    def test_stateless_between_queries(self, rng):
        # IR keeps no client state: identical distributions per query,
        # checked coarsely via the pad contents covering the universe.
        scheme, _ = _scheme(rng, n=16, pad_size=4)
        seen = set()
        for _ in range(400):
            seen |= scheme.sample_query_set(0)
        assert seen == set(range(16))


class TestSampleQuerySet:
    def test_size_is_pad_size(self, rng):
        scheme, _ = _scheme(rng, pad_size=7)
        for _ in range(50):
            assert len(scheme.sample_query_set(2)) == 7

    def test_real_index_inclusion_rate(self, rng):
        scheme, _ = _scheme(rng, n=64, pad_size=2, alpha=0.25)
        trials = 3000
        included = sum(
            1 for _ in range(trials) if 5 in scheme.sample_query_set(5)
        )
        # Pr[q in T] = (1-a) + a*K/n = 0.75 + 0.25*2/64
        expected = 0.75 + 0.25 * 2 / 64
        assert abs(included / trials - expected) < 0.04

    def test_other_index_inclusion_rate(self, rng):
        scheme, _ = _scheme(rng, n=64, pad_size=2, alpha=0.25)
        trials = 3000
        included = sum(
            1 for _ in range(trials) if 9 in scheme.sample_query_set(5)
        )
        # Pr[q' in T] = (1-a)(K-1)/(n-1) + a*K/n
        expected = 0.75 * 1 / 63 + 0.25 * 2 / 64
        assert abs(included / trials - expected) < 0.03

    def test_does_not_touch_server(self, rng):
        scheme, _ = _scheme(rng)
        before = scheme.server.operations
        scheme.sample_query_set(0)
        assert scheme.server.operations == before


class TestTranscriptIntegration:
    def test_transcript_records_downloads_only(self, rng):
        scheme, _ = _scheme(rng, pad_size=3)
        transcript = Transcript()
        scheme.attach_transcript(transcript)
        scheme.query(4)
        assert len(transcript.downloads()) == 3
        assert len(transcript.uploads()) == 0

    def test_transcript_query_attribution(self, rng):
        scheme, _ = _scheme(rng, pad_size=2)
        transcript = Transcript()
        scheme.attach_transcript(transcript)
        scheme.query(0)
        scheme.query(1)
        assert transcript.query_count() == 2


# Written at the commit before the four Algorithm-1 classes were rebuilt
# on one client core, and equal after it: that is what licenses
# ``MultiServerDPIR.query`` being a batch of one.
_PLACEMENT_WITNESSES = {
    "multi_server": (
        MultiServerDPIR, {"server_count": 2},
        "89b84899ac5ef0614848c8ac8ed44ea32a7143a015970cf7b77df1db5f73679c",
    ),
    "sharded": (
        ShardedDPIR, {"shard_count": 3},
        "b2740ee0dfbc4a59febd1794168a98dbdcdb1d0bf5b605f6a081cbde3b26e4b8",
    ),
}


def _placement_history(scheme_type, placement):
    source = SeededRandomSource(21)
    scheme = scheme_type(
        integer_database(96), pad_size=6, alpha=0.3, rng=source, **placement
    )
    log = Transcript()
    scheme.attach_transcript(log)
    answers = [
        scheme.query(5),
        scheme.query_many([7, 7, 90, 0]),
        scheme.query(95),
        scheme.query_many([31]),
        scheme.query_many([64, 2, 33]),
        scheme.query(32),
        scheme.query(0),
    ]
    counters = [(server.reads, server.writes) for server in scheme.servers()]
    return answers, log.signature(), counters, source.random()


class TestSeededPlacementWitnesses:
    @pytest.mark.parametrize("name", sorted(_PLACEMENT_WITNESSES))
    def test_seeded_history_is_pinned(self, name):
        scheme_type, placement, pin = _PLACEMENT_WITNESSES[name]
        history = _placement_history(scheme_type, placement)
        answers = [
            answer
            for step in history[0]
            for answer in (step if isinstance(step, list) else [step])
        ]
        assert None in answers and any(answers)  # an α event is included
        assert hashlib.sha256(repr(history).encode()).hexdigest() == pin
