"""Unit tests for the online leakage monitors (``repro.obs.monitor``)."""

import math

import pytest

import repro
from repro import DPIR, SeededRandomSource
from repro.analysis.attacks import (
    distinguishing_guess,
    hoeffding_slack,
    max_success_probability,
)
from repro.cluster import ClusterIR
from repro.obs.monitor import (
    MembershipMonitor,
    Observation,
    RoutingMonitor,
    default_monitors,
    watch_scheme,
)
from repro.storage.blocks import integer_database
from repro.storage.transcript import Transcript


def observation(touched, shards=frozenset({0})):
    return Observation(touched=frozenset(touched), shards=frozenset(shards))


class TestHoeffdingSlack:
    def test_zero_trials_is_infinite(self):
        assert hoeffding_slack(0) == math.inf

    def test_decreases_with_trials(self):
        slacks = [hoeffding_slack(t) for t in (16, 64, 256, 1024)]
        assert slacks == sorted(slacks, reverse=True)

    def test_matches_closed_form(self):
        assert hoeffding_slack(128, 1e-4) == pytest.approx(
            math.sqrt(math.log(1e4) / 256)
        )

    def test_rejects_degenerate_failure_probability(self):
        with pytest.raises(ValueError):
            hoeffding_slack(10, 0.0)
        with pytest.raises(ValueError):
            hoeffding_slack(10, 1.0)


class TestDistinguishingGuess:
    def test_separating_observations_are_deterministic(self):
        rng = SeededRandomSource(0)
        assert distinguishing_guess(True, False, rng) is True
        assert distinguishing_guess(False, True, rng) is False

    def test_ambiguous_observation_is_a_coin(self):
        rng = SeededRandomSource(1)
        guesses = [distinguishing_guess(True, True, rng) for _ in range(400)]
        heads = sum(guesses)
        assert 120 < heads < 280  # a fair coin, not a constant


class TestMembershipMonitor:
    def test_wins_when_only_truth_is_visible(self):
        monitor = MembershipMonitor(
            universe=64, epsilon=1.0, rng=SeededRandomSource(2),
            min_trials=1,
        )
        for _ in range(300):
            monitor.observe([5], observation({5}))
        report = monitor.report()
        assert report.trials == 300
        assert report.empirical_success == 1.0
        assert report.tripped
        assert report.tripped_at is not None

    def test_full_pad_keeps_adversary_at_a_coin(self):
        monitor = MembershipMonitor(
            universe=64, epsilon=None, rng=SeededRandomSource(3),
        )
        everything = observation(range(64))
        for index in range(300):
            monitor.observe([index % 64], everything)
        success = monitor.report().empirical_success
        assert abs(success - 0.5) < 0.1

    def test_report_only_without_epsilon_claim_never_trips(self):
        monitor = MembershipMonitor(
            universe=64, epsilon=None, rng=SeededRandomSource(4),
            min_trials=1,
        )
        for _ in range(200):
            monitor.observe([5], observation({5}))
        report = monitor.report()
        assert report.bound == 1.0
        assert report.epsilon is None
        assert not report.tripped

    def test_min_trials_gates_the_trip(self):
        monitor = MembershipMonitor(
            universe=64, epsilon=1.0, rng=SeededRandomSource(5),
            min_trials=50,
        )
        for _ in range(49):
            monitor.observe([5], observation({5}))
        assert not monitor.tripped
        for _ in range(300):
            monitor.observe([5], observation({5}))
        assert monitor.tripped
        assert monitor.report().tripped_at >= 50

    def test_byte_keys_degenerate_to_a_coin(self):
        monitor = MembershipMonitor(
            universe=64, epsilon=None, rng=SeededRandomSource(6),
        )
        for _ in range(200):
            monitor.observe([b"key"], observation({1, 2, 3}))
        assert abs(monitor.report().empirical_success - 0.5) < 0.12

    def test_locate_maps_candidates_to_shard_pairs(self):
        monitor = MembershipMonitor(
            universe=64,
            locate=lambda index: (index % 4, index // 4),
            epsilon=1.0,
            rng=SeededRandomSource(7),
            min_trials=1,
        )
        for index in range(100):
            index %= 64
            touched = {(index % 4, index // 4)}
            monitor.observe([index], observation(touched))
        assert monitor.report().empirical_success == 1.0

    def test_bound_is_the_paper_ceiling(self):
        monitor = MembershipMonitor(
            universe=64, epsilon=2.0, delta=0.01,
            rng=SeededRandomSource(8),
        )
        assert monitor.bound == pytest.approx(
            max_success_probability(2.0, 0.01)
        )

    def test_empirical_success_is_half_at_zero_trials(self):
        monitor = MembershipMonitor(universe=8, rng=SeededRandomSource(9))
        report = monitor.report()
        assert report.trials == 0
        assert report.empirical_success == 0.5
        assert report.advantage == 0.0

    def test_report_round_trips_to_dict_and_text(self):
        monitor = MembershipMonitor(
            universe=16, epsilon=1.5, rng=SeededRandomSource(10),
        )
        monitor.observe([3], observation({3}))
        report = monitor.report()
        data = report.to_dict()
        assert data["attack"] == "membership"
        assert data["trials"] == report.trials
        assert data["bound"] == report.bound
        assert "membership" in report.to_text()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            MembershipMonitor(universe=-1)
        with pytest.raises(ValueError):
            MembershipMonitor(universe=8, min_trials=0)


class TestRoutingMonitor:
    def test_deterministic_routing_is_a_strong_attack(self):
        shards = 4
        monitor = RoutingMonitor(
            universe=64, shard_of=lambda index: index % shards,
            rng=SeededRandomSource(11), min_trials=1,
        )
        for index in range(400):
            index %= 64
            monitor.observe([index], observation({index}, {index % shards}))
        # Wins unless the decoy lands on the same shard (prob 1/D, then
        # a coin): expected success 1 - 1/(2D) = 0.875 at D=4.
        success = monitor.report().empirical_success
        assert 0.8 < success <= 1.0
        # Report-only by default: no ε claim, ceiling 1.0, never trips.
        assert monitor.report().bound == 1.0
        assert not monitor.tripped

    def test_broadcast_routing_hides_the_shard(self):
        shards = 4
        monitor = RoutingMonitor(
            universe=64, shard_of=lambda index: index % shards,
            rng=SeededRandomSource(12),
        )
        all_shards = frozenset(range(shards))
        for index in range(400):
            index %= 64
            monitor.observe([index], observation({index}, all_shards))
        assert abs(monitor.report().empirical_success - 0.5) < 0.1

    def test_skips_rounds_without_integer_operands(self):
        monitor = RoutingMonitor(
            universe=64, shard_of=lambda index: 0,
            rng=SeededRandomSource(13),
        )
        monitor.observe([b"key"], observation({1}, {0}))
        assert monitor.trials == 0


class TestSchemeWatch:
    def _dpir(self, seed=21):
        rng = SeededRandomSource(seed)
        return DPIR(
            integer_database(64), epsilon=math.log(64), alpha=0.05,
            rng=rng.spawn("scheme"),
        )

    def test_feeds_monitors_and_answers_are_unchanged(self):
        scheme = self._dpir()
        expected = integer_database(64)
        monitors = default_monitors(scheme, rng=SeededRandomSource(1))
        watch = watch_scheme(scheme, monitors)
        for index in range(32):
            answer = scheme.query(index)
            if answer is not None:
                assert answer == expected[index]
        assert monitors[0].trials == 32
        watch.unwatch()

    def test_unwatch_restores_the_pristine_scheme(self):
        scheme = self._dpir()
        monitors = default_monitors(scheme, rng=SeededRandomSource(2))
        watch = watch_scheme(scheme, monitors)
        assert "query" in vars(scheme)
        watch.unwatch()
        assert "query" not in vars(scheme)
        trials = monitors[0].trials
        scheme.query(0)
        assert monitors[0].trials == trials
        watch.unwatch()  # idempotent

    def test_query_many_counts_one_round_not_n(self):
        scheme = self._dpir()
        monitors = default_monitors(scheme, rng=SeededRandomSource(3))
        watch = watch_scheme(scheme, monitors)
        scheme.query_many([0, 5, 9])
        # The protocol-default query_many loops query(); the
        # re-entrancy guard keeps the nested calls from double-counting.
        assert monitors[0].trials == 1
        watch.unwatch()

    def test_preexisting_transcript_is_saved_and_restored(self):
        scheme = self._dpir()
        mine = Transcript()
        scheme.attach_transcript(mine)
        monitors = default_monitors(scheme, rng=SeededRandomSource(4))
        watch = watch_scheme(scheme, monitors)
        scheme.query(3)
        watch.unwatch()
        # The monitor captured the round on its own transcript; the
        # user's transcript is back in place afterwards.
        assert scheme.detach_transcript() is mine
        assert monitors[0].trials == 1

    def test_default_monitors_read_the_epsilon_claim(self):
        scheme = self._dpir()
        monitors = default_monitors(scheme, rng=SeededRandomSource(5))
        assert len(monitors) == 1
        assert monitors[0].epsilon == pytest.approx(scheme.epsilon)
        # Every registered scheme: the sheet's ε when finite and positive
        # (DP-RAM and DP-KVS declare theirs only there); linear PIR keeps
        # its 0.0, and the perfect ORAMs and ∞ baselines stay report-only.
        for name in repro.available_schemes():
            scheme = repro.build(name, n=64, seed=0)
            epsilon = scheme.datasheet().epsilon
            membership = default_monitors(scheme)[0]
            if 0.0 < epsilon < math.inf:
                assert membership.epsilon == epsilon, name
            elif name == "linear_pir":
                assert membership.epsilon == 0.0
            else:
                assert membership.epsilon is None, name

    def test_cluster_gets_membership_and_routing(self):
        rng = SeededRandomSource(31)
        instance = ClusterIR(
            integer_database(128), shard_count=4, replica_count=1,
            rng=rng.spawn("cluster"),
        )
        monitors = default_monitors(instance, rng=rng.spawn("monitor"))
        names = [monitor.name for monitor in monitors]
        assert names == ["membership", "routing"]
        watch = watch_scheme(instance, monitors)
        for index in range(16):
            instance.query(index * 7 % 128)
        assert monitors[0].trials == 16
        assert monitors[1].trials == 16
        watch.unwatch()


class TestUnderPaddedSchemeTrips:
    def test_under_padded_scheme_trips_the_monitor(self):
        class UnderPaddedDPIR(DPIR):
            def _draw_set(self, index):
                return [index], True

        rng = SeededRandomSource(41)
        cheat = UnderPaddedDPIR(
            integer_database(64), epsilon=1.0, alpha=0.05,
            rng=rng.spawn("scheme"),
        )
        monitors = default_monitors(cheat, rng=rng.spawn("monitor"))
        watch = watch_scheme(cheat, monitors)
        for index in range(128):
            cheat.query(index % 64)
        report = monitors[0].report()
        assert report.empirical_success > report.bound + report.slack
        assert report.tripped
        assert watch.tripped
        watch.unwatch()

    def test_honest_scheme_with_same_claim_does_not_trip(self):
        rng = SeededRandomSource(42)
        honest = DPIR(
            integer_database(64), epsilon=1.0, alpha=0.05,
            rng=rng.spawn("scheme"),
        )
        monitors = default_monitors(honest, rng=rng.spawn("monitor"))
        watch = watch_scheme(honest, monitors)
        for index in range(128):
            honest.query(index % 64)
        report = monitors[0].report()
        assert report.empirical_success <= report.bound + report.slack
        assert not report.tripped
        watch.unwatch()
