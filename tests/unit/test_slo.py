"""Unit tests for ε burn-rate SLOs (``repro.obs.slo``)."""

from fractions import Fraction

import pytest

from repro.obs import evaluate_slo
from repro.obs.timeline import BudgetTimeline, SpendEvent


def _event(sequence, epsilon, operator="ledger", tenant=None):
    return SpendEvent(
        sequence=sequence, epsilon=Fraction(epsilon), delta=Fraction(0),
        operator=operator, shard=None, epoch=1, tenant=tenant,
    )


def _steady(count, epsilon="1/100"):
    return [_event(i, epsilon) for i in range(count)]


class TestEvaluateSlo:
    def test_sustainable_spend_is_healthy(self):
        # 100 events at 1/100 each against a budget of 1 over 100
        # events: burn rate is exactly 1x everywhere, far under 14x/6x.
        report = evaluate_slo(_steady(100), budget=1, horizon=100)
        assert not report.breached
        assert report.alerts == ()
        total = report.scopes[0]
        assert total["scope"] == "total"
        assert total["peak_fast_burn"] == pytest.approx(1.0)
        assert total["peak_slow_burn"] == pytest.approx(1.0)

    def test_spike_fires_fast_and_slow_windows(self):
        events = _steady(60)
        # A 20x spike sustained across the slow window.
        events += [_event(60 + i, Fraction(1, 5)) for i in range(20)]
        report = evaluate_slo(
            events, budget=1, horizon=100, fast_window=2, slow_window=10,
        )
        assert report.breached
        scopes = [alert.scope for alert in report.alerts]
        assert "total" in scopes
        alert = report.alerts[0]
        assert alert.fast_rate >= 14
        assert alert.slow_rate >= 6

    def test_short_spike_is_filtered_by_the_slow_window(self):
        events = _steady(98)
        events.append(_event(98, Fraction(1, 2)))  # one-event 50x blip
        events.append(_event(99, Fraction(1, 100)))
        report = evaluate_slo(
            events, budget=1, horizon=100, fast_window=1, slow_window=20,
        )
        total = report.scopes[0]
        assert total["peak_fast_burn"] >= 14.0
        assert total["peak_slow_burn"] < 6.0
        assert not report.breached

    def test_exact_threshold_equality_alerts(self):
        # Both windows land exactly on their thresholds: with budget 1
        # over 100 events the target rate is 1/100, so a constant spend
        # of 14/100 is precisely 14x; thresholds fast 14x / slow 14x.
        events = [_event(i, Fraction(14, 100)) for i in range(10)]
        report = evaluate_slo(
            events, budget=1, horizon=100, fast_window=1, slow_window=5,
            fast_burn=14, slow_burn=14,
        )
        assert report.breached  # >= comparisons, not >
        assert report.alerts[0].fast_rate == Fraction(14)
        assert report.alerts[0].slow_rate == Fraction(14)

    def test_scopes_cover_operators_and_tenants(self):
        events = [
            _event(0, "1/10", operator="shard-0", tenant="acme"),
            _event(1, "1/10", operator="shard-1", tenant="acme"),
            _event(2, "1/10", operator="shard-0"),
        ]
        report = evaluate_slo(events, budget=1, horizon=3)
        names = [scope["scope"] for scope in report.scopes]
        assert names == [
            "total", "operator:shard-0", "operator:shard-1", "tenant:acme",
        ]

    def test_breaching_scope_is_attributed(self):
        quiet = [_event(i, "1/1000", operator="shard-0") for i in range(50)]
        noisy = [
            _event(50 + i, "1/2", operator="shard-1", tenant="acme")
            for i in range(10)
        ]
        report = evaluate_slo(
            quiet + noisy, budget=1, horizon=100,
            fast_window=2, slow_window=5,
        )
        scopes = {alert.scope for alert in report.alerts}
        assert "operator:shard-1" in scopes
        assert "tenant:acme" in scopes
        assert "operator:shard-0" not in scopes

    def test_accepts_a_budget_timeline(self):
        timeline = BudgetTimeline()
        for _ in range(20):
            timeline.record(epsilon=Fraction(1, 2), operator="shard-0")
        report = evaluate_slo(timeline, budget=1, horizon=100)
        assert report.breached

    def test_string_budget_and_burns_are_exact(self):
        report = evaluate_slo(
            _steady(10), budget="3/2", horizon=10,
            fast_burn="7/2", slow_burn="3/2",
        )
        assert report.policy.budget == Fraction(3, 2)
        assert report.policy.fast_burn == Fraction(7, 2)
        assert not report.breached

    def test_nonpositive_budget_raises(self):
        with pytest.raises(ValueError):
            evaluate_slo(_steady(5), budget=0)
        with pytest.raises(ValueError):
            evaluate_slo(_steady(5), budget=-1)

    @pytest.mark.parametrize("policy", [
        {"horizon": 0}, {"horizon": -5},
        {"fast_burn": 0}, {"fast_burn": -1}, {"slow_burn": "-1/2"},
    ])
    def test_out_of_range_policy_raises(self, policy):
        # A horizon below 1 used to clamp to 1 and a non-positive burn
        # threshold was accepted; both silently change what alerts.
        with pytest.raises(ValueError):
            evaluate_slo(_steady(5), budget=1, **policy)

    def test_default_windows_derive_from_horizon(self):
        report = evaluate_slo(_steady(10), budget=1, horizon=1000)
        assert report.policy.fast_window == 20   # horizon / 50
        assert report.policy.slow_window == 100  # horizon / 10

    def test_horizon_defaults_to_timeline_length(self):
        report = evaluate_slo(_steady(40), budget=1)
        assert report.policy.horizon == 40

    def test_report_round_trips_to_dict_and_text(self):
        report = evaluate_slo(
            _steady(20) + [_event(20, 1, tenant="acme")],
            budget=1, horizon=100, fast_window=1, slow_window=2,
        )
        data = report.to_dict()
        assert data["breached"] is True
        assert data["policy"]["horizon"] == 100
        assert data["alerts"]
        assert data["alerts"][0]["fast_rate"]["fraction"]
        text = report.to_text()
        assert "SLO breached" in text
        assert "ALERT" in text
        healthy = evaluate_slo(_steady(20), budget=1, horizon=20)
        assert "SLO healthy" in healthy.to_text()

    def test_empty_timeline_is_healthy(self):
        report = evaluate_slo([], budget=1)
        assert not report.breached
        assert report.scopes[0]["events"] == 0
        assert report.policy.horizon == 1  # the default never drops below 1
