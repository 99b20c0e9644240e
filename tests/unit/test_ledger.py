"""Tests for repro.analysis.ledger."""

import math
from fractions import Fraction

import pytest

from repro.analysis.composition import advanced_composition_epsilon
from repro.analysis.ledger import BudgetExceededError, PrivacyLedger


class TestCharging:
    def test_accumulates(self):
        ledger = PrivacyLedger()
        ledger.charge(1.0)
        ledger.charge(2.0, delta=0.01)
        assert ledger.queries == 2
        assert ledger.epsilon_spent == pytest.approx(3.0)
        assert ledger.delta_spent == pytest.approx(0.01)

    def test_cap_enforced(self):
        ledger = PrivacyLedger(epsilon_cap=2.5)
        ledger.charge(1.0)
        ledger.charge(1.0)
        with pytest.raises(BudgetExceededError):
            ledger.charge(1.0)
        assert ledger.queries == 2  # failed charge not recorded

    def test_remaining(self):
        ledger = PrivacyLedger(epsilon_cap=5.0)
        assert ledger.remaining() == 5.0
        ledger.charge(2.0)
        assert ledger.remaining() == pytest.approx(3.0)

    def test_remaining_uncapped(self):
        assert PrivacyLedger().remaining() is None

    def test_can_afford(self):
        ledger = PrivacyLedger(epsilon_cap=1.0)
        assert ledger.can_afford(1.0)
        ledger.charge(0.6)
        assert ledger.can_afford(0.4)
        assert not ledger.can_afford(0.5)

    def test_validation(self):
        ledger = PrivacyLedger()
        with pytest.raises(ValueError):
            ledger.charge(-1.0)
        with pytest.raises(ValueError):
            ledger.charge(1.0, delta=2.0)
        with pytest.raises(ValueError):
            PrivacyLedger(epsilon_cap=-1)
        with pytest.raises(ValueError):
            PrivacyLedger(delta_slack=0)


class TestInvalidChargesLeaveNoTrace:
    """Totals are made lazily, so a bad ε/δ must be refused *at the
    charge* — stored, it would only blow up later in ``report()``."""

    @pytest.mark.parametrize("capped", [False, True])
    @pytest.mark.parametrize(
        "epsilon, delta",
        [(math.nan, 0), (math.inf, 0), (-math.inf, 0), (-1, 0),
         (1.0, math.nan), (1.0, math.inf), (1.0, -0.5), (1.0, 1.5)],
    )
    def test_refused_with_value_error_like_a_twin_never_asked(
        self, capped, epsilon, delta
    ):
        from repro.obs.timeline import BudgetTimeline

        def build():
            ledger = PrivacyLedger(epsilon_cap=10 if capped else None)
            timeline = BudgetTimeline()
            ledger.attach_timeline(timeline)
            ledger.charge(1.5, 0.25)
            return ledger, timeline

        (ledger, timeline), (twin, twin_timeline) = build(), build()
        with pytest.raises(ValueError):
            ledger.charge(epsilon, delta)
        if delta == 0:
            with pytest.raises(ValueError):
                ledger.can_afford(epsilon)
        assert ledger.queries == twin.queries == 1
        assert ledger.report() == twin.report()
        assert ledger.epsilon_spent_exact == Fraction(3, 2)
        assert ledger.delta_spent_exact == Fraction(1, 4)
        assert ledger.remaining() == twin.remaining()
        assert timeline.events == twin_timeline.events

    def test_non_finite_cap_is_refused(self):
        for cap in (math.inf, math.nan):
            with pytest.raises(ValueError):
                PrivacyLedger(epsilon_cap=cap)


class TestReports:
    def test_uniform_charges_report_advanced(self):
        ledger = PrivacyLedger(delta_slack=1e-6)
        for _ in range(10):
            ledger.charge(0.1)
        report = ledger.report()
        assert report.queries == 10
        assert report.basic_epsilon == pytest.approx(1.0)
        assert report.advanced_epsilon == pytest.approx(
            advanced_composition_epsilon(0.1, 10, 1e-6)
        )

    def test_mixed_charges_skip_advanced(self):
        ledger = PrivacyLedger()
        ledger.charge(0.1)
        ledger.charge(0.2)
        assert ledger.report().advanced_epsilon is None

    def test_empty_report(self):
        report = PrivacyLedger().report()
        assert report.queries == 0
        assert report.basic_epsilon == 0.0
        assert report.advanced_epsilon is None

    def test_paper_regime_basic_is_binding(self):
        # At eps = ln(n), advanced composition is worse than basic.
        n, k = 1024, 8
        ledger = PrivacyLedger()
        for _ in range(k):
            ledger.charge(math.log(n))
        report = ledger.report()
        assert report.advanced_epsilon > report.basic_epsilon


class TestSchemeIntegration:
    def test_ledger_driven_dpir_session(self, rng):
        from repro.core.dp_ir import DPIR
        from repro.storage.blocks import integer_database

        n = 64
        scheme = DPIR(integer_database(n), epsilon=math.log(n), alpha=0.1,
                      rng=rng.spawn("s"))
        ledger = PrivacyLedger(epsilon_cap=10 * scheme.epsilon)
        served = 0
        while ledger.can_afford(scheme.epsilon):
            scheme.query(served % n)
            ledger.charge(scheme.epsilon)
            served += 1
        assert served == 10
        assert ledger.remaining() == pytest.approx(0.0)
