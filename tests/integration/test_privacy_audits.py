"""Integration: empirical privacy audits against the exact calculators.

These tests close the loop between the constructions (repro.core), the
closed-form privacy results (repro.analysis.dp_ir_exact / dp_ram_exact)
and the distribution-free estimators (repro.analysis.estimators):
sampled behaviour must match the formulas the paper proves.
"""

import math

import pytest
from dp_ram_view import seen_pairs, watch

from repro.analysis.dp_ir_exact import (
    dpir_membership_probabilities,
    strawman_exact_delta,
)
from repro.analysis.dp_ram_exact import (
    dp_ram_analytic_epsilon,
    sample_transcript_pairs,
    transcript_log_ratio,
)
from repro.analysis.estimators import estimate_delta, estimate_epsilon
from repro.core.dp_ir import DPIR
from repro.core.dp_ram import DPRAM
from repro.core.strawman import StrawmanIR
from repro.storage.blocks import integer_database


class TestDpirAudit:
    def test_membership_rates_match_closed_form(self, rng):
        n, k, alpha = 32, 4, 0.2
        scheme = DPIR(integer_database(n), pad_size=k, alpha=alpha,
                      rng=rng.spawn("s"))
        trials = 4000
        own = sum(1 for _ in range(trials)
                  if 3 in scheme.sample_query_set(3)) / trials
        other = sum(1 for _ in range(trials)
                    if 7 in scheme.sample_query_set(3)) / trials
        exact_own, exact_other = dpir_membership_probabilities(n, k, alpha)
        assert own == pytest.approx(exact_own, abs=0.03)
        assert other == pytest.approx(exact_other, abs=0.03)

    def test_estimated_epsilon_below_exact(self, rng):
        # The empirical estimate over set-signatures cannot exceed the true
        # worst-case epsilon (it only explores observed events).
        n, k, alpha = 16, 4, 0.25
        scheme = DPIR(integer_database(n), pad_size=k, alpha=alpha,
                      rng=rng.spawn("s"))
        estimate = estimate_epsilon(
            lambda r: scheme.sample_query_set(0),
            lambda r: scheme.sample_query_set(1),
            trials=3000,
            rng=rng.spawn("audit"),
        )
        assert estimate.epsilon_hat <= scheme.epsilon + 0.5

    def test_delta_at_exact_epsilon_near_zero(self, rng):
        # Small support (C(8,2)=28 transcripts) keeps the plug-in estimator's
        # one-sided sampling bias below the assertion threshold.
        n, k, alpha = 8, 2, 0.25
        scheme = DPIR(integer_database(n), pad_size=k, alpha=alpha,
                      rng=rng.spawn("s"))
        delta = estimate_delta(
            lambda r: scheme.sample_query_set(0),
            lambda r: scheme.sample_query_set(1),
            epsilon=scheme.epsilon,
            trials=6000,
            rng=rng.spawn("audit"),
        )
        assert delta < 0.1


class TestStrawmanAudit:
    def test_estimated_delta_matches_exact(self, rng):
        n = 32
        scheme = StrawmanIR(integer_database(n), rng=rng.spawn("s"))
        # At any epsilon, delta should be ~(n-1)/n; test at a generous eps.
        delta = estimate_delta(
            lambda r: scheme.sample_query_set(0),
            lambda r: scheme.sample_query_set(1),
            epsilon=2 * math.log(n),
            trials=3000,
            rng=rng.spawn("audit"),
        )
        assert delta == pytest.approx(strawman_exact_delta(n, 0), abs=0.08)

    def test_strawman_vs_dpir_separation(self, rng):
        # Same bandwidth ballpark, wildly different delta.  Small n keeps
        # the transcript support small enough for the plug-in estimator.
        n = 16
        strawman = StrawmanIR(integer_database(n), rng=rng.spawn("a"))
        dpir = DPIR(integer_database(n), pad_size=2, alpha=0.25,
                    rng=rng.spawn("b"))
        reference_eps = dpir.epsilon
        straw_delta = estimate_delta(
            lambda r: strawman.sample_query_set(0),
            lambda r: strawman.sample_query_set(1),
            epsilon=reference_eps, trials=4000, rng=rng.spawn("c"),
        )
        # DP-IR's true delta at its own epsilon is 0 and the plug-in
        # estimate is all sampling noise: about 0.11 +- 0.03 across seeds
        # at 4 000 trials (a seed lottery against the 0.15 below), about
        # 0.06 +- 0.02 at 16 000.
        dpir_delta = estimate_delta(
            lambda r: dpir.sample_query_set(0),
            lambda r: dpir.sample_query_set(1),
            epsilon=reference_eps, trials=16000, rng=rng.spawn("d"),
        )
        assert straw_delta > 0.7
        assert dpir_delta < 0.15


class TestDpramAudit:
    def test_real_scheme_ratios_within_budget(self, rng):
        """Transcripts from the *real* DPRAM (not the fast sampler) have
        exact likelihood ratios within the analytic budget."""
        n, p = 6, 0.3
        queries_a = [0, 1, 2, 1]
        queries_b = [0, 4, 2, 1]
        budget = dp_ram_analytic_epsilon(n, p)
        for trial in range(60):
            ram = DPRAM(integer_database(n), stash_probability=p,
                        rng=rng.spawn(f"r{trial}"))
            log = watch(ram)
            for q in queries_a:
                ram.read(q)
            ratio = transcript_log_ratio(
                queries_a, queries_b, seen_pairs(log, ram), n, p
            )
            assert abs(ratio) <= budget

    def test_identical_prefix_suffix_ratio_one(self, rng):
        """Lemma 6.6/6.7: transcripts only weigh the 3 special positions —
        sequences differing at the last position have ratios driven by
        that position alone; check ratio is 0 when transcripts avoid it."""
        n, p = 5, 0.4
        queries_a = [0, 1, 2]
        queries_b = [0, 1, 3]
        # Transcript where position 2 looks maximally uninformative: both
        # d and o at a fourth block; ratio = (p/n)^2 / (p/n)^2 = 1.
        pairs = [(0, 0), (1, 1), (4, 4)]
        ratio = transcript_log_ratio(queries_a, queries_b, pairs, n, p)
        assert ratio == pytest.approx(0.0)

    def test_estimator_agrees_with_exact_sampler(self, rng):
        """estimate_epsilon over sampled pair-signatures stays below the
        exact worst-case ratio observed by direct likelihood search."""
        n, p = 4, 0.4
        queries_a, queries_b = [0, 1], [0, 2]
        estimate = estimate_epsilon(
            lambda r: sample_transcript_pairs(queries_a, n, p, r),
            lambda r: sample_transcript_pairs(queries_b, n, p, r),
            trials=4000,
            rng=rng.spawn("e"),
        )
        assert estimate.epsilon_hat <= dp_ram_analytic_epsilon(n, p)
        assert estimate.support > 10
