"""Property tests for the integer spend core under both ledgers.

The ledgers count draws per distinct ``(ε, δ)`` and make their
``Fraction`` totals on demand.  The oracles here are the accumulators
they replaced, kept verbatim: one ``Fraction`` add per charge.  Every
history — ε spelled as float / ``Fraction`` / int, δ, shards, caps
within ``CAP_SLACK`` of k·ε, refused charges, ``record`` past a cap,
reshard epochs — must leave ledger and oracle with the *same rationals*
(``==``, no tolerance), the same verdicts, reports and timeline events.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.composition import advanced_composition_epsilon
from repro.analysis.ledger import (
    CAP_SLACK,
    BudgetExceededError,
    BudgetReport,
    PrivacyLedger,
)
from repro.cluster.ledger import ClusterBudgetReport, ClusterLedger
from repro.obs.timeline import BudgetTimeline


class SummingLedger:
    """The per-charge ``Fraction`` accumulator ``PrivacyLedger`` was."""

    def __init__(self, epsilon_cap=None, delta_slack=1e-9):
        self._cap = Fraction(epsilon_cap) if epsilon_cap is not None else None
        self._delta_slack = delta_slack
        self._epsilon_total = Fraction(0)
        self._delta_total = Fraction(0)
        self._uniform_epsilon = None
        self._uniform = True
        self._queries = 0
        self._timeline = None
        self._timeline_operator = "ledger"

    @property
    def queries(self):
        return self._queries

    @property
    def epsilon_spent_exact(self):
        return self._epsilon_total

    @property
    def delta_spent_exact(self):
        return self._delta_total

    def remaining(self):
        if self._cap is None:
            return None
        return float(max(Fraction(0), self._cap - self._epsilon_total))

    def attach_timeline(self, timeline, operator="ledger"):
        self._timeline = timeline
        self._timeline_operator = operator

    def can_afford(self, epsilon):
        if self._cap is None:
            return True
        spend = self._epsilon_total + Fraction(epsilon)
        return spend <= self._cap + CAP_SLACK

    def charge(self, epsilon, delta=0):
        if epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {epsilon}")
        if not 0 <= delta <= 1:
            raise ValueError(f"delta must be in [0, 1], got {delta}")
        if not self.can_afford(epsilon):
            raise BudgetExceededError("cap")
        exact_epsilon = Fraction(epsilon)
        exact_delta = Fraction(delta)
        self._epsilon_total += exact_epsilon
        self._delta_total += exact_delta
        self._queries += 1
        if self._uniform_epsilon is None:
            self._uniform_epsilon = exact_epsilon
        elif self._uniform_epsilon != exact_epsilon:
            self._uniform = False
        if self._timeline is not None:
            self._timeline.record(
                epsilon=exact_epsilon,
                delta=exact_delta,
                operator=self._timeline_operator,
            )

    def report(self):
        advanced = None
        if self._queries > 0 and self._uniform:
            advanced = advanced_composition_epsilon(
                float(self._uniform_epsilon), self._queries, self._delta_slack
            )
        return BudgetReport(
            queries=self._queries,
            basic_epsilon=float(self._epsilon_total),
            basic_delta=float(self._delta_total),
            advanced_epsilon=advanced,
            basic_epsilon_exact=self._epsilon_total,
            basic_delta_exact=self._delta_total,
        )


class SummingClusterLedger:
    """The ``ClusterLedger`` that stood on per-shard ``SummingLedger`` s.

    Verbatim but for one repair: lifetime totals are plain sums, where
    the original's ``compose_totals_exact`` raised from ``report()``
    once an operator's *total* δ passed 1.
    """

    def __init__(
        self, shard_count, epsilon_cap=None, delta_slack=1e-9, carried_from=None
    ):
        self._cap = Fraction(epsilon_cap) if epsilon_cap is not None else None
        self._shards = [
            SummingLedger(delta_slack=delta_slack) for _ in range(shard_count)
        ]
        if carried_from is None:
            self._carried = []
            self._carried_queries = 0
            self._per_query_epsilon = Fraction(0)
            self._epochs = 1
            self._timeline = None
        else:
            self._carried = carried_from._lifetime_per_operator()
            self._carried_queries = carried_from.queries
            self._per_query_epsilon = carried_from._per_query_epsilon
            self._epochs = carried_from._epochs + 1
            self._timeline = carried_from._timeline

    @property
    def queries(self):
        current = sum(ledger.queries for ledger in self._shards)
        return self._carried_queries + current

    @property
    def per_query_epsilon(self):
        return float(self._per_query_epsilon)

    def shard_ledger(self, shard):
        return self._shards[shard]

    def attach_timeline(self, timeline):
        self._timeline = timeline

    def _carried_for(self, shard):
        if shard < len(self._carried):
            return self._carried[shard]
        return Fraction(0), Fraction(0)

    def _lifetime_per_operator(self):
        totals = []
        for operator in range(max(len(self._shards), len(self._carried))):
            epsilon, delta = self._carried_for(operator)
            if operator < len(self._shards):
                epsilon += self._shards[operator].epsilon_spent_exact
                delta += self._shards[operator].delta_spent_exact
            totals.append((epsilon, delta))
        return totals

    def _spent(self, shard):
        carried_epsilon, _ = self._carried_for(shard)
        return carried_epsilon + self._shards[shard].epsilon_spent_exact

    def can_afford(self, shard, epsilon, count=1):
        if self._cap is None:
            return True
        lifetime = self._spent(shard) + count * Fraction(epsilon)
        return lifetime <= self._cap + CAP_SLACK

    def charge(self, shard, epsilon, delta=0):
        if self._cap is not None and not self.can_afford(shard, epsilon):
            raise BudgetExceededError("cap")
        self.record(shard, epsilon, delta)

    def record(self, shard, epsilon, delta=0):
        exact_epsilon = Fraction(epsilon)
        self._shards[shard].charge(epsilon, delta)
        self._per_query_epsilon = max(self._per_query_epsilon, exact_epsilon)
        if self._timeline is not None:
            self._timeline.record(
                epsilon=exact_epsilon,
                delta=Fraction(delta),
                shard=shard,
                operator=f"shard-{shard}",
                epoch=self._epochs,
            )

    def report(self):
        lifetime = self._lifetime_per_operator()
        return ClusterBudgetReport(
            queries=self.queries,
            per_query_epsilon=float(self._per_query_epsilon),
            worst_shard_epsilon=float(max(eps for eps, _ in lifetime)),
            colluding_epsilon=float(sum(eps for eps, _ in lifetime)),
            per_shard=tuple(ledger.report() for ledger in self._shards),
            epochs=self._epochs,
        )


# Equal values under unequal spellings (1.5 / 3/2, 3 / 3.0 / 3/1), the
# inexact 0.1 next to the rational 1/10 it is *not*, and the repo's ε.
SPELLINGS = [
    0, 0.1, Fraction(1, 10), 1.5, Fraction(3, 2), 3, 3.0, Fraction(3, 1),
    math.log(1024), 9.652831478920794, Fraction(7, 3),
]
epsilons = st.sampled_from(SPELLINGS) | st.floats(0, 64, allow_nan=False)
deltas = st.sampled_from([0, 0.0, 1e-9, Fraction(1, 2**20), 0.25])


@st.composite
def caps(draw):
    """No cap, or one within ``CAP_SLACK`` either side of some k·ε —
    the float product a caller would write, or the exact rational."""
    if draw(st.booleans()):
        return None
    epsilon, k = draw(st.sampled_from(SPELLINGS)), draw(st.integers(0, 6))
    if draw(st.booleans()) and not isinstance(epsilon, Fraction):
        return k * epsilon
    nudge = draw(st.sampled_from([0, 1, -1, 2, -2])) * CAP_SLACK * Fraction(3, 4)
    return max(Fraction(0), k * Fraction(epsilon) + nudge)


def _exact_fields(report):
    return report.basic_epsilon_exact, report.basic_delta_exact


def _assert_same_account(ledger, oracle):
    assert ledger.queries == oracle.queries
    assert ledger.epsilon_spent_exact == oracle.epsilon_spent_exact
    assert ledger.delta_spent_exact == oracle.delta_spent_exact
    assert ledger.remaining() == oracle.remaining()
    assert ledger.report() == oracle.report()
    assert _exact_fields(ledger.report()) == _exact_fields(oracle.report())


def _assert_same_cluster(ledger, oracle, shard_count):
    assert ledger.queries == oracle.queries
    assert ledger.per_query_epsilon == oracle.per_query_epsilon
    report, expected = ledger.report(), oracle.report()
    assert report == expected
    for shard in range(shard_count):
        assert _exact_fields(report.per_shard[shard]) == _exact_fields(
            expected.per_shard[shard]
        )
        _assert_same_account(
            ledger.shard_ledger(shard), oracle.shard_ledger(shard)
        )


def _same_outcome(call, oracle_call):
    """Both refuse with ``BudgetExceededError`` or both return equal."""
    try:
        expected = oracle_call()
    except BudgetExceededError:
        with pytest.raises(BudgetExceededError):
            call()
    else:
        assert call() == expected


class TestPrivacyLedgerAgainstSummingOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        cap=caps(),
        history=st.lists(
            st.tuples(st.booleans(), epsilons, deltas), max_size=24
        ),
    )
    def test_every_history_leaves_the_same_rationals(self, cap, history):
        ledger, oracle = PrivacyLedger(cap), SummingLedger(cap)
        timeline, oracle_timeline = BudgetTimeline(), BudgetTimeline()
        ledger.attach_timeline(timeline, operator="tenant-7")
        oracle.attach_timeline(oracle_timeline, operator="tenant-7")
        charged = set()
        for probe_only, epsilon, delta in history:
            assert ledger.can_afford(epsilon) == oracle.can_afford(epsilon)
            if not probe_only:
                before = oracle.queries
                _same_outcome(
                    lambda: ledger.charge(epsilon, delta),
                    lambda: oracle.charge(epsilon, delta),
                )
                if oracle.queries > before:
                    charged.add(Fraction(epsilon))
            _assert_same_account(ledger, oracle)
            # 1.5 and Fraction(3, 2) are one ε; 0.1 and 1/10 are two.
            advanced = ledger.report().advanced_epsilon
            assert (advanced is not None) == (len(charged) == 1)
        assert timeline.events == oracle_timeline.events
        assert timeline.to_dict() == oracle_timeline.to_dict()


cluster_steps = st.one_of(
    st.tuples(
        st.sampled_from(["charge", "record"]),
        st.integers(0, 5), epsilons, deltas,
    ),
    st.tuples(st.just("probe"), st.integers(0, 5), epsilons, st.integers(0, 4)),
    st.tuples(st.just("reshard"), st.integers(1, 5)),
)


class TestClusterLedgerAgainstSummingOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        shard_count=st.integers(1, 5),
        cap=caps(),
        history=st.lists(cluster_steps, max_size=24),
    )
    def test_every_history_leaves_the_same_rationals(
        self, shard_count, cap, history
    ):
        ledger = ClusterLedger(shard_count, cap)
        oracle = SummingClusterLedger(shard_count, cap)
        timeline, oracle_timeline = BudgetTimeline(), BudgetTimeline()
        ledger.attach_timeline(timeline)
        oracle.attach_timeline(oracle_timeline)
        for step, *args in history:
            if step == "reshard":
                # Epochs compose: spend, queries, worst ε and the
                # timeline all carry, onto more or fewer operators.
                (shard_count,) = args
                ledger = ClusterLedger(shard_count, cap, carried_from=ledger)
                oracle = SummingClusterLedger(
                    shard_count, cap, carried_from=oracle
                )
            elif step == "probe":
                shard, epsilon, count = args
                shard %= shard_count
                assert ledger.can_afford(
                    shard, epsilon, count
                ) == oracle.can_afford(shard, epsilon, count)
            else:
                shard, epsilon, delta = args
                shard %= shard_count
                _same_outcome(
                    lambda: getattr(ledger, step)(shard, epsilon, delta),
                    lambda: getattr(oracle, step)(shard, epsilon, delta),
                )
            _assert_same_cluster(ledger, oracle, shard_count)
        assert timeline.events == oracle_timeline.events
        assert timeline.to_dict() == oracle_timeline.to_dict()


class TestNoFractionOnTheHotPath:
    def test_uncapped_timeline_less_charge_constructs_no_fraction(
        self, monkeypatch
    ):
        ledger, cluster = PrivacyLedger(), ClusterLedger(4)
        original, made = Fraction.__new__, []

        def counting_new(cls, *args, **kwargs):
            made.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
        for _ in range(10):
            ledger.charge(9.652831478920794)
            assert cluster.can_afford(2, 9.652831478920794, 3)
            cluster.charge(2, 9.652831478920794)
            cluster.record(1, 0.1, 1e-9)
        assert made == []
        assert Fraction(1, 2) and len(made) == 1      # the counter counts
        monkeypatch.undo()
        assert ledger.epsilon_spent_exact == 10 * Fraction(9.652831478920794)
        assert cluster.report().colluding_epsilon == float(
            10 * Fraction(9.652831478920794) + 10 * Fraction(0.1)
        )
