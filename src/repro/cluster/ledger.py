"""Cluster-wide privacy accounting: per-shard ledgers, composed budgets.

Each shard group hosts an independent DP scheme over its own records, so
privacy spend is naturally *per shard*: a query routed to shard ``s``
charges that shard's :class:`~repro.analysis.ledger.PrivacyLedger` with
the shard instance's exact per-query ε.  The cluster-wide figures then
come from :mod:`repro.analysis.composition`:

* **non-colluding operators** (the deployment model: each shard group is
  run by a separate operator who sees only its own traffic) — the
  binding budget is the worst single operator's composed spend;
* **colluding upper bound** — basic composition across every charge on
  every shard, the figure to quote if all operators pool their views.

Reshard epochs compose.  A migration rebuilds the shard groups, but the
traffic the *old* layout served was still seen by its operators — a
cluster's privacy spend is monotone over its lifetime.  The ledger
therefore carries every drained epoch's exact per-operator totals
forward and reports lifetime budgets; per-shard figures for the current
epoch remain available in :attr:`ClusterBudgetReport.per_shard`.
Operators are matched across epochs by shard id: the operator who ran
shard ``i`` before a reshard runs shard ``i`` after it (extra operators
from a shrunk layout keep their historical spend).

Exactness: the ledger stands on the integer spend core of
:mod:`repro.analysis.ledger` — per shard one ``{(ε, δ): draws}`` table
for the current epoch (the one :meth:`ClusterLedger.shard_ledger` reads)
plus the operator's carried :class:`fractions.Fraction` totals.  A charge
is one dict update; ``Fraction``s are made only in the report, under a
cap, when an epoch is carried and for timeline events, and floats only
in the report, per the ``float-budget`` rule in ``tests/source_rules.py``.

The cross-shard *routing* channel (which shard a query went to) is not
a DP-protected quantity; see the :mod:`repro.cluster` package docstring
and the ROADMAP open item for the honest statement of that gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.analysis.ledger import (
    BudgetReport,
    Number,
    PrivacyLedger,
    _Account,
    _SpendCore,
)


@dataclass(frozen=True)
class ClusterBudgetReport:
    """Cluster-wide privacy spend, composed over the cluster's lifetime.

    Attributes:
        queries: total charged mechanism draws across all shards and
            all reshard epochs.  One per logical query in the
            fault-free case; failover retries and replica write fan-out
            each charge separately, since every draw is independently
            visible to a shard operator.
        per_query_epsilon: worst per-query ε charged anywhere, any
            epoch (0.0 until the first charge) — directly comparable to
            a single-server scheme's exact budget.
        worst_shard_epsilon: largest per-operator composed total across
            the cluster's lifetime — the binding budget against
            non-colluding shard operators (an operator's view spans
            reshard epochs).
        colluding_epsilon: basic composition over every charge in every
            epoch — the upper bound if all shard operators pool their
            transcripts.
        per_shard: one :class:`~repro.analysis.ledger.BudgetReport` per
            shard group of the *current* epoch, in shard order.
        epochs: reshard epochs composed into the lifetime figures
            (1 for a never-resharded cluster).
    """

    queries: int
    per_query_epsilon: float
    worst_shard_epsilon: float
    colluding_epsilon: float
    per_shard: tuple[BudgetReport, ...]
    epochs: int = 1


class ClusterLedger(_SpendCore):
    """Running (ε, δ) account for a sharded deployment.

    Args:
        shard_count: number of shard groups.
        epsilon_cap: optional per-operator hard budget — a
            :meth:`charge` that would push any single operator's
            *lifetime* spend past it raises
            :class:`~repro.analysis.ledger.BudgetExceededError`
            (caps are per-operator in the non-colluding model, and an
            operator's view survives resharding).  The cluster schemes
            ask :meth:`can_afford` before an operation starts and
            :meth:`record` what was served.
        delta_slack: the δ' used for advanced-composition reporting.
        carried_from: the previous epoch's ledger, when resharding.
            Its lifetime per-operator spends (its own carried epochs
            included) seed this ledger's carried totals, so cluster
            budgets stay honest over the deployment's lifetime.
    """

    def __init__(
        self,
        shard_count: int,
        epsilon_cap: Number | None = None,
        delta_slack: float = 1e-9,
        carried_from: "ClusterLedger | None" = None,
    ) -> None:
        if shard_count <= 0:
            raise ValueError(f"shard count must be positive, got {shard_count}")
        if carried_from is None:
            lifetime: list[tuple[Fraction, Fraction]] = []
            self._carried_queries = 0
            self._carried_per_query = Fraction(0)
            self._epochs = 1
        else:
            lifetime = carried_from._lifetime_per_operator()
            self._carried_queries = carried_from.queries
            self._carried_per_query = carried_from._per_query_exact()
            self._epochs = carried_from._epochs + 1
        lifetime += [(Fraction(0), Fraction(0))] * (shard_count - len(lifetime))
        # Operators a shrunk layout dropped keep their historical spend.
        self._departed = lifetime[shard_count:]
        # The epoch-scoped, uncapped views ``shard_ledger`` hands out
        # read the same draw tables the (lifetime, capped) accounts fill.
        self._shards = [
            PrivacyLedger(delta_slack=delta_slack) for _ in range(shard_count)
        ]
        accounts = [
            _Account(
                {"shard": i, "operator": f"shard-{i}", "epoch": self._epochs},
                view._accounts[0].draws,
                lifetime[i],
            )
            for i, view in enumerate(self._shards)
        ]
        super().__init__(accounts, epsilon_cap)
        if carried_from is not None:
            # Spend events keep flowing to the same timeline across
            # reshard epochs — an operator's view never resets.
            self._timeline = carried_from._timeline

    @property
    def shard_count(self) -> int:
        """Number of per-shard ledgers in the current epoch."""
        return len(self._shards)

    @property
    def epochs(self) -> int:
        """Reshard epochs composed into this ledger (≥ 1)."""
        return self._epochs

    @property
    def queries(self) -> int:
        """Total queries charged across all shards and epochs."""
        current = sum(account.queries() for account in self._accounts)
        return self._carried_queries + current

    @property
    def per_query_epsilon(self) -> float:
        """Worst per-query ε charged so far (0.0 before any charge)."""
        return float(self._per_query_exact())

    def _per_query_exact(self) -> Fraction:
        """Largest ε among the tables' keys and the carried epochs'."""
        charged = [e for account in self._accounts for e, _ in account.draws]
        return max([self._carried_per_query, *map(Fraction, charged)])

    def shard_ledger(self, shard: int) -> PrivacyLedger:
        """The current epoch's ledger of one shard group."""
        self._account(shard)  # refuses a shard outside the current epoch
        return self._shards[shard]

    def _lifetime_per_operator(self) -> list[tuple[Fraction, Fraction]]:
        """Exact lifetime (ε, δ) totals per operator, carried + current."""
        return [account.spent() for account in self._accounts] + self._departed

    def can_afford(self, shard: int, epsilon: Number, count: int = 1) -> bool:
        """Whether ``count`` more ``epsilon``-draws on ``shard`` fit under
        the per-operator cap (lifetime spend, carried epochs included)."""
        return self._can_afford(shard, epsilon, count)

    def charge(self, shard: int, epsilon: Number, delta: Number = 0) -> None:
        """Charge one query against ``shard``'s budget.

        Raises:
            BudgetExceededError: when the per-operator cap would be
                exceeded by the operator's lifetime spend.
            ValueError: on a shard outside ``range(shard_count)`` or a
                negative or non-finite parameter.
        """
        self._spend(shard, epsilon, delta, enforce=True)

    def record(self, shard: int, epsilon: Number, delta: Number = 0) -> None:
        """Account one draw ``shard``'s operator has already seen.

        Never refuses: a cap can stop an operation from starting
        (:meth:`can_afford`, :meth:`charge`), it cannot un-serve
        traffic — a failover retry that overshoots the cap is spend all
        the same, and the ledger must not read below it.
        """
        self._spend(shard, epsilon, delta, enforce=False)

    def report(self) -> ClusterBudgetReport:
        """Compose the per-shard spends into the cluster-wide budgets."""
        lifetime = [epsilon for epsilon, _ in self._lifetime_per_operator()]
        # Colluding upper bound: every charge in every epoch composes
        # sequentially; per-operator lifetime totals are already basic
        # compositions, so the pooled view is their exact sum.
        return ClusterBudgetReport(
            queries=self.queries,
            per_query_epsilon=self.per_query_epsilon,
            worst_shard_epsilon=float(max(lifetime)),
            colluding_epsilon=float(sum(lifetime)),
            per_shard=tuple(ledger.report() for ledger in self._shards),
            epochs=self._epochs,
        )
