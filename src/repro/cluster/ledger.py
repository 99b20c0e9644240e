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
forward (composed via
:func:`repro.analysis.composition.compose_totals_exact`) and reports
lifetime budgets; per-shard figures for the current epoch remain
available in :attr:`ClusterBudgetReport.per_shard`.  Operators are
matched across epochs by shard id: the operator who ran shard ``i``
before a reshard runs shard ``i`` after it (extra operators from a
shrunk layout keep their historical spend).

All totals accumulate as :class:`fractions.Fraction` and convert to
float only in the report, per the ``float-budget`` lint rule.

The cross-shard *routing* channel (which shard a query went to) is not
a DP-protected quantity; see the :mod:`repro.cluster` package docstring
and the ROADMAP open item for the honest statement of that gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from repro.analysis.composition import compose_totals_exact
from repro.analysis.ledger import (
    CAP_SLACK,
    BudgetExceededError,
    BudgetReport,
    PrivacyLedger,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a hard dep
    from repro.obs.timeline import BudgetTimeline


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


class ClusterLedger:
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
        epsilon_cap: float | Fraction | None = None,
        delta_slack: float = 1e-9,
        carried_from: "ClusterLedger | None" = None,
    ) -> None:
        if shard_count <= 0:
            raise ValueError(
                f"shard count must be positive, got {shard_count}"
            )
        # Per-shard caps are enforced here against lifetime spend, so
        # the epoch-scoped PrivacyLedgers stay uncapped.
        self._cap = Fraction(epsilon_cap) if epsilon_cap is not None else None
        self._shards = [
            PrivacyLedger(delta_slack=delta_slack)
            for _ in range(shard_count)
        ]
        if carried_from is None:
            self._carried_epsilon: list[Fraction] = []
            self._carried_delta: list[Fraction] = []
            self._carried_queries = 0
            self._per_query_epsilon = Fraction(0)
            self._epochs = 1
            self._timeline: "BudgetTimeline | None" = None
        else:
            lifetime = carried_from._lifetime_per_operator()
            self._carried_epsilon = [eps for eps, _ in lifetime]
            self._carried_delta = [delta for _, delta in lifetime]
            self._carried_queries = carried_from.queries
            self._per_query_epsilon = carried_from._per_query_epsilon
            self._epochs = carried_from._epochs + 1
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
        current = sum(ledger.queries for ledger in self._shards)
        return self._carried_queries + current

    @property
    def per_query_epsilon(self) -> float:
        """Worst per-query ε charged so far (0.0 before any charge)."""
        return float(self._per_query_epsilon)

    def shard_ledger(self, shard: int) -> PrivacyLedger:
        """The current epoch's ledger of one shard group."""
        return self._shards[shard]

    def attach_timeline(self, timeline: "BudgetTimeline | None") -> None:
        """Emit every charge as an exact spend event onto ``timeline``.

        Events carry the shard id as the operator (``shard-<i>``) and
        the current reshard epoch, so ``repro audit --timeline`` can
        plot cumulative per-operator spend against caps.  Pass ``None``
        to detach.
        """
        self._timeline = timeline

    def _carried_for(self, shard: int) -> tuple[Fraction, Fraction]:
        """Earlier epochs' exact (ε, δ) spend of operator ``shard``."""
        if shard < len(self._carried_epsilon):
            return self._carried_epsilon[shard], self._carried_delta[shard]
        return Fraction(0), Fraction(0)

    def _lifetime_per_operator(self) -> list[tuple[Fraction, Fraction]]:
        """Exact lifetime (ε, δ) totals per operator, carried + current."""
        operators = max(len(self._shards), len(self._carried_epsilon))
        totals: list[tuple[Fraction, Fraction]] = []
        for operator in range(operators):
            carried_epsilon, carried_delta = self._carried_for(operator)
            if operator < len(self._shards):
                ledger = self._shards[operator]
                epoch_epsilon = ledger.epsilon_spent_exact
                epoch_delta = ledger.delta_spent_exact
            else:
                epoch_epsilon = Fraction(0)
                epoch_delta = Fraction(0)
            totals.append(
                compose_totals_exact(
                    [
                        (carried_epsilon, carried_delta),
                        (epoch_epsilon, epoch_delta),
                    ]
                )
            )
        return totals

    def can_afford(
        self, shard: int, epsilon: float | Fraction, count: int = 1
    ) -> bool:
        """Whether ``count`` more ``epsilon``-draws on ``shard`` fit under
        the per-operator cap (lifetime spend, carried epochs included)."""
        if self._cap is None:
            return True
        lifetime = self._spent(shard) + count * Fraction(epsilon)
        return lifetime <= self._cap + CAP_SLACK

    def _spent(self, shard: int) -> Fraction:
        """Operator ``shard``'s exact lifetime ε, carried epochs included."""
        carried_epsilon, _ = self._carried_for(shard)
        return carried_epsilon + self._shards[shard].epsilon_spent_exact

    def charge(
        self,
        shard: int,
        epsilon: float | Fraction,
        delta: float | Fraction = 0,
    ) -> None:
        """Charge one query against ``shard``'s budget.

        Raises:
            BudgetExceededError: when the per-operator cap would be
                exceeded by the operator's lifetime spend.
        """
        if self._cap is not None and not self.can_afford(shard, epsilon):
            raise BudgetExceededError(
                f"charging eps={float(epsilon):.4f} on shard "
                f"{shard} would exceed the per-operator cap "
                f"{float(self._cap):.4f} (lifetime spend "
                f"{float(self._spent(shard)):.4f} over "
                f"{self._epochs} epoch(s))"
            )
        self.record(shard, epsilon, delta)

    def record(
        self,
        shard: int,
        epsilon: float | Fraction,
        delta: float | Fraction = 0,
    ) -> None:
        """Account one draw ``shard``'s operator has already seen.

        Never refuses: a cap can stop an operation from starting
        (:meth:`can_afford`, :meth:`charge`), it cannot un-serve
        traffic — a failover retry that overshoots the cap is spend all
        the same, and the ledger must not read below it.
        """
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

    def report(self) -> ClusterBudgetReport:
        """Compose the per-shard spends into the cluster-wide budgets."""
        per_shard = tuple(ledger.report() for ledger in self._shards)
        lifetime = self._lifetime_per_operator()
        worst = max(
            (epsilon for epsilon, _ in lifetime), default=Fraction(0)
        )
        # Colluding upper bound: every charge in every epoch composes
        # sequentially; per-operator lifetime totals are already basic
        # compositions, so the pooled view is their exact sum.
        colluding, _ = compose_totals_exact(lifetime)
        return ClusterBudgetReport(
            queries=self.queries,
            per_query_epsilon=float(self._per_query_epsilon),
            worst_shard_epsilon=float(worst),
            colluding_epsilon=float(colluding),
            per_shard=per_shard,
            epochs=self._epochs,
        )
