"""Privacy budget accounting across query sequences.

Differentially private *access* composes like any DP mechanism: issuing
``k`` queries against an ε-DP storage scheme is (k·ε)-DP with respect to
the whole sequence, or ``(ε·√(2k ln 1/δ') + kε(e^ε−1), δ')``-DP under
advanced composition.  The paper leans on this in the Theorem 7.1 proof
("by the composition theorem...").

:class:`PrivacyLedger` gives applications a running account: charge each
query as it happens, read off the cumulative budget, and check it against
a cap.  Because the schemes here live in the ε = Θ(log n) regime, basic
composition is essentially always the binding total (see
:func:`repro.analysis.composition.best_composition_epsilon`), but the
ledger reports both.

Exactness: every scheme charges a fixed per-draw (ε, δ), so a ledger's
whole state is a small table of integers, ``{(ε, δ): draws}`` — a charge
is one dict update and constructs no :class:`fractions.Fraction`.  The
rationals ``Σ draws · Fraction(ε)`` are made only where a total is read
(``*_spent_exact``, ``remaining()``, ``report()``), where a cap must be
checked, and for an attached timeline's events.  ``Fraction(float)`` is
exact (every IEEE-754 double is a rational) and ``k · Fraction(ε)`` is
the k-fold sum, so "the ledger spent k·ε" is true by construction, not an
approximation that drifts with k; floats appear only at the reporting
boundary.  Equal numbers hash equal across ``float`` / ``int`` /
``Fraction``, so ``1.5`` and ``Fraction(3, 2)`` are one table row.  The
``float-budget`` rule in ``tests/source_rules.py`` enforces this
discipline.

:class:`_SpendCore` is that table plus the cap / charge / record /
timeline logic, once, under :class:`PrivacyLedger` (one operator) and
:class:`~repro.cluster.ledger.ClusterLedger` (one per shard, with spend
carried across reshard epochs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import inf
from typing import TYPE_CHECKING, Any

from repro.analysis.composition import advanced_composition_epsilon

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a hard dep
    from repro.obs.timeline import BudgetTimeline

#: Exact slack for cap comparisons.  Caller-supplied caps are usually
#: float products (``10 * scheme.epsilon``) whose rounding can land a
#: hair *below* the exact k·ε sum; the historical 1e-12 float slack is
#: kept, as an exact rational so it cannot itself drift.
CAP_SLACK = Fraction(1, 10**12)


@dataclass(frozen=True)
class BudgetReport:
    """Cumulative privacy spend.

    Attributes:
        queries: number of charged queries.
        basic_epsilon: total ε under basic composition.
        basic_delta: total δ under basic composition.
        advanced_epsilon: total ε under advanced composition at the
            ledger's ``delta_slack`` (``None`` when no queries charged).
        basic_epsilon_exact: the ε total as the exact rational the
            ledger accumulated (``basic_epsilon`` is its float image).
        basic_delta_exact: the δ total as the exact rational.
    """

    queries: int
    basic_epsilon: float
    basic_delta: float
    advanced_epsilon: float | None
    basic_epsilon_exact: Fraction = field(default=Fraction(0), compare=False)
    basic_delta_exact: Fraction = field(default=Fraction(0), compare=False)


Number = float | Fraction  # ints included; what a caller may charge


@dataclass(slots=True)
class _Account:
    """One operator's exact spend: what earlier epochs carried in, plus
    this epoch's draws counted per distinct ``(ε, δ)`` charge."""

    labels: dict[str, Any]  # how the operator's timeline events read
    draws: dict[tuple[Number, Number], int] = field(default_factory=dict)
    carried: tuple[Fraction, Fraction] = (Fraction(0), Fraction(0))

    def queries(self) -> int:
        return sum(self.draws.values())

    def spent(self) -> tuple[Fraction, Fraction]:
        """Exact ``(ε, δ)`` total: carried + Σ draws · ``Fraction(charge)``."""
        epsilon, delta = self.carried
        for (charged_epsilon, charged_delta), count in self.draws.items():
            epsilon += count * Fraction(charged_epsilon)
            delta += count * Fraction(charged_delta)
        return epsilon, delta


class _SpendCore:
    """The integer spend table, cap and timeline under both ledgers.

    Subclasses own the public signatures; every one of them lands in
    :meth:`_can_afford` or :meth:`_spend`, which validate *before*
    anything changes — a refused, invalid or out-of-range call leaves
    the ledger exactly as it found it.
    """

    def __init__(self, accounts: list[_Account], epsilon_cap: Number | None) -> None:
        if epsilon_cap is not None and not 0 <= epsilon_cap < inf:
            raise ValueError(f"epsilon cap must be finite and >= 0, got {epsilon_cap}")
        self._accounts = accounts
        self._cap = Fraction(epsilon_cap) if epsilon_cap is not None else None
        self._timeline: "BudgetTimeline | None" = None

    def attach_timeline(self, timeline: "BudgetTimeline | None") -> None:
        """Emit every successful charge as an exact spend event.

        Events carry the charge's ε and δ as exact rationals under the
        spending operator's labels, so ``repro audit --timeline`` can
        plot cumulative spend against a cap.  Pass ``None`` to detach.
        """
        self._timeline = timeline

    def _account(self, index: int) -> _Account:
        if not 0 <= index < len(self._accounts):
            raise ValueError(f"no shard {index} in range({len(self._accounts)})")
        return self._accounts[index]

    def _checked(self, index: int, epsilon: Number, delta: Number) -> _Account:
        """The account a draw lands on, once every argument is valid."""
        if not 0 <= epsilon < inf:  # also refuses nan: no total could hold it
            raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")
        if not 0 <= delta <= 1:
            raise ValueError(f"delta must be in [0, 1], got {delta}")
        return self._account(index)

    def _can_afford(self, index: int, epsilon: Number, count: int = 1) -> bool:
        account = self._checked(index, epsilon, 0)
        if self._cap is None:
            return True
        spend = account.spent()[0] + count * Fraction(epsilon)
        return spend <= self._cap + CAP_SLACK

    def _spend(
        self, index: int, epsilon: Number, delta: Number, enforce: bool
    ) -> None:
        """Count one draw; with ``enforce``, only if it fits under the cap."""
        account = self._checked(index, epsilon, delta)
        cap = self._cap
        if enforce and cap is not None and not self._can_afford(index, epsilon):
            raise BudgetExceededError(
                f"charging eps={float(epsilon):.4f} to "
                f"{account.labels['operator']} would exceed the cap "
                f"{float(cap):.4f} (spent {float(account.spent()[0]):.4f})"
            )
        charge = (epsilon, delta)
        account.draws[charge] = account.draws.get(charge, 0) + 1
        if self._timeline is not None:
            self._timeline.record(
                epsilon=Fraction(epsilon),
                delta=Fraction(delta),
                **account.labels,
            )


class PrivacyLedger(_SpendCore):
    """Running (ε, δ) account for a sequence of storage queries.

    Args:
        epsilon_cap: optional hard budget; :meth:`charge` raises
            :class:`BudgetExceededError` when basic-composition ε would
            pass it.
        delta_slack: the δ' used when reporting advanced composition.
    """

    def __init__(
        self,
        epsilon_cap: Number | None = None,
        delta_slack: float = 1e-9,
    ) -> None:
        super().__init__([_Account({"operator": "ledger"})], epsilon_cap)
        if not 0 < delta_slack < 1:
            raise ValueError(f"delta_slack must be in (0, 1), got {delta_slack}")
        self._delta_slack = delta_slack

    @property
    def queries(self) -> int:
        """Queries charged so far."""
        return self._accounts[0].queries()

    @property
    def epsilon_spent(self) -> float:
        """Basic-composition ε spent so far."""
        return float(self.epsilon_spent_exact)

    @property
    def epsilon_spent_exact(self) -> Fraction:
        """The exact rational ε total (what the cap check uses)."""
        return self._accounts[0].spent()[0]

    @property
    def delta_spent(self) -> float:
        """Basic-composition δ spent so far."""
        return float(self.delta_spent_exact)

    @property
    def delta_spent_exact(self) -> Fraction:
        """The exact rational δ total."""
        return self._accounts[0].spent()[1]

    def remaining(self) -> float | None:
        """Budget left under the cap (``None`` when uncapped)."""
        if self._cap is None:
            return None
        return float(max(Fraction(0), self._cap - self.epsilon_spent_exact))

    def attach_timeline(
        self,
        timeline: "BudgetTimeline | None",
        operator: str = "ledger",
    ) -> None:
        """:meth:`_SpendCore.attach_timeline`, spending as ``operator``."""
        self._accounts[0].labels["operator"] = operator
        super().attach_timeline(timeline)

    def can_afford(self, epsilon: Number) -> bool:
        """Whether one more ``epsilon``-query fits under the cap."""
        return self._can_afford(0, epsilon)

    def charge(self, epsilon: Number, delta: Number = 0) -> None:
        """Record one query against the budget.

        Raises:
            BudgetExceededError: if a cap is set and would be exceeded.
            ValueError: on negative or non-finite parameters.
        """
        self._spend(0, epsilon, delta, enforce=True)

    def report(self) -> BudgetReport:
        """Summarize the spend under both composition theorems.

        Advanced composition is only well-defined for uniform per-query
        ε, so it is reported iff the table holds one distinct ε.
        """
        account = self._accounts[0]
        queries = account.queries()
        epsilons = {epsilon for epsilon, _ in account.draws}
        advanced = None
        if len(epsilons) == 1:
            advanced = advanced_composition_epsilon(
                float(epsilons.pop()), queries, self._delta_slack
            )
        epsilon, delta = account.spent()
        return BudgetReport(
            queries=queries,
            basic_epsilon=float(epsilon),
            basic_delta=float(delta),
            advanced_epsilon=advanced,
            basic_epsilon_exact=epsilon,
            basic_delta_exact=delta,
        )


class BudgetExceededError(Exception):
    """A charge would push the ledger past its ε cap."""
