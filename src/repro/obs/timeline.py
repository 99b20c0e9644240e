"""ε-budget timeline: exact Fraction spend events over a run.

The stack's ledgers (:class:`~repro.analysis.ledger.PrivacyLedger`,
:class:`~repro.cluster.ledger.ClusterLedger` and the per-shard ledgers
it composes) account privacy spend in exact :class:`fractions.Fraction`
arithmetic.  A :class:`BudgetTimeline` attached to a ledger receives
one :class:`SpendEvent` per charge — operator, shard, epoch, optional
tenant, and the *exact* ε/δ — so ``python -m repro audit --timeline``
can plot cumulative spend against a cap and flag the first
cap-crossing query, without a single float entering the accounting.

Floats appear only at the reporting boundary (``to_dict``/``to_text``
render a float image next to each exact ``"p/q"`` string).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any

__all__ = ["BudgetTimeline", "SpendEvent"]


@dataclass(frozen=True)
class SpendEvent:
    """One ledger charge, recorded exactly.

    Attributes:
        sequence: 0-based position in arrival order (the per-run
            counter that makes timelines deterministic).
        epsilon: exact ε charged.
        delta: exact δ charged.
        operator: spending entity (``"shard-3"``, ``"ledger"``, ...).
        shard: shard id for cluster charges, else ``None``.
        epoch: reshard epoch the charge lands in (1-based).
        tenant: serving-tenant attribution when known.
    """

    sequence: int
    epsilon: Fraction
    delta: Fraction
    operator: str
    shard: int | None
    epoch: int
    tenant: str | None

    def to_dict(self) -> dict[str, Any]:
        return {
            "sequence": self.sequence,
            "epsilon": _exact(self.epsilon),
            "delta": _exact(self.delta),
            "operator": self.operator,
            "shard": self.shard,
            "epoch": self.epoch,
            "tenant": self.tenant,
        }


def _exact(value: Fraction) -> dict[str, Any]:
    return {"fraction": f"{value.numerator}/{value.denominator}",
            "float": float(value)}


class BudgetTimeline:
    """Ordered spend events plus exact cumulative totals.

    Attach to a ledger via its ``attach_timeline`` hook; the ledger
    calls :meth:`record` after each successful charge.  The timeline
    tracks per-operator cumulative spend exactly and remembers the
    first event whose operator's cumulative ε exceeds ``cap`` —
    the "first cap-crossing query" the audit CLI flags.
    """

    def __init__(self, cap: float | Fraction | str | None = None) -> None:
        self._cap = Fraction(cap) if cap is not None else None
        self._events: list[SpendEvent] = []
        self._cumulative: dict[str, Fraction] = {}
        self._total = Fraction(0)
        self._first_crossing: SpendEvent | None = None

    @property
    def cap(self) -> Fraction | None:
        return self._cap

    @property
    def events(self) -> list[SpendEvent]:
        return list(self._events)

    @property
    def total_spent(self) -> Fraction:
        return self._total

    @property
    def first_crossing(self) -> SpendEvent | None:
        return self._first_crossing

    def per_operator(self) -> dict[str, Fraction]:
        return dict(self._cumulative)

    def record(
        self,
        *,
        epsilon: Fraction | int,
        delta: Fraction | int = 0,
        operator: str = "ledger",
        shard: int | None = None,
        epoch: int = 1,
        tenant: str | None = None,
    ) -> SpendEvent:
        """Append one spend event (called by the ledgers post-charge)."""
        exact_epsilon = Fraction(epsilon)
        exact_delta = Fraction(delta)
        event = SpendEvent(
            sequence=len(self._events),
            epsilon=exact_epsilon,
            delta=exact_delta,
            operator=operator,
            shard=shard,
            epoch=epoch,
            tenant=tenant,
        )
        self._events.append(event)
        cumulative = self._cumulative.get(operator, Fraction(0))
        cumulative += exact_epsilon
        self._cumulative[operator] = cumulative
        self._total += exact_epsilon
        if (
            self._cap is not None
            and self._first_crossing is None
            and cumulative > self._cap
        ):
            self._first_crossing = event
        return event

    def cumulative_series(
        self, operator: str | None = None
    ) -> list[tuple[int, Fraction]]:
        """``(sequence, cumulative ε)`` pairs, exact, in arrival order.

        ``operator=None`` accumulates across all operators (the
        colluding-observer view); naming one operator gives that
        shard's / ledger's own trajectory.
        """
        series: list[tuple[int, Fraction]] = []
        running = Fraction(0)
        for event in self.events:
            if operator is not None and event.operator != operator:
                continue
            running += event.epsilon
            series.append((event.sequence, running))
        return series

    def to_dict(self) -> dict[str, Any]:
        events = list(self._events)
        cumulative = dict(self._cumulative)
        total = self._total
        crossing = self._first_crossing
        return {
            "version": 1,
            "cap": _exact(self._cap) if self._cap is not None else None,
            "events": [event.to_dict() for event in events],
            "per_operator": {
                operator: _exact(spent)
                for operator, spent in sorted(cumulative.items())
            },
            "total": _exact(total),
            "first_crossing": crossing.to_dict() if crossing else None,
        }

    def to_text(self, *, width: int = 48) -> str:
        """ASCII rendering: per-operator bars vs the cap, crossing flag."""
        per_operator = self.per_operator()
        cap = self._cap
        lines = ["epsilon spend timeline"]
        if cap is not None:
            lines[0] += f" (cap {float(cap):.4f})"
        if not per_operator:
            lines.append("  (no spend events recorded)")
            return "\n".join(lines)
        scale_to = max(per_operator.values())
        if cap is not None and cap > scale_to:
            scale_to = cap
        name_width = max(len(name) for name in per_operator)
        for name in sorted(per_operator):
            spent = per_operator[name]
            filled = (
                int(round(width * float(spent / scale_to)))
                if scale_to else 0
            )
            bar = "#" * filled + "." * (width - filled)
            over = " OVER CAP" if cap is not None and spent > cap else ""
            lines.append(
                f"  {name:<{name_width}} |{bar}| "
                f"{float(spent):.4f}{over}"
            )
        if cap is not None:
            crossing = self.first_crossing
            if crossing is None:
                lines.append(f"  cap never crossed "
                             f"({len(self.events)} spend events)")
            else:
                at_crossing = Fraction(0)
                for event in self.events:
                    if (
                        event.operator == crossing.operator
                        and event.sequence <= crossing.sequence
                    ):
                        at_crossing += event.epsilon
                lines.append(
                    "  first cap-crossing: event "
                    f"#{crossing.sequence} ({crossing.operator}, "
                    f"epoch {crossing.epoch}) -- cumulative "
                    f"{float(at_crossing):.4f} "
                    f"exceeds cap {float(cap):.4f}"
                )
        return "\n".join(lines)
