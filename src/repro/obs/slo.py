"""ε burn-rate SLOs: multi-window alerting over a budget timeline.

Site-reliability burn-rate alerting, transplanted to privacy budgets:
treat a privacy budget ``B`` over a horizon of ``H`` spend events as
an SLO, define the *burn rate* of a window as the window's observed
spend rate divided by the sustainable rate ``B / H``, and alert when
**both** a fast and a slow window exceed their thresholds — the fast
window catches the spike, the slow window confirms it is not a blip
(the classic 14×/6× two-window page rule).  Scopes follow the
timeline's attribution: the colluding total, every operator
(``shard-i``), and every tenant that carries attribution.

All window arithmetic is exact :class:`fractions.Fraction` — the same
discipline as the ledgers — so an alert decision can never hinge on
float rounding.  Floats appear only in the rendered report.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Sequence

from repro.obs.timeline import BudgetTimeline, SpendEvent

__all__ = ["BurnRateAlert", "SLOPolicy", "SLOReport", "evaluate_slo"]


@dataclass(frozen=True)
class SLOPolicy:
    """The burn-rate rule a timeline is evaluated against.

    Attributes:
        budget: exact ε budget for the horizon (the SLO).
        horizon: SLO period in spend events.
        fast_window: short window length in events (spike detector).
        slow_window: long window length in events (blip filter).
        fast_burn: threshold for the fast window's burn rate.
        slow_burn: threshold for the slow window's burn rate.
    """

    budget: Fraction
    horizon: int
    fast_window: int
    slow_window: int
    fast_burn: Fraction
    slow_burn: Fraction

    def to_dict(self) -> dict[str, Any]:
        return {
            "budget": _exact(self.budget),
            "horizon": self.horizon,
            "fast_window": self.fast_window,
            "slow_window": self.slow_window,
            "fast_burn": float(self.fast_burn),
            "slow_burn": float(self.slow_burn),
        }


@dataclass(frozen=True)
class BurnRateAlert:
    """First event at which a scope's fast and slow windows both fired.

    Attributes:
        scope: ``"total"``, ``"operator:<name>"`` or ``"tenant:<name>"``.
        sequence: timeline sequence number of the triggering event.
        fast_rate: the fast window's exact burn rate at that event.
        slow_rate: the slow window's exact burn rate at that event.
    """

    scope: str
    sequence: int
    fast_rate: Fraction
    slow_rate: Fraction

    def to_dict(self) -> dict[str, Any]:
        return {
            "scope": self.scope,
            "sequence": self.sequence,
            "fast_rate": _exact(self.fast_rate),
            "slow_rate": _exact(self.slow_rate),
        }


def _exact(value: Fraction) -> dict[str, Any]:
    return {"fraction": f"{value.numerator}/{value.denominator}",
            "float": float(value)}


@dataclass(frozen=True)
class SLOReport:
    """Outcome of one :func:`evaluate_slo` pass.

    Attributes:
        policy: the rule evaluated.
        alerts: first alert per breaching scope, in scope order.
        scopes: per-scope figures (events, exact spend, peak burns,
            alerting-event count) for every scope seen, breaching or
            not.
    """

    policy: SLOPolicy
    alerts: tuple[BurnRateAlert, ...]
    scopes: tuple[dict[str, Any], ...]

    @property
    def breached(self) -> bool:
        return bool(self.alerts)

    def to_dict(self) -> dict[str, Any]:
        return {
            "policy": self.policy.to_dict(),
            "breached": self.breached,
            "alerts": [alert.to_dict() for alert in self.alerts],
            "scopes": [dict(scope) for scope in self.scopes],
        }

    def to_text(self) -> str:
        policy = self.policy
        lines = [
            "epsilon burn-rate SLO: budget "
            f"{float(policy.budget):.4f} over {policy.horizon} events "
            f"(fast {policy.fast_window}ev x{float(policy.fast_burn):g}, "
            f"slow {policy.slow_window}ev x{float(policy.slow_burn):g})"
        ]
        alerted = {alert.scope: alert for alert in self.alerts}
        for scope in self.scopes:
            name = scope["scope"]
            line = (
                f"  {name}: {scope['events']} events, "
                f"spent {scope['spend']['float']:.4f}, "
                f"peak fast burn {scope['peak_fast_burn']:.2f}x, "
                f"peak slow burn {scope['peak_slow_burn']:.2f}x"
            )
            alert = alerted.get(name)
            if alert is not None:
                line += (
                    f" -- ALERT at event #{alert.sequence} "
                    f"(fast {float(alert.fast_rate):.2f}x, "
                    f"slow {float(alert.slow_rate):.2f}x)"
                )
            lines.append(line)
        lines.append(
            "  SLO breached" if self.breached else "  SLO healthy"
        )
        return "\n".join(lines)


def _scope_streams(
    events: Sequence[SpendEvent],
) -> list[tuple[str, list[SpendEvent]]]:
    operators: dict[str, list[SpendEvent]] = {}
    tenants: dict[str, list[SpendEvent]] = {}
    for event in events:
        operators.setdefault(event.operator, []).append(event)
        if event.tenant is not None:
            tenants.setdefault(event.tenant, []).append(event)
    streams: list[tuple[str, list[SpendEvent]]] = [
        ("total", list(events))
    ]
    for operator in sorted(operators):
        streams.append((f"operator:{operator}", operators[operator]))
    for tenant in sorted(tenants):
        streams.append((f"tenant:{tenant}", tenants[tenant]))
    return streams


def _window_burn(
    window: list[Fraction], length: int, target_rate: Fraction
) -> Fraction:
    """Observed spend rate over the window, relative to the target."""
    if not window or target_rate <= 0:
        return Fraction(0)
    return (sum(window, Fraction(0)) / length) / target_rate


def evaluate_slo(
    timeline: BudgetTimeline | Iterable[SpendEvent],
    *,
    budget: Fraction | int | str,
    horizon: int | None = None,
    fast_window: int | None = None,
    slow_window: int | None = None,
    fast_burn: Fraction | int | str = 14,
    slow_burn: Fraction | int | str = 6,
) -> SLOReport:
    """Evaluate the two-window burn-rate rule over a spend timeline.

    Args:
        timeline: a :class:`BudgetTimeline` or an iterable of
            :class:`SpendEvent` in sequence order.
        budget: exact ε budget for the horizon (``"3/2"`` accepted).
        horizon: SLO period in events, at least 1; defaults to the
            timeline length (so the default sustainable rate is "spend
            the budget exactly once over this run").
        fast_window: events in the fast window (default ``horizon/50``,
            at least 1).
        slow_window: events in the slow window (default ``horizon/10``,
            at least 1).
        fast_burn: fast-window threshold, positive (default 14× — the
            page rule).
        slow_burn: slow-window threshold, positive (default 6×).

    Returns:
        An :class:`SLOReport`; ``breached`` is True when any scope's
        fast *and* slow windows simultaneously exceeded their
        thresholds at some event.
    """
    events = (
        timeline.events if isinstance(timeline, BudgetTimeline)
        else list(timeline)
    )
    exact_budget = Fraction(budget)
    if exact_budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    if horizon is not None and horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    exact_fast_burn = Fraction(fast_burn)
    exact_slow_burn = Fraction(slow_burn)
    if exact_fast_burn <= 0 or exact_slow_burn <= 0:
        raise ValueError(
            f"burn thresholds must be positive, got fast {fast_burn}, "
            f"slow {slow_burn}"
        )
    effective_horizon = horizon if horizon is not None else max(1, len(events))
    fast = fast_window if fast_window is not None else max(
        1, effective_horizon // 50
    )
    slow = slow_window if slow_window is not None else max(
        1, effective_horizon // 10
    )
    if fast < 1 or slow < 1:
        raise ValueError("window lengths must be >= 1")
    policy = SLOPolicy(
        budget=exact_budget,
        horizon=effective_horizon,
        fast_window=fast,
        slow_window=slow,
        fast_burn=exact_fast_burn,
        slow_burn=exact_slow_burn,
    )
    target_rate = exact_budget / effective_horizon

    alerts: list[BurnRateAlert] = []
    scopes: list[dict[str, Any]] = []
    for scope, stream in _scope_streams(events):
        fast_buf: list[Fraction] = []
        slow_buf: list[Fraction] = []
        spend = Fraction(0)
        peak_fast = Fraction(0)
        peak_slow = Fraction(0)
        first_alert: BurnRateAlert | None = None
        alerting = 0
        for event in stream:
            spend += event.epsilon
            fast_buf.append(event.epsilon)
            slow_buf.append(event.epsilon)
            if len(fast_buf) > fast:
                fast_buf.pop(0)
            if len(slow_buf) > slow:
                slow_buf.pop(0)
            fast_rate = _window_burn(fast_buf, fast, target_rate)
            slow_rate = _window_burn(slow_buf, slow, target_rate)
            peak_fast = max(peak_fast, fast_rate)
            peak_slow = max(peak_slow, slow_rate)
            if (
                fast_rate >= policy.fast_burn
                and slow_rate >= policy.slow_burn
            ):
                alerting += 1
                if first_alert is None:
                    first_alert = BurnRateAlert(
                        scope=scope,
                        sequence=event.sequence,
                        fast_rate=fast_rate,
                        slow_rate=slow_rate,
                    )
        scopes.append({
            "scope": scope,
            "events": len(stream),
            "spend": _exact(spend),
            "peak_fast_burn": float(peak_fast),
            "peak_slow_burn": float(peak_slow),
            "alerting_events": alerting,
        })
        if first_alert is not None:
            alerts.append(first_alert)
    return SLOReport(
        policy=policy, alerts=tuple(alerts), scopes=tuple(scopes)
    )
