"""Differential privacy composition.

The DP-KVS privacy proof (Theorem 7.1) invokes "the composition theorem"
to account for the ``k(n)`` bucket queries each KVS operation performs:
``ε`` budgets add under basic composition.  Advanced composition is
included for users who run long query sequences and want the
``√k`` accounting instead.

These are float-native reporting figures.  Where a composed total feeds
an *accounting guarantee* (a cap, a cluster's lifetime budget across
reshard epochs) it comes from the ledgers' exact draw tables
(:mod:`repro.analysis.ledger`), per the ``float-budget`` rule in
``tests/source_rules.py``.
"""

from __future__ import annotations

import math


def basic_composition(
    epsilon: float, delta: float, queries: int
) -> tuple[float, float]:
    """Sequential composition: ``k`` mechanisms are ``(k·ε, k·δ)``-DP."""
    _check(epsilon, delta, queries)
    return queries * epsilon, queries * delta


def advanced_composition_epsilon(
    epsilon: float, queries: int, delta_slack: float
) -> float:
    """Advanced composition (Dwork-Roth Thm 3.20): ``k`` ε-DP mechanisms
    are ``(ε', k·δ + δ_slack)``-DP with

    ``ε' = ε·√(2k·ln(1/δ_slack)) + k·ε·(e^ε − 1)``.

    This is float-native on purpose: the √/exp terms are transcendental
    reporting figures, not exact accounting — integer literals keep the
    ``float-budget`` rule satisfied without changing a single bit of the
    result (``2 * k`` and ``1 / d`` round identically to ``2.0 * k`` and
    ``1.0 / d``).
    """
    _check(epsilon, 0, queries)
    if not 0 < delta_slack < 1:
        raise ValueError(f"delta_slack must be in (0, 1), got {delta_slack}")
    return epsilon * math.sqrt(
        2 * queries * math.log(1 / delta_slack)
    ) + queries * epsilon * (math.exp(epsilon) - 1)


def best_composition_epsilon(
    epsilon: float, queries: int, delta_slack: float
) -> float:
    """The smaller of basic and advanced composition for ``k`` queries.

    Advanced composition only wins for small per-query ε; at the paper's
    ``ε = Θ(log n)`` regime basic composition is always tighter, which this
    helper makes easy to demonstrate.
    """
    basic, _ = basic_composition(epsilon, 0, queries)
    advanced = advanced_composition_epsilon(epsilon, queries, delta_slack)
    return min(basic, advanced)


def _check(epsilon: float, delta: float, queries: int) -> None:
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    if not 0 <= delta <= 1:
        raise ValueError(f"delta must be in [0, 1], got {delta}")
    if queries <= 0:
        raise ValueError(f"queries must be positive, got {queries}")
