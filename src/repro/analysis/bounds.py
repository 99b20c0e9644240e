"""The paper's lower bounds as formulas (Section 3 and Appendix C).

Each function returns the *expected operations per query* that the
corresponding theorem forces, in blocks.  The constructions are then
measured against these floors in experiments E1, E2, E5 and E12.  The
``min_epsilon_*`` inversions answer the paper's headline question directly:
given a bandwidth budget, how much privacy is even possible?
"""

from __future__ import annotations

import math


def dp_ir_errorless_lower_bound(n: int, delta: float = 0.0) -> float:
    """Theorem 3.3: errorless (ε, δ)-DP-IR moves at least ``(1−δ)·n``.

    Note the absence of ε — no privacy budget, however large, helps an
    errorless scheme.
    """
    _check_n(n)
    _check_delta(delta)
    return (1.0 - delta) * n


def dp_ir_error_lower_bound(
    n: int, epsilon: float, alpha: float, delta: float = 0.0
) -> float:
    """Theorem 3.4: (ε, δ)-DP-IR with error ``α > 0`` moves at least
    ``(n−1)·(1−α−δ)/e^ε`` in expectation."""
    _check_n(n)
    _check_epsilon(epsilon)
    _check_delta(delta)
    _check_alpha(alpha, positive=True)
    return max(0.0, (n - 1) * (1.0 - alpha - delta) / math.exp(epsilon))


def dp_ram_lower_bound(
    n: int, epsilon: float, client_blocks: int, alpha: float = 0.0
) -> float:
    """Theorem 3.7: ε-DP-RAM with client storage ``c`` and error ``α``
    moves ``Ω(log_c((1−α)·n/e^ε))`` per query.

    Returns the bound with constant 1 (the theorem is asymptotic); values
    below zero clamp to zero.
    """
    _check_n(n)
    _check_epsilon(epsilon)
    if client_blocks < 2:
        raise ValueError(
            f"client storage must be at least 2 blocks, got {client_blocks}"
        )
    _check_alpha(alpha)
    inner = (1.0 - alpha) * n / math.exp(epsilon)
    if inner <= 1.0:
        return 0.0
    return math.log(inner) / math.log(client_blocks)


def multi_server_ir_lower_bound(
    n: int, epsilon: float, alpha: float, t: float, delta: float = 0.0
) -> float:
    """Theorem C.1: D-server (ε, δ)-DP-IR against a ``t``-fraction
    adversary moves ``Ω(((1−α)·t − δ)·n/e^ε)`` in total."""
    _check_n(n)
    _check_epsilon(epsilon)
    _check_delta(delta)
    _check_alpha(alpha)
    if not 0.0 < t <= 1.0:
        raise ValueError(f"corrupted fraction t must be in (0, 1], got {t}")
    return max(0.0, ((1.0 - alpha) * t - delta) * n / math.exp(epsilon))


def min_epsilon_for_ir_bandwidth(
    n: int, bandwidth: float, alpha: float, delta: float = 0.0
) -> float:
    """Invert Theorem 3.4: the smallest ε any DP-IR moving at most
    ``bandwidth`` blocks per query could provide.

    This is the paper's core message made quantitative: for constant
    bandwidth the result is ``ln n − O(1)``, i.e. ``ε = Ω(log n)``.
    α and δ range over what Theorem 3.4 admits (0 < α ≤ 1, 0 ≤ δ ≤ 1).
    """
    _check_n(n)
    _check_alpha(alpha, positive=True)
    _check_delta(delta)
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    numerator = (n - 1) * (1.0 - alpha - delta)
    if numerator <= bandwidth:
        return 0.0
    return math.log(numerator / bandwidth)


def min_epsilon_for_ram_bandwidth(
    n: int, bandwidth: float, client_blocks: int, alpha: float = 0.0
) -> float:
    """Invert Theorem 3.7: the smallest ε any DP-RAM moving at most
    ``bandwidth`` blocks per query with client storage ``c`` could provide:
    ``ε ≥ ln((1−α)·n) − bandwidth·ln c``, for 0 ≤ α ≤ 1 as in Theorem 3.7."""
    _check_n(n)
    _check_alpha(alpha)
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    if client_blocks < 2:
        raise ValueError(
            f"client storage must be at least 2 blocks, got {client_blocks}"
        )
    value = math.log(max((1.0 - alpha) * n, 1e-300)) - bandwidth * math.log(
        client_blocks
    )
    return max(0.0, value)


def _check_n(n: int) -> None:
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")


def _check_epsilon(epsilon: float) -> None:
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")


def _check_alpha(alpha: float, *, positive: bool = False) -> None:
    if positive and not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")


def _check_delta(delta: float) -> None:
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must be in [0, 1], got {delta}")
