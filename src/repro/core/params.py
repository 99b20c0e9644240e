"""Parameter calculators connecting privacy budgets to scheme knobs.

The constructions expose three tunable quantities:

* **DP-IR** — the pad size ``K``.  Algorithm 1 sets
  ``K = ⌈(1−α)·n / (e^ε − 1)⌉`` and Appendix B shows the *exact* privacy is
  ``ε = ln((1−α)·n / (α·K) + 1)``.
* **DP-RAM** — the stash probability ``p``.  Theorem 6.1 requires
  ``p ≤ Φ(n)/n`` with ``Φ(n) = ω(log n)``; the proof (Lemmas 6.4/6.5 applied
  to the ≤ 3 positions identified by Lemma 6.7) yields the conservative
  closed-form budget ``ε ≤ 3·ln(n³/p²)``.
* **DP-KVS** — the tree layout (Section 7.2): ``Θ(n/log n)`` trees with
  ``Θ(log n)`` leaves, node capacity ``t = Θ(1)``, and a client super root
  with capacity ``Φ(n)``.

Everything here is a pure function of ``n`` and the privacy knobs so that
experiments, docs and the schemes themselves agree on a single source of
truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def default_phi(n: int) -> int:
    """A concrete ``Φ(n) = ω(log n)``: ``⌈(log₂ n)^1.5⌉``, at least 8.

    Any super-logarithmic function works for the paper's "except with
    probability negl(n)" statements; ``log^1.5`` keeps client storage small
    at practical sizes (Φ(2^20) = 90) while growing strictly faster than
    ``log n``.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return max(8, math.ceil(math.log2(max(n, 2)) ** 1.5))


# -- DP-IR (Section 5 / Appendix B) -----------------------------------------


def dp_ir_pad_size(n: int, epsilon: float, alpha: float) -> int:
    """Smallest pad size whose *exact* budget (Appendix B) is ≤ ``epsilon``.

    Appendix B shows Algorithm 1 with pad size ``K`` achieves exactly
    ``ε = ln((1−α)n/(αK) + 1)``; inverting gives
    ``K = ⌈(1−α)·n / (α·(e^ε − 1))⌉`` (clamped to ``[1, n]``).

    Note the pseudocode in the paper's Appendix G omits the ``α`` in the
    denominator; that variant (:func:`dp_ir_pad_size_paper`) has the same
    ``O(n/e^ε)`` asymptotics but lands ``ln(1/α)`` above the requested
    budget.  This resolver guarantees the achieved ε never exceeds the
    target.
    """
    _check_n(n)
    _check_alpha(alpha)
    _check_epsilon(epsilon)
    if epsilon == 0:
        return n
    raw = math.ceil((1.0 - alpha) * n / (alpha * (math.exp(epsilon) - 1.0)))
    return max(1, min(n, raw))


def dp_ir_pad_size_paper(n: int, epsilon: float, alpha: float) -> int:
    """The literal Appendix G formula ``K = ⌈(1−α)·n/(e^ε−1)⌉``.

    Kept for faithfulness comparisons; see :func:`dp_ir_pad_size` for why
    the library resolver includes the ``α`` factor.
    """
    _check_n(n)
    _check_alpha(alpha)
    _check_epsilon(epsilon)
    if epsilon == 0:
        return n
    raw = math.ceil((1.0 - alpha) * n / (math.exp(epsilon) - 1.0))
    return max(1, min(n, raw))


def dp_ir_exact_epsilon(n: int, pad_size: int, alpha: float) -> float:
    """Exact privacy of Algorithm 1 with pad size ``K`` (Appendix B).

    ``ε = ln((1−α)·n/(α·K) + 1)``.  When ``K = n`` every query downloads
    the whole database and the scheme is perfectly oblivious (ε = 0).
    """
    _check_n(n)
    _check_alpha(alpha)
    if not 1 <= pad_size <= n:
        raise ValueError(f"pad size must be in [1, {n}], got {pad_size}")
    if pad_size == n:
        return 0.0
    return math.log((1.0 - alpha) * n / (alpha * pad_size) + 1.0)


@dataclass(frozen=True)
class DPIRParams:
    """Resolved DP-IR parameters.

    Attributes:
        n: database size.
        alpha: error probability (must be in (0, 1)).
        pad_size: number of blocks downloaded per query (``K``).
        epsilon: the exact privacy budget achieved by this ``K``.
    """

    n: int
    alpha: float
    pad_size: int
    epsilon: float

    @classmethod
    def from_epsilon(cls, n: int, epsilon: float, alpha: float) -> "DPIRParams":
        """Resolve parameters from a target privacy budget."""
        pad = dp_ir_pad_size(n, epsilon, alpha)
        return cls(n=n, alpha=alpha, pad_size=pad,
                   epsilon=dp_ir_exact_epsilon(n, pad, alpha))

    @classmethod
    def from_pad_size(cls, n: int, pad_size: int, alpha: float) -> "DPIRParams":
        """Resolve parameters from an explicit pad size."""
        return cls(n=n, alpha=alpha, pad_size=pad_size,
                   epsilon=dp_ir_exact_epsilon(n, pad_size, alpha))


# -- DP-RAM (Section 6) ------------------------------------------------------


def dp_ram_epsilon_upper_bound(n: int, stash_probability: float) -> float:
    """Conservative analytic budget ``3·ln(n³/p²)`` for Algorithms 2–3.

    Lemma 6.4 bounds each download factor by ``n²/p`` and Lemma 6.5 each
    overwrite factor by ``n/p``; Lemma 6.7 shows at most three positions
    contribute, giving a worst-case transcript ratio of ``(n³/p²)³``.  With
    ``p = Φ(n)/n`` this is ``ε ≤ 15·ln n − 6·ln Φ(n) = O(log n)``.
    """
    _check_n(n)
    _check_probability(stash_probability)
    return 3.0 * math.log(n**3 / stash_probability**2)


@dataclass(frozen=True)
class DPRAMParams:
    """Resolved DP-RAM parameters.

    Attributes:
        n: database size.
        stash_probability: per-record stash probability ``p``.
        expected_stash: ``p·n`` — the expected client stash size.
        epsilon_bound: the analytic privacy budget for this ``p``.
    """

    n: int
    stash_probability: float
    expected_stash: float
    epsilon_bound: float

    @property
    def expected_blocks_per_query(self) -> float:
        """Expected blocks a query moves: ``3 − (1−p)² − p(2−p)/n``.

        Three is the worst case (``d_j``, ``o_j``, the upload of
        ``o_j``); the download round lists a slot once, so a query with
        ``d_j = o_j`` moves two.  A record is stashed with probability
        ``p`` at all times, so the two coincide with probability
        ``(1−p)²`` (no stash hit, no restash: both are the queried slot)
        plus ``1/n`` in each other case (a uniform slot meeting the other).
        """
        p = self.stash_probability
        return 3.0 - (1.0 - p) ** 2 - p * (2.0 - p) / self.n

    @classmethod
    def from_phi(cls, n: int, phi: int | None = None) -> "DPRAMParams":
        """Resolve from a stash budget ``Φ(n)`` (defaults to :func:`default_phi`)."""
        _check_n(n)
        budget = default_phi(n) if phi is None else phi
        if budget <= 0:
            raise ValueError(f"phi must be positive, got {budget}")
        p = min(1.0, budget / n)
        return cls(n=n, stash_probability=p, expected_stash=p * n,
                   epsilon_bound=dp_ram_epsilon_upper_bound(n, p))

    @classmethod
    def from_probability(cls, n: int, stash_probability: float) -> "DPRAMParams":
        """Resolve from an explicit stash probability ``p``."""
        _check_n(n)
        _check_probability(stash_probability)
        return cls(n=n, stash_probability=stash_probability,
                   expected_stash=stash_probability * n,
                   epsilon_bound=dp_ram_epsilon_upper_bound(n, stash_probability))


# -- DP-KVS tree layout (Section 7.2) ----------------------------------------

# TreeShape lives with the tree-bucket implementation to keep the import
# graph acyclic; re-exported here because it is a scheme parameter.
from repro.hashing.tree_buckets import TreeShape  # noqa: E402


@dataclass(frozen=True)
class DPKVSParams:
    """Resolved DP-KVS parameters: tree shape + stash/super-root budgets.

    Attributes:
        n: key capacity.
        shape: the tree-bucket geometry.
        phi: super-root capacity ``Φ(n)`` (also drives the bucket stash
            probability ``p = Φ(n)/leaf_count``).
        stash_probability: per-bucket stash probability of the underlying
            bucket DP-RAM.
        choices: ``k(n) = 2`` hash choices per key.
    """

    n: int
    shape: TreeShape
    phi: int
    stash_probability: float
    choices: int = 2

    @classmethod
    def for_capacity(
        cls,
        n: int,
        node_capacity: int = 4,
        phi: int | None = None,
        leaves_per_tree: int | None = None,
    ) -> "DPKVSParams":
        """Resolve all DP-KVS knobs from the key capacity ``n``."""
        shape = TreeShape.for_capacity(
            n, node_capacity=node_capacity, leaves_per_tree=leaves_per_tree
        )
        budget = default_phi(n) if phi is None else phi
        if budget <= 0:
            raise ValueError(f"phi must be positive, got {budget}")
        p = min(1.0, budget / shape.leaf_count)
        return cls(n=n, shape=shape, phi=budget, stash_probability=p)

    def blocks_per_operation(self) -> int:
        """Node blocks moved per KVS operation, at most.

        Each of the ``k = 2`` bucket queries downloads two paths and
        uploads one (Section 6 applied per Appendix E):
        ``2 · 3 · path_length`` when no node is on two of them.
        """
        return self.choices * 3 * self.shape.path_length

    def expected_blocks_per_operation(self) -> float:
        """Upper estimate of the expected node blocks per operation:
        ``2 · path_length · (3 − (1−p)²)``.

        A bucket query with ``d_j = o_j`` — probability ``(1−p)²`` plus a
        chance meeting — downloads its path once.  Nodes two different
        paths share (same tree, or two uniform buckets meeting) come off
        as well, which this figure leaves out.
        """
        shared = (1.0 - self.stash_probability) ** 2
        return self.choices * self.shape.path_length * (3.0 - shared)


# -- shared validation -------------------------------------------------------


def _check_n(n: int) -> None:
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


def _check_epsilon(epsilon: float) -> None:
    # Written so that NaN, which compares false both ways, is refused here
    # rather than reaching ``math.ceil``.
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")


def _check_probability(p: float) -> None:
    if not 0.0 < p <= 1.0:
        raise ValueError(f"probability must be in (0, 1], got {p}")
