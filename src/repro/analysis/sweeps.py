"""Parameter sweeps: the paper's trade-offs as queryable frontiers.

The title question — *what privacy is achievable with small overhead?* —
is a function, not a single number.  These helpers materialize it:

* :func:`ir_privacy_frontier` — for each bandwidth budget, the smallest
  achievable ε (Theorem 3.4 floor) next to what Algorithm 1 delivers at
  that bandwidth (its exact ε), showing the construction hugging the
  bound.
* :func:`ram_privacy_frontier` — the Theorem 3.7 floor across bandwidth
  budgets and client sizes.
* :func:`dp_ram_stash_tradeoff` — stash budget Φ(n) versus the analytic
  ε bound and the Lemma D.1 overflow probability.
* :func:`dp_kvs_capacity_plan` — tree-shape/overhead/storage figures
  across capacities, for sizing a deployment.

Everything is closed-form (no simulation), so sweeps are cheap enough for
interactive use and for the docs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.bounds import (
    dp_ram_lower_bound,
    min_epsilon_for_ir_bandwidth,
    min_epsilon_for_ram_bandwidth,
)
from repro.analysis.tails import stash_overflow_bound
from repro.core.params import (
    DPKVSParams,
    dp_ir_exact_epsilon,
    dp_ram_epsilon_upper_bound,
)


@dataclass(frozen=True)
class FrontierPoint:
    """One point of a privacy/overhead frontier.

    Attributes:
        bandwidth: blocks per query.
        epsilon_floor: smallest ε any scheme at this bandwidth can have.
        epsilon_achieved: ε the construction delivers at this bandwidth
            (``None`` where not applicable).
    """

    bandwidth: float
    epsilon_floor: float
    epsilon_achieved: float | None = None


def ir_privacy_frontier(
    n: int, bandwidths: Sequence[int], alpha: float = 0.05
) -> list[FrontierPoint]:
    """Theorem 3.4 floor vs Algorithm 1's exact ε per bandwidth budget.

    ``bandwidths`` are pad sizes ``K``; for each, the floor is the
    inverted lower bound and the achieved value is the exact
    ``ln((1−α)n/(αK)+1)``.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    points = []
    for bandwidth in bandwidths:
        if not 1 <= bandwidth <= n:
            raise ValueError(f"bandwidth {bandwidth} outside [1, {n}]")
        points.append(
            FrontierPoint(
                bandwidth=float(bandwidth),
                epsilon_floor=min_epsilon_for_ir_bandwidth(
                    n, bandwidth, alpha
                ),
                epsilon_achieved=dp_ir_exact_epsilon(n, bandwidth, alpha),
            )
        )
    return points


def ram_privacy_frontier(
    n: int, bandwidths: Sequence[float], client_blocks: int
) -> list[FrontierPoint]:
    """Theorem 3.7's floor across bandwidth budgets at fixed client size."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    points = []
    for bandwidth in bandwidths:
        floor = min_epsilon_for_ram_bandwidth(n, bandwidth, client_blocks)
        points.append(
            FrontierPoint(bandwidth=float(bandwidth), epsilon_floor=floor)
        )
    return points


@dataclass(frozen=True)
class StashTradeoffPoint:
    """One Φ(n) choice for DP-RAM.

    Attributes:
        phi: stash budget.
        stash_probability: the induced ``p = Φ/n``.
        epsilon_bound: the analytic ``3·ln(n³/p²)`` budget.
        overflow_probability: Lemma D.1 bound on exceeding ``2Φ``.
    """

    phi: int
    stash_probability: float
    epsilon_bound: float
    overflow_probability: float


def dp_ram_stash_tradeoff(
    n: int, phis: Sequence[int]
) -> list[StashTradeoffPoint]:
    """Sweep stash budgets: bigger Φ buys (slightly) better ε and tighter
    concentration, at the price of client memory."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    points = []
    for phi in phis:
        if phi <= 0:
            raise ValueError(f"phi must be positive, got {phi}")
        p = min(1.0, phi / n)
        points.append(
            StashTradeoffPoint(
                phi=phi,
                stash_probability=p,
                epsilon_bound=dp_ram_epsilon_upper_bound(n, p),
                overflow_probability=stash_overflow_bound(p * n, 1.0),
            )
        )
    return points


@dataclass(frozen=True)
class KvsPlanPoint:
    """DP-KVS sizing figures for one capacity.

    Attributes:
        capacity: key capacity ``n``.
        path_length: nodes per bucket path (``Θ(log log n)``).
        blocks_per_operation: node blocks moved per KVS op, at most.
        server_nodes: server storage in node blocks.
        server_nodes_per_key: the ``O(n)`` figure, normalized.
        phi: super-root capacity.
    """

    capacity: int
    path_length: int
    blocks_per_operation: int
    server_nodes: int
    server_nodes_per_key: float
    phi: int


def dp_kvs_capacity_plan(capacities: Sequence[int]) -> list[KvsPlanPoint]:
    """Sizing table for DP-KVS deployments across capacities."""
    points = []
    for capacity in capacities:
        params = DPKVSParams.for_capacity(capacity)
        shape = params.shape
        points.append(
            KvsPlanPoint(
                capacity=capacity,
                path_length=shape.path_length,
                blocks_per_operation=params.blocks_per_operation(),
                server_nodes=shape.total_nodes,
                server_nodes_per_key=shape.total_nodes / capacity,
                phi=params.phi,
            )
        )
    return points


def oram_crossover_bandwidth(n: int, client_blocks: int = 4) -> float:
    """The bandwidth below which obliviousness (ε = 0) becomes impossible.

    From Theorem 3.7 at ε = 0: any scheme moving fewer than
    ``log_c(n)`` blocks per query cannot be oblivious — the boundary
    between the ORAM regime and the DP regime.
    """
    return dp_ram_lower_bound(n, 0.0, client_blocks)
