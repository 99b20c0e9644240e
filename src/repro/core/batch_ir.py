"""Batched DP-IR: coalescing independent Algorithm-1 queries.

Large-scale storage front-ends batch requests.  ``BatchDPIR`` runs ``m``
independent Algorithm 1 instances — one per requested index, each with its
own error coin and pad set — and downloads the *union* of their pad sets
in a single round.

Privacy is inherited, not re-proved: the tuple of ``m`` independent
per-query transcripts is ε-DP per differing query (the queries use
disjoint randomness, so an adjacent batch changes exactly one independent
mechanism), and revealing only the union is post-processing, which cannot
increase the privacy loss.  Bandwidth, however, improves: overlapping pads
are fetched once, so the expected cost is strictly below ``m·K`` and the
saving grows with ``m·K/n`` (birthday collisions).  ``expected_union_size``
gives the closed form, and ``tests/unit/test_batch_ir.py`` measures it.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.api.protocols import PrivateIR
from repro.core.params import DPIRParams
from repro.core.sampling import draw_pad_set
from repro.crypto.rng import RandomSource, SystemRandomSource
from repro.storage.backends import BackendFactory
from repro.storage.errors import RetrievalError
from repro.storage.server import StorageServer


class BatchDPIR(PrivateIR):
    """ε-DP-IR serving batches of queries in one round.

    Args:
        blocks: the database ``B_1..B_n``.
        epsilon: per-query target budget (resolved to pad size ``K``
            exactly as in :class:`~repro.core.dp_ir.DPIR`).
        pad_size: explicit per-query pad size (overrides ``epsilon``).
        alpha: per-query error probability.
        rng: randomness source.

    Adjacent batches (one request changed) are ``ε``-indistinguishable for
    the same exact ``ε`` as the single-query scheme.
    """

    def __init__(
        self,
        blocks: Sequence[bytes],
        epsilon: float | None = None,
        pad_size: int | None = None,
        alpha: float = 0.05,
        rng: RandomSource | None = None,
        backend_factory: BackendFactory | None = None,
    ) -> None:
        if not blocks:
            raise ValueError("the database must contain at least one block")
        if (epsilon is None) == (pad_size is None):
            raise ValueError("provide exactly one of epsilon or pad_size")
        n = len(blocks)
        if pad_size is not None:
            self._params = DPIRParams.from_pad_size(n, pad_size, alpha)
        else:
            self._params = DPIRParams.from_epsilon(n, epsilon, alpha)
        self._rng = rng if rng is not None else SystemRandomSource()
        self._block_size = len(blocks[0])
        self._server = StorageServer(
            n, backend=backend_factory(n) if backend_factory else None
        )
        self._server.load(blocks)
        self._batches = 0
        self._queries = 0
        self._errors = 0

    # -- parameters & accounting ---------------------------------------------

    @property
    def n(self) -> int:
        """Database size."""
        return self._params.n

    @property
    def pad_size(self) -> int:
        """Per-query pad size ``K``."""
        return self._params.pad_size

    @property
    def epsilon(self) -> float:
        """Exact per-differing-query budget (same as single-query DP-IR)."""
        return self._params.epsilon

    @property
    def alpha(self) -> float:
        """Per-query error probability."""
        return self._params.alpha

    @property
    def block_size(self) -> int:
        """Bytes per database record."""
        return self._block_size

    @property
    def server(self) -> StorageServer:
        """The passive server (exposes operation counters)."""
        return self._server

    def servers(self) -> tuple[StorageServer, ...]:
        """The single passive server."""
        return (self._server,)

    @property
    def batch_count(self) -> int:
        """Batches served."""
        return self._batches

    @property
    def query_count(self) -> int:
        """Individual queries served across all batches."""
        return self._queries

    @property
    def error_count(self) -> int:
        """Queries that hit the α-error event."""
        return self._errors

    def expected_union_size(self, batch_size: int) -> float:
        """Expected downloaded blocks for a batch of ``batch_size``.

        Each of the ``m·K`` pad draws is (approximately) a uniform block;
        the union's expectation is ``n·(1 − (1 − 1/n)^{mK})`` — strictly
        below ``m·K`` and saturating at ``n``.
        """
        if batch_size <= 0:
            raise ValueError(f"batch size must be positive, got {batch_size}")
        n = self._params.n
        draws = batch_size * self._params.pad_size
        return n * (1.0 - math.pow(1.0 - 1.0 / n, draws))

    # -- querying ------------------------------------------------------------

    def query(self, index: int) -> bytes | None:
        """Serve a single query — a batch of one (Algorithm 1 exactly)."""
        return self.query_batch([index])[0]

    def query_many(self, indices: Sequence[int]) -> list[bytes | None]:
        """Serve ``indices`` as one batch, downloading the pad-set union."""
        return self.query_batch(indices)

    def query_batch(self, indices: Sequence[int]) -> list[bytes | None]:
        """Serve a batch; position ``i`` of the result answers
        ``indices[i]`` (``None`` on that query's α-error event).

        Duplicate indices are allowed and answered independently.
        """
        if not indices:
            raise ValueError("batch must contain at least one index")
        n = self._params.n
        # Every index is checked before the first coin: a rejected batch
        # must leave the rng stream where a batch never sent would.
        for index in indices:
            if not 0 <= index < n:
                raise RetrievalError(f"index {index} out of range for n={n}")
        plans: list[tuple[list[int], bool]] = []
        union: set[int] = set()
        for index in indices:
            plan = self._draw_single(index)
            plans.append(plan)
            union.update(plan[0])

        self._server.begin_query(self._batches)
        self._batches += 1
        order = sorted(union)
        retrieved = dict(zip(order, self._server.read_many(order)))

        answers: list[bytes | None] = []
        for index, (_, include_real) in zip(indices, plans):
            self._queries += 1
            if include_real:
                answers.append(retrieved[index])
            else:
                self._errors += 1
                answers.append(None)
        return answers

    def _draw_single(self, index: int) -> tuple[list[int], bool]:
        return draw_pad_set(
            self._rng, self._params.n, self._params.pad_size,
            self._params.alpha, index,
        )
