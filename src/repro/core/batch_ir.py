"""Batched DP-IR: coalescing independent Algorithm-1 queries.

Large-scale storage front-ends batch requests.  ``BatchDPIR`` is
:class:`~repro.core.dp_ir.DPIR` with one addition: ``m`` independent
Algorithm 1 draws — one per requested index, each with its own error
coin and pad set — are served by downloading the *union* of their pad
sets in a single round.

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

from repro.api.protocols import check_indices
from repro.core.dp_ir import DPIR


class BatchDPIR(DPIR):
    """ε-DP-IR serving batches of queries in one round.

    Takes the arguments of :class:`~repro.core.dp_ir.DPIR`; ``epsilon``,
    ``pad_size`` and ``alpha`` are per query.  Adjacent batches (one
    request changed) are ``ε``-indistinguishable for the same exact ``ε``
    as the single-query scheme.
    """

    # The constructor is DPIR's; the first batch served shadows this zero.
    _batches = 0

    @property
    def batch_count(self) -> int:
        """Batches served."""
        return self._batches

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
        return self.query_batch(indices) if len(indices) else []

    def query_batch(self, indices: Sequence[int]) -> list[bytes | None]:
        """Serve a batch; position ``i`` of the result answers
        ``indices[i]`` (``None`` on that query's α-error event).

        Duplicate indices are allowed and answered independently; an
        empty batch raises ``ValueError``.
        """
        indices = check_indices(indices, self._params.n)
        if not indices:
            raise ValueError("batch must contain at least one index")
        plans: list[tuple[list[int], bool]] = []
        union: set[int] = set()
        for index in indices:
            plan = self._draw_set(index)
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
