"""Vectorized pad-set sampling shared by every Algorithm-1 variant.

``DPIR``, ``BatchDPIR``, ``MultiServerDPIR`` and ``ShardedDPIR`` all draw
the same object per query: a uniformly random ``K``-subset of ``[n]``,
with the real index forced in unless the α-error coin fires.  Each scheme
used to carry its own copy of a candidate-at-a-time rejection loop; this
module is the single vectorized implementation on top of
:meth:`~repro.crypto.rng.RandomSource.sample_distinct` (Floyd's
algorithm — exactly ``K`` draws, no rejection).

The distribution is unchanged: conditioned on the error coin, the old
rejection loop produced a uniform ``(K−1)``-subset of ``[n] \\ {index}``
(plus the index) or a uniform ``K``-subset of ``[n]`` — precisely what
the two branches below draw directly.
"""

from __future__ import annotations

from repro.crypto.rng import RandomSource


def draw_pad_set(
    rng: RandomSource, n: int, pad_size: int, alpha: float, index: int
) -> tuple[list[int], bool]:
    """Draw one Algorithm-1 pad set for a query on ``index``.

    Returns ``(pad, include_real)``: ``pad`` is a list of ``pad_size``
    distinct indices in ``[0, n)``; ``include_real`` is the complement of
    the α-error event and, when set, ``pad[0] == index``.

    The caller is responsible for range-checking ``index`` (schemes raise
    their own :class:`~repro.storage.errors.RetrievalError`).
    """
    include_real = rng.random() >= alpha
    if include_real:
        # Uniform (K-1)-subset of [n] \ {index}: sample from a universe of
        # n-1 and shift values at or above the hole up by one.
        drawn = rng.sample_distinct(n - 1, pad_size - 1)
        return [index, *[v + 1 if v >= index else v for v in drawn]], True
    return rng.sample_distinct(n, pad_size), False
