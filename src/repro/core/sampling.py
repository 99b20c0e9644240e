"""Pad-set sampling shared by every Algorithm-1 variant.

``DPIR``, ``BatchDPIR``, ``MultiServerDPIR`` and ``ShardedDPIR`` all draw
the same object per query: a uniformly random ``K``-subset of ``[n]``,
with the real index forced in unless the α-error coin fires.  This module
is the single implementation, on top of
:meth:`~repro.crypto.rng.RandomSource.sample_distinct` (one entropy draw
carved into ``K`` exactly-uniform distinct indices).

Both branches draw a uniform ``K``-subset ``S`` of ``[n]``.  The error
branch returns it.  The other needs ``{index}`` plus a uniform
``(K−1)``-subset of ``[n] \\ {index}``, and gets it from ``S`` without a
pass over its elements: if ``index ∈ S`` the rest of ``S`` is such a
subset by symmetry; if not, ``S`` is a uniform ``K``-subset of
``[n] \\ {index}`` with one element too many, and dropping an element
picked *independently of the values* leaves every ``(K−1)``-subset
equally likely.  ``sample_distinct`` guarantees its first element is
such a pick.  A pick that looks at values — the largest, or whatever a
``set`` happens to iterate to last — would bias the pad towards the
values it keeps.
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
    pad = rng.sample_distinct(n, pad_size)
    if include_real:
        if index in pad:
            pad[pad.index(index)] = pad[0]
        pad[0] = index
    return pad, include_real
