"""Randomness sources.

All schemes in this repository take an explicit randomness source instead of
using module-level global state.  This keeps experiments reproducible (a
``SeededRandomSource`` makes a whole simulation deterministic) while letting
production-style usage fall back to the operating system's entropy
(``SystemRandomSource``).

The interface is intentionally tiny: the constructions only ever need a
uniform float, a uniform integer below a bound, sampling without
replacement, and raw bytes.

Sampling without replacement (:meth:`RandomSource.sample_distinct`, the
pad-set draw of every DP-IR query) is a *word carve*: the entropy of all
the indices comes from one :meth:`RandomSource.bytes` call, is decoded
into fixed-width words by three big-integer operations and one
``struct`` call, and every word is mapped onto the universe exactly —
see :func:`_carve_plan`.  The decode is little-endian by construction
(never the platform's byte order), so a seed replays on any machine.
"""

from __future__ import annotations

import abc
import functools
import hashlib
import os
import random
import struct
from typing import Callable, Sequence, TypeVar

_T = TypeVar("_T")

#: Value widths the carve decodes: (bytes, little-endian ``struct`` code).
_VALUE_WIDTHS = ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))


@functools.lru_cache(maxsize=64)
def _carve_plan(universe: int, count: int) -> tuple[int, int, int, int, Callable]:
    """Constants that decode ``count`` words over ``universe`` in one go.

    With ``v`` the smallest width of :data:`_VALUE_WIDTHS` that holds
    ``universe - 1``, an index costs one *lane* of ``3v`` little-endian
    bytes: a random word ``w`` of ``b = 16v`` bits under ``v`` zero
    bytes.  Read as one integer and masked with ``words`` the buffer is
    ``sum(w_i << 24v*i)``, so *one* multiplication by ``universe``
    multiplies every lane (``w * universe < 2^24v`` stays inside its
    lane).  Lane ``i`` then holds Lemire's multiply-shift: its top ``v``
    bytes are the value ``(w_i * universe) >> b``, its low ``b`` bits
    the remainder ``(w_i * universe) mod 2^b``.

    *Exact*: the words mapped to a value ``x`` are the multiples of
    ``universe`` in ``[x * 2^b, (x + 1) * 2^b)``, and how many there are
    depends on ``x``.  Those whose remainder is at least
    ``tail = 2^b mod universe`` lie in a window of length ``2^b - tail``
    — a multiple of ``universe`` — so every ``x`` keeps exactly
    ``(2^b - tail) / universe`` of them.  Words with a smaller remainder
    (the biased tail, a share below ``2^-8v``) are rejected.  Adding
    ``bias`` (``2^b - tail`` per lane) to the remainders carries into
    bit ``b`` of exactly the accepted lanes; ``carries`` has that bit
    set in every lane, and is ``0`` when ``tail == 0`` (a power-of-two
    universe) and there is nothing to reject.

    The cache is what lets a five-index pad cost no more than five
    float draws; it is kept small because a plan weighs ~60 bytes per
    index.

    Returns ``(nbytes, words, bias, carries, values)``; ``values`` reads
    the top ``v`` bytes of every lane of an ``nbytes`` buffer.
    """
    if universe > 1 << 64:
        raise ValueError(f"universe {universe} exceeds 2^64")
    width, code = next(wc for wc in _VALUE_WIDTHS if universe <= 1 << 8 * wc[0])
    word, lane = 1 << 16 * width, 3 * width
    ones = int.from_bytes((b"\1" + bytes(lane - 1)) * count, "little")
    tail = word % universe
    carries = ones * word if tail else 0
    values = struct.Struct("<" + f"{2 * width}x{code}" * count).unpack
    return lane * count, ones * (word - 1), ones * (word - tail), carries, values


class RandomSource(abc.ABC):
    """Abstract source of randomness used by clients and experiments."""

    @abc.abstractmethod
    def random(self) -> float:
        """Return a uniform float in ``[0, 1)``."""

    @abc.abstractmethod
    def randbelow(self, bound: int) -> int:
        """Return a uniform integer in ``[0, bound)``.

        Raises:
            ValueError: if ``bound`` is not positive.
        """

    @abc.abstractmethod
    def bytes(self, length: int) -> bytes:
        """Return ``length`` uniformly random bytes."""

    @abc.abstractmethod
    def spawn(self, label: str) -> "RandomSource":
        """Return an independent child source derived from ``label``.

        Children of a seeded source are themselves deterministic, which lets
        a simulation hand out independent substreams (one per scheme, one
        per workload, ...) without the streams interfering.
        """

    def randint(self, low: int, high: int) -> int:
        """Return a uniform integer in the inclusive range ``[low, high]``."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        return low + self.randbelow(high - low + 1)

    def choice(self, items: Sequence[_T]) -> _T:
        """Return a uniformly chosen element of ``items``."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return items[self.randbelow(len(items))]

    def sample(self, population: Sequence[_T], count: int) -> list[_T]:
        """Return ``count`` distinct elements of ``population``, uniformly.

        Uses a partial Fisher-Yates shuffle so the cost is ``O(count)``
        extra space on top of one copy of the population.
        """
        size = len(population)
        if count < 0 or count > size:
            raise ValueError(f"cannot sample {count} items from {size}")
        pool = list(population)
        for i in range(count):
            j = i + self.randbelow(size - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:count]

    def sample_distinct(self, universe: int, count: int) -> list[int]:
        """Return ``count`` distinct indices from ``range(universe)``.

        The result is the first ``count`` distinct values of a stream of
        i.i.d. exactly-uniform indices (:meth:`_carve`).  Relabelling the
        universe by any permutation maps equally likely streams to each
        other and results to relabelled results, so every *ordered*
        tuple of distinct values is equally likely: the set is a uniform
        ``count``-subset and its order says nothing about it.  Normally
        that is one :meth:`bytes` call; when a value repeats or a word
        is rejected, the stream is read on by exactly the number of
        values still missing, so nothing is ever read past the result.

        A dense request (``2 * count > universe``) carves the complement
        instead: ``universe - count + 1`` distinct stream values, of
        which the last leads the result and everything *not* carved
        follows in ascending order.  That last value is uniform over
        what the earlier ones left — the result.

        Either way ``result[0]`` is uniform over the result *given the
        set*, which is what lets
        :func:`repro.core.sampling.draw_pad_set` discard a surplus
        element without looking at values.

        This is the pad-set hot path of every DP-IR query (Algorithm 1
        draws a K-subset per query).

        Raises:
            ValueError: if ``count`` is negative or exceeds ``universe``,
                or ``universe`` exceeds ``2^64``.
        """
        if count < 0 or count > universe:
            raise ValueError(f"cannot sample {count} indices from {universe}")
        if not count:
            return []
        dense = 2 * count > universe
        want = universe - count + 1 if dense else count
        picked = self._carve(universe, want)
        while len(set(picked)) != want:
            picked = list(dict.fromkeys(picked))
            picked += self._carve(universe, want - len(picked))
        if dense:
            carved = set(picked)
            return [picked[-1], *(v for v in range(universe) if v not in carved)]
        return picked

    def _carve(self, universe: int, count: int) -> list[int]:
        """Read ``count`` words; return the values of those accepted.

        One :meth:`bytes` call, decoded as :func:`_carve_plan` lays out.
        The values are i.i.d. exactly uniform over ``range(universe)``
        and in stream order; there are fewer than ``count`` only in the
        rare batch with a word in the biased tail.
        """
        nbytes, words, bias, carries, values = _carve_plan(universe, count)
        product = (int.from_bytes(self.bytes(nbytes), "little") & words) * universe
        out = list(values(product.to_bytes(nbytes, "little")))
        if carries:
            accepted = (product & words) + bias
            if accepted & carries != carries:
                flags = values(accepted.to_bytes(nbytes, "little"))
                out = [value for value, ok in zip(out, flags) if ok]
        return out

    def shuffled(self, items: Sequence[_T]) -> list[_T]:
        """Return a new uniformly shuffled list with the same elements."""
        pool = list(items)
        for i in range(len(pool) - 1, 0, -1):
            j = self.randbelow(i + 1)
            pool[i], pool[j] = pool[j], pool[i]
        return pool


class SeededRandomSource(RandomSource):
    """Deterministic randomness derived from an integer or bytes seed.

    Backed by :class:`random.Random` (Mersenne Twister), which is plenty for
    simulation purposes; cryptographic randomness is not required to
    reproduce transcript *distributions*.
    """

    def __init__(self, seed: int | bytes | str) -> None:
        self._seed = seed
        self._rng = random.Random(seed)

    @property
    def seed(self) -> int | bytes | str:
        """The seed this source was created with."""
        return self._seed

    def random(self) -> float:
        return self._rng.random()

    def randbelow(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return self._rng.randrange(bound)

    def bytes(self, length: int) -> bytes:
        if length < 0:
            raise ValueError(f"length must be non-negative, got {length}")
        return self._rng.randbytes(length)

    def spawn(self, label: str) -> "SeededRandomSource":
        material = hashlib.sha256(repr(self._seed).encode() + b"/" + label.encode()).digest()
        return SeededRandomSource(int.from_bytes(material[:8], "big"))


class SystemRandomSource(RandomSource):
    """Randomness from the operating system (``os.urandom``)."""

    def __init__(self) -> None:
        self._rng = random.SystemRandom()

    def random(self) -> float:
        return self._rng.random()

    def randbelow(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return self._rng.randrange(bound)

    def bytes(self, length: int) -> bytes:
        if length < 0:
            raise ValueError(f"length must be non-negative, got {length}")
        return os.urandom(length)

    def spawn(self, label: str) -> "SystemRandomSource":
        del label  # system entropy streams are already independent
        return SystemRandomSource()


def default_rng(seed: int | None = None) -> RandomSource:
    """Return a seeded source when ``seed`` is given, else system entropy."""
    if seed is None:
        return SystemRandomSource()
    return SeededRandomSource(seed)
