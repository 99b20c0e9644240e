"""Randomness sources.

All schemes in this repository take an explicit randomness source instead of
using module-level global state.  This keeps experiments reproducible (a
``SeededRandomSource`` makes a whole simulation deterministic) while letting
production-style usage fall back to the operating system's entropy
(``SystemRandomSource``).

The interface is intentionally tiny: the constructions only ever need a
uniform float, a uniform integer below a bound, sampling without
replacement, and raw bytes.
"""

from __future__ import annotations

import abc
import hashlib
import os
import random
from typing import Sequence, TypeVar

_T = TypeVar("_T")


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

        Floyd's sampling algorithm: exactly ``count`` calls to
        :meth:`randbelow`, ``O(count)`` space, no rejection loop and no
        ``O(universe)`` copy — the unordered result is uniform over all
        ``count``-subsets of the universe.  This is the pad-set hot path
        of every DP-IR query (Algorithm 1 draws a K-subset per query),
        replacing the candidate-at-a-time rejection sampler whose cost
        grows both with collisions and with per-candidate set probes.

        Raises:
            ValueError: if ``count`` is negative or exceeds ``universe``.
        """
        if count < 0 or count > universe:
            raise ValueError(f"cannot sample {count} indices from {universe}")
        chosen: set[int] = set()
        out: list[int] = []
        randbelow = self.randbelow
        for j in range(universe - count, universe):
            candidate = randbelow(j + 1)
            if candidate in chosen:
                candidate = j
            chosen.add(candidate)
            out.append(candidate)
        return out

    def shuffled(self, items: Sequence[_T]) -> list[_T]:
        """Return a new uniformly shuffled list with the same elements."""
        pool = list(items)
        for i in range(len(pool) - 1, 0, -1):
            j = self.randbelow(i + 1)
            pool[i], pool[j] = pool[j], pool[i]
        return pool


def _float_floyd(rand, universe: int, count: int) -> list[int]:
    """Floyd's sampling driven by a raw ``random()`` callable.

    The concrete sources bind ``rand`` straight to their generator's
    ``random`` method, skipping one Python wrapper call per draw — on
    the DP-IR hot path that wrapper is most of the sampling cost.
    Mapping a 53-bit float onto ``[0, j]`` carries a relative bias below
    ``2^-52``, far under anything the Monte-Carlo audits can resolve
    (this repository's sources are explicitly simulation-grade, not
    cryptographic — see the module docstring).
    """
    if count < 0 or count > universe:
        raise ValueError(f"cannot sample {count} indices from {universe}")
    bounds = range(universe - count + 1, universe + 1)
    out = [int(rand() * bound) for bound in bounds]
    if len(set(out)) != count:
        # Rare at count << universe: replay Floyd's fix-up over the raw
        # draws — a repeated candidate becomes its step's top index.
        chosen: set[int] = set()
        for position, bound in enumerate(bounds):
            if out[position] in chosen:
                out[position] = bound - 1
            chosen.add(out[position])
    return out


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

    def sample_distinct(self, universe: int, count: int) -> list[int]:
        return _float_floyd(self._rng.random, universe, count)

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

    def sample_distinct(self, universe: int, count: int) -> list[int]:
        return _float_floyd(self._rng.random, universe, count)

    def spawn(self, label: str) -> "SystemRandomSource":
        del label  # system entropy streams are already independent
        return SystemRandomSource()


def default_rng(seed: int | None = None) -> RandomSource:
    """Return a seeded source when ``seed`` is given, else system entropy."""
    if seed is None:
        return SystemRandomSource()
    return SeededRandomSource(seed)
