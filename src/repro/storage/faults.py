"""Failure injection: misbehaving-server wrappers for robustness tests.

The paper's adversary is honest-but-curious — it serves requests
faithfully and only *observes*.  A production deployment also worries
about the failure modes these wrappers simulate:

* :class:`CorruptingServer` — flips bits in a fraction of served blocks
  (silent data corruption / an actively malicious server).
* :class:`FlakyServer` — fails a fraction of operations outright
  (timeouts, crashes).

They wrap any :class:`~repro.storage.server.StorageServer` transparently,
so every scheme in the library can be exercised under faults.  One
private base, ``_FaultLayer``, holds what they share — the inner server,
the counters, the coin granularity of ``read_many`` and ``exchange`` —
so a wrapper names its two counter keys, its per-slot entry points and
what one per-round coin does around the inner call.  The tests
use them to demonstrate two facts: the plain IND-CPA encryption of the
DP schemes does *not* detect tampering (decryptions silently garble,
exactly as the threat model predicts), while the authenticated mode of
:mod:`repro.crypto.encryption` catches every corrupted block.

Both wrappers expose a uniform :meth:`~CorruptingServer.fault_counters`
mapping, which :func:`scheme_fault_counters` aggregates across a whole
scheme (nested wrappers included) — that is what the serving report and
harness metrics surface, and what the cluster failover tests use to
report detected-versus-silent faults.  :func:`wrap_scheme_servers`
installs wrappers into an already-built scheme, replacing every server
reference it holds (directly, in a :class:`ServerPool`, in a list, or
inside a nested sub-scheme or held request), so fault injection works on
any registered scheme without per-scheme wiring.
"""

from __future__ import annotations

from typing import Callable

from repro.crypto.rng import RandomSource
from repro.storage.errors import StorageError
from repro.storage.held import scheme_parts
from repro.storage.server import ServerPool, StorageServer


class ServerFault(StorageError):
    """A wrapped server simulated an operational failure."""


_COIN_MODES = ("per_slot", "per_round")


def check_coin_mode(coin_mode: str) -> str:
    """Return ``coin_mode`` if it names a fault-coin granularity."""
    if coin_mode not in _COIN_MODES:
        raise ValueError(
            f"coin mode must be one of {_COIN_MODES}, got {coin_mode!r}"
        )
    return coin_mode


class _FaultLayer:
    """What both wrappers share: the inner server, the coins and the rounds.

    A subclass names its two counter keys (``_KEYS``: per slot, per
    round) and says in :meth:`_round` what one per-round coin does around
    the inner call.  Every round entry point a coin guards is defined
    here or on the subclass, never left to ``__getattr__``, which would
    hand the round to the inner server and skip the coins.
    """

    _RATE: str
    _KEYS: tuple[str, str]

    def __init__(
        self,
        inner: StorageServer,
        rate: float,
        rng: RandomSource,
        coin_mode: str,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"{self._RATE} must be in [0, 1], got {rate}")
        self._inner = inner
        self._rate = rate
        self._rng = rng
        self._coin_mode = check_coin_mode(coin_mode)
        self._slots = 0
        self._rounds = 0

    # ``StorageServer.exchange`` run over a wrapper sets the query its
    # slots are attributed to; the inner server is the one that records
    # them.  Reads fall through to ``__getattr__``.
    _current_query = property(
        None, lambda self, query: self._inner.begin_query(query)
    )

    @property
    def coin_mode(self) -> str:
        """Fault-coin granularity: ``"per_slot"`` or ``"per_round"``."""
        return self._coin_mode

    def fault_counters(self) -> dict[str, int]:
        """Injected-fault totals, merged with any wrapped fault layer."""
        counters = _inner_fault_counters(self._inner)
        slot_key, round_key = self._KEYS
        counters[slot_key] = counters.get(slot_key, 0) + self._slots
        if self._coin_mode == "per_round":
            counters[round_key] = counters.get(round_key, 0) + self._rounds
        return counters

    def read_many(self, indices) -> list[bytes]:
        """Serve a batched read; coin granularity follows ``coin_mode``.

        Per-slot mode: one coin per slot, in order, through this
        wrapper's :meth:`read` — a mid-batch fault leaves exactly the
        prefix the per-slot loop would have served (inner counters and
        transcript included), the equivalence the failover layers and
        property tests rely on.  Per-round mode: one coin for the whole
        round, and the round rides the inner server's ``read_many``.
        """
        if self._coin_mode == "per_round":
            return self._round(
                "read", len(indices), self._inner.read_many, indices
            )
        return [self.read(index) for index in indices]

    def exchange(self, query: int, indices, held=None) -> list[bytes]:
        """Serve a write-then-read request under this layer's coins.

        Per-round mode: one coin for the request, around the inner
        server's ``exchange``.  Per-slot mode: the server's own
        :meth:`~repro.storage.server.StorageServer.exchange` over this
        wrapper's entry points, so every slot meets the coin it would
        have met on its own, uploads first; a fault leaves exactly the
        prefix the per-slot loop would have committed, and the client
        re-sends the upload, which is idempotent.
        """
        if self._coin_mode == "per_round":
            size = len(indices) + (len(held[1]) if held is not None else 0)
            return self._round(
                "exchange", size, self._inner.exchange, query, indices, held
            )
        return StorageServer.exchange(self, query, indices, held)

    def _round(self, operation: str, size: int, call, *args):
        """Run ``call(*args)``, one round of ``size`` slots, under one coin."""
        raise NotImplementedError

    def __getattr__(self, name):
        return getattr(self._inner, name)


class CorruptingServer(_FaultLayer):
    """Wrapper that flips one bit in a fraction of served reads.

    Args:
        inner: the real server.
        corruption_rate: probability a read returns a corrupted block.
        rng: randomness for fault decisions.
        coin_mode: ``"per_slot"`` (default) flips one coin per served
            block, preserving slot-exact equivalence with the unbatched
            path; ``"per_round"`` flips one coin per batched round —
            matching real RPC failure granularity — and delegates clean
            rounds to the inner server's fast ``read_many``, so chaos
            tests run at batched speed.  The two modes report under
            *different* counter keys (``corrupted_reads`` vs.
            ``corrupted_rounds``) so metrics stay distinguishable.

    Uploads go to the inner server untouched.
    """

    _RATE = "corruption rate"
    _KEYS = ("corrupted_reads", "corrupted_rounds")

    def __init__(
        self,
        inner: StorageServer,
        corruption_rate: float,
        rng: RandomSource,
        coin_mode: str = "per_slot",
    ) -> None:
        super().__init__(inner, corruption_rate, rng, coin_mode)

    @property
    def corrupted_reads(self) -> int:
        """Reads that were served corrupted."""
        return self._slots

    @property
    def corrupted_rounds(self) -> int:
        """Batched rounds served with a corrupted block (per-round mode)."""
        return self._rounds

    def read(self, index: int) -> bytes:
        """Serve a read, possibly with one bit flipped."""
        block = self._inner.read(index)
        if self._rng.random() < self._rate and block:
            block = self._flip(block)
        return block

    def _round(self, operation: str, size: int, call, *args):
        # The coin is flipped over what comes back: a request that
        # downloads nothing has nothing to corrupt.
        blocks = call(*args)
        if blocks and self._rng.random() < self._rate:
            position = self._rng.randbelow(len(blocks))
            if blocks[position]:
                blocks[position] = self._flip(blocks[position])
                self._rounds += 1
        return blocks

    def _flip(self, block: bytes) -> bytes:
        offset = self._rng.randbelow(len(block))
        bit = 1 << self._rng.randbelow(8)
        self._slots += 1
        return block[:offset] + bytes([block[offset] ^ bit]) + block[offset + 1 :]


class FlakyServer(_FaultLayer):
    """Wrapper that raises :class:`ServerFault` on a fraction of operations.

    Args:
        inner: the real server.
        failure_rate: probability an operation (or, in per-round mode,
            a batched round) fails.
        rng: randomness for fault decisions.
        coin_mode: ``"per_slot"`` (default) flips one coin per slot so
            a mid-batch fault commits exactly the prefix the unbatched
            loop would have; ``"per_round"`` flips one coin per batched
            round — the whole round fails or the whole round rides the
            inner fast path — under the distinct ``failed_rounds``
            counter key.
    """

    _RATE = "failure rate"
    _KEYS = ("failed_operations", "failed_rounds")

    def __init__(
        self,
        inner: StorageServer,
        failure_rate: float,
        rng: RandomSource,
        coin_mode: str = "per_slot",
    ) -> None:
        super().__init__(inner, failure_rate, rng, coin_mode)

    @property
    def failures(self) -> int:
        """Operations that failed."""
        return self._slots

    @property
    def failed_rounds(self) -> int:
        """Batched rounds that failed outright (per-round mode)."""
        return self._rounds

    def read(self, index: int) -> bytes:
        """Serve a read or fail."""
        self._maybe_fail("read", index)
        return self._inner.read(index)

    def write(self, index: int, block: bytes) -> None:
        """Serve a write or fail."""
        self._maybe_fail("write", index)
        self._inner.write(index, block)

    def write_many(self, items) -> None:
        """Serve a batched write (coin granularity follows ``coin_mode``)."""
        if self._coin_mode == "per_round":
            self._round("write", len(items), self._inner.write_many, items)
            return
        for index, block in items:
            self.write(index, block)

    def _round(self, operation: str, size: int, call, *args):
        if size and self._rng.random() < self._rate:
            self._rounds += 1
            raise ServerFault(
                f"simulated batched {operation} failure ({size} slots)"
            )
        return call(*args)

    def _maybe_fail(self, operation: str, index: int) -> None:
        if self._rng.random() < self._rate:
            self._slots += 1
            raise ServerFault(f"simulated {operation} failure at slot {index}")


def _inner_fault_counters(inner) -> dict[str, int]:
    counters = getattr(inner, "fault_counters", None)
    return dict(counters()) if counters is not None else {}


def scheme_fault_counters(scheme) -> dict[str, int]:
    """Aggregate fault counters across everything ``scheme`` exposes.

    Sums the :meth:`fault_counters` of every server returned by the
    scheme's ``servers()`` (wrapped servers report, plain ones are
    skipped), then merges the scheme's own ``fault_counters()`` when it
    defines one — the cluster layer reports failovers and detected
    corruptions that way.  Returns an empty mapping for a fault-free
    deployment, so report code can cheaply show nothing.
    """
    totals: dict[str, int] = {}
    for server in scheme.servers():
        counters = getattr(server, "fault_counters", None)
        if counters is None:
            continue
        for key, value in counters().items():
            totals[key] = totals.get(key, 0) + value
    own = getattr(scheme, "fault_counters", None)
    if own is not None:
        for key, value in own().items():
            totals[key] = totals.get(key, 0) + value
    return totals


def wrap_scheme_servers(
    scheme, wrap: Callable[[StorageServer], object]
) -> list:
    """Replace every server reference inside a built scheme with ``wrap(server)``.

    Walks the scheme's parts (:func:`~repro.storage.held.scheme_parts`:
    the scheme, its nested sub-schemes and its held requests — DP-KVS
    keeps its server inside an internal bucket RAM, a recursive Path ORAM
    one inside each level ORAM) and swaps each server a part holds —
    directly, in a :class:`~repro.storage.server.ServerPool` or in a list
    — for its wrapper, so the scheme's own reads and writes flow through
    the injected fault layer and ``servers()`` reports the wrappers.

    Returns:
        The installed wrappers.

    Raises:
        ValueError: if no server reference was found to wrap.
    """
    wrapped: list = []
    for part in scheme_parts(scheme):
        for name, value in list(vars(part).items()):
            if isinstance(value, StorageServer):
                setattr(part, name, wrap(value))
                wrapped.append(getattr(part, name))
                continue
            if isinstance(value, ServerPool):
                value = value._servers
            elif not isinstance(value, list):
                continue
            for position, item in enumerate(value):
                if isinstance(item, StorageServer):
                    value[position] = wrap(item)
                    wrapped.append(value[position])
    if not wrapped:
        raise ValueError(
            f"no server references found on {type(scheme).__name__}"
        )
    return wrapped
