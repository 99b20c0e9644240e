"""Failure injection: misbehaving-server wrappers for robustness tests.

The paper's adversary is honest-but-curious — it serves requests
faithfully and only *observes*.  A production deployment also worries
about the failure modes these wrappers simulate:

* :class:`CorruptingServer` — flips bits in a fraction of served blocks
  (silent data corruption / an actively malicious server).
* :class:`FlakyServer` — fails a fraction of operations outright
  (timeouts, crashes).

They wrap any :class:`~repro.storage.server.StorageServer` transparently,
so every scheme in the library can be exercised under faults.  The tests
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


# ``StorageServer.exchange`` run over a wrapper sets the query its slots
# are attributed to; the inner server is the one that records them.
# Reads fall through to ``__getattr__`` like every other inner attribute.
_INNER_QUERY = property(
    None, lambda wrapper, query: wrapper._inner.begin_query(query)
)


class CorruptingServer:
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
    """

    def __init__(
        self,
        inner: StorageServer,
        corruption_rate: float,
        rng: RandomSource,
        coin_mode: str = "per_slot",
    ) -> None:
        if not 0.0 <= corruption_rate <= 1.0:
            raise ValueError(
                f"corruption rate must be in [0, 1], got {corruption_rate}"
            )
        self._inner = inner
        self._rate = corruption_rate
        self._rng = rng
        self._coin_mode = check_coin_mode(coin_mode)
        self._corrupted = 0
        self._corrupted_rounds = 0

    _current_query = _INNER_QUERY

    @property
    def corrupted_reads(self) -> int:
        """Reads that were served corrupted."""
        return self._corrupted

    @property
    def corrupted_rounds(self) -> int:
        """Batched rounds served with a corrupted block (per-round mode)."""
        return self._corrupted_rounds

    @property
    def coin_mode(self) -> str:
        """Fault-coin granularity: ``"per_slot"`` or ``"per_round"``."""
        return self._coin_mode

    def fault_counters(self) -> dict[str, int]:
        """Injected-fault totals, merged with any wrapped fault layer."""
        counters = _inner_fault_counters(self._inner)
        counters["corrupted_reads"] = (
            counters.get("corrupted_reads", 0) + self._corrupted
        )
        if self._coin_mode == "per_round":
            counters["corrupted_rounds"] = (
                counters.get("corrupted_rounds", 0) + self._corrupted_rounds
            )
        return counters

    def read(self, index: int) -> bytes:
        """Serve a read, possibly with one bit flipped."""
        block = self._inner.read(index)
        if self._rng.random() < self._rate and block:
            position = self._rng.randbelow(len(block))
            bit = 1 << self._rng.randbelow(8)
            block = (
                block[:position]
                + bytes([block[position] ^ bit])
                + block[position + 1 :]
            )
            self._corrupted += 1
        return block

    def read_many(self, indices) -> list[bytes]:
        """Serve a batched read; coin granularity follows ``coin_mode``.

        Per-slot mode stays slot-accurate — one corruption coin per
        served block, in slot order — so the batched entry point
        deliberately degrades to the single-slot path instead of
        delegating to the inner server's fast ``read_many`` (which would
        bypass the fault layer entirely via ``__getattr__``).  Per-round
        mode flips *one* coin for the whole round: a clean round rides
        the inner server's batched fast path untouched, a corrupted
        round has one bit flipped in one rng-chosen slot.
        """
        if self._coin_mode == "per_round":
            return self._corrupt_round(self._inner.read_many(indices))
        return [self.read(index) for index in indices]

    def exchange(self, query: int, indices, held=None) -> list[bytes]:
        """Serve a write-then-read request; the reads may come back bad.

        Per-round mode flips its one coin over the request's downloads, as
        :meth:`read_many` does; per-slot mode runs the server's own
        :meth:`~repro.storage.server.StorageServer.exchange` over this
        wrapper's entry points, one coin per served block.  The upload goes
        to the inner server untouched either way.  Without this override
        ``__getattr__`` would hand the whole request to the inner server
        and skip fault injection.
        """
        if self._coin_mode == "per_round":
            return self._corrupt_round(
                self._inner.exchange(query, indices, held)
            )
        return StorageServer.exchange(self, query, indices, held)

    def _corrupt_round(self, blocks: list[bytes]) -> list[bytes]:
        if blocks and self._rng.random() < self._rate:
            position = self._rng.randbelow(len(blocks))
            block = blocks[position]
            if block:
                offset = self._rng.randbelow(len(block))
                bit = 1 << self._rng.randbelow(8)
                blocks[position] = (
                    block[:offset]
                    + bytes([block[offset] ^ bit])
                    + block[offset + 1 :]
                )
                self._corrupted += 1
                self._corrupted_rounds += 1
        return blocks

    def __getattr__(self, name):
        return getattr(self._inner, name)


class FlakyServer:
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

    def __init__(
        self,
        inner: StorageServer,
        failure_rate: float,
        rng: RandomSource,
        coin_mode: str = "per_slot",
    ) -> None:
        if not 0.0 <= failure_rate <= 1.0:
            raise ValueError(
                f"failure rate must be in [0, 1], got {failure_rate}"
            )
        self._inner = inner
        self._rate = failure_rate
        self._rng = rng
        self._coin_mode = check_coin_mode(coin_mode)
        self._failures = 0
        self._failed_rounds = 0

    _current_query = _INNER_QUERY

    @property
    def failures(self) -> int:
        """Operations that failed."""
        return self._failures

    @property
    def failed_rounds(self) -> int:
        """Batched rounds that failed outright (per-round mode)."""
        return self._failed_rounds

    @property
    def coin_mode(self) -> str:
        """Fault-coin granularity: ``"per_slot"`` or ``"per_round"``."""
        return self._coin_mode

    def fault_counters(self) -> dict[str, int]:
        """Injected-fault totals, merged with any wrapped fault layer."""
        counters = _inner_fault_counters(self._inner)
        counters["failed_operations"] = (
            counters.get("failed_operations", 0) + self._failures
        )
        if self._coin_mode == "per_round":
            counters["failed_rounds"] = (
                counters.get("failed_rounds", 0) + self._failed_rounds
            )
        return counters

    def read(self, index: int) -> bytes:
        """Serve a read or fail."""
        self._maybe_fail("read", index)
        return self._inner.read(index)

    def write(self, index: int, block: bytes) -> None:
        """Serve a write or fail."""
        self._maybe_fail("write", index)
        self._inner.write(index, block)

    def read_many(self, indices) -> list[bytes]:
        """Serve a batched read; coin granularity follows ``coin_mode``.

        Per-slot mode: one failure coin per slot, in order, with a
        mid-batch fault leaving exactly the prefix the per-slot loop
        would have served (inner counters and transcript included) —
        the equivalence the failover layers and property tests rely on.
        Without this override ``__getattr__`` would route ``read_many``
        straight to the inner server and silently skip fault injection.
        Per-round mode: one coin for the whole round; a clean round
        delegates to the inner batched fast path.
        """
        if self._coin_mode == "per_round":
            self._maybe_fail_round("read", len(indices))
            return self._inner.read_many(indices)
        return [self.read(index) for index in indices]

    def write_many(self, items) -> None:
        """Serve a batched write (coin granularity follows ``coin_mode``)."""
        if self._coin_mode == "per_round":
            self._maybe_fail_round("write", len(items))
            self._inner.write_many(items)
            return
        for index, block in items:
            self.write(index, block)

    def exchange(self, query: int, indices, held=None) -> list[bytes]:
        """Serve a write-then-read request or fail.

        Per-round mode: one coin for the request; a clean one goes to the
        inner server whole.  Per-slot mode: the server's own
        :meth:`~repro.storage.server.StorageServer.exchange` over this
        wrapper's entry points, so every slot meets its coin, uploads
        first, and a fault leaves exactly the prefix the per-slot loop
        would have committed — the client re-sends the upload, which is
        idempotent.  Without this override ``__getattr__`` would route
        the request around the fault layer.
        """
        if self._coin_mode == "per_round":
            size = len(indices) + (len(held[1]) if held is not None else 0)
            self._maybe_fail_round("exchange", size)
            return self._inner.exchange(query, indices, held)
        return StorageServer.exchange(self, query, indices, held)

    def _maybe_fail_round(self, operation: str, size: int) -> None:
        if size and self._rng.random() < self._rate:
            self._failed_rounds += 1
            raise ServerFault(
                f"simulated batched {operation} failure ({size} slots)"
            )

    def _maybe_fail(self, operation: str, index: int) -> None:
        if self._rng.random() < self._rate:
            self._failures += 1
            raise ServerFault(f"simulated {operation} failure at slot {index}")

    def __getattr__(self, name):
        return getattr(self._inner, name)


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
