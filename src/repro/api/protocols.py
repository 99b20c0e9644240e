"""Typed scheme protocols: the one surface every consumer talks to.

Historically the harness, CLI, examples and benchmarks each duck-typed
the schemes (``hasattr(scheme, "server")``, ``getattr(scheme, "pool")``,
…).  This module replaces that with three abstract base classes — one per
paper primitive — plus a shared *scheme info* surface:

* :class:`Scheme` — ``n``, ``block_size``, :meth:`Scheme.servers`,
  operation counters, transcript attach/detach, an optional client
  storage figure, and :meth:`Scheme.datasheet`, what the scheme declares
  it costs and guarantees.  Metrics code never probes attributes again.
* :class:`PrivateIR` — ``query`` / ``query_many`` (Section 2.1's IR).
* :class:`PrivateRAM` — ``read``/``write`` and their ``*_many`` forms.
* :class:`PrivateKVS` — ``get``/``put``/``delete`` and ``get_many``.

The ``*_many`` entry points default to per-operation loops so every
scheme supports batched drivers; constructions that can genuinely
amortize (``BatchDPIR`` fetches the union of pad sets,
``MultiServerDPIR`` coalesces per-replica reads) override them.

Every entry point calls an argument gate (:func:`check_index`,
:func:`check_indices`, :func:`check_value`, :meth:`PrivateKVS.canonical_key`)
before it draws a coin, calls the PRF or touches a server.
"""

from __future__ import annotations

import abc
import operator
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.storage.errors import BlockSizeError, RetrievalError
from repro.storage.held import HeldRequest, scheme_parts
from repro.storage.server import StorageServer
from repro.storage.transcript import Transcript

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.datasheet import PrivacyDatasheet


def check_index(index: int, n: int) -> int:
    """``index`` as an ``int`` in ``range(n)``: ``TypeError`` if
    :func:`operator.index` refuses it (a float, a string, ``None``),
    :class:`~repro.storage.errors.RetrievalError` if it is out of range."""
    index = operator.index(index)
    if not 0 <= index < n:
        raise RetrievalError(f"index {index} out of range for n={n}")
    return index


def check_indices(indices: Iterable[int], n: int) -> list[int]:
    """A whole batch through :func:`check_index`, before its first operation."""
    return [check_index(index, n) for index in indices]


def check_value(value: bytes, size: int, *, exact: bool = True) -> bytes:
    """``value`` as ``bytes`` of ``size`` bytes (at most ``size`` unless
    ``exact``): ``TypeError`` if it is not bytes-like — nothing else is
    converted, as ``bytes(64)`` is 64 zero bytes — and
    :class:`~repro.storage.errors.BlockSizeError` if its length is wrong.
    Exact ``bytes`` pass without a copy."""
    if type(value) is not bytes:
        value = bytes(memoryview(value))
    if len(value) != size and (exact or len(value) > size):
        raise BlockSizeError(f"a {len(value)}-byte value for a {size}-byte field")
    return value


class Scheme(abc.ABC):
    """Shared introspection surface of every scheme in the library."""

    #: Which primitive this scheme implements: ``"ir"``, ``"ram"`` or
    #: ``"kvs"``.  Set by the protocol subclasses.
    kind: str = "scheme"

    @property
    @abc.abstractmethod
    def n(self) -> int:
        """Database size (IR/RAM) or key capacity (KVS)."""

    @property
    @abc.abstractmethod
    def block_size(self) -> int:
        """Bytes per logical block the scheme stores or serves."""

    @abc.abstractmethod
    def servers(self) -> tuple[StorageServer, ...]:
        """Every passive server the scheme talks to.

        Single-server schemes return a 1-tuple; replicated, sharded and
        recursive constructions return one entry per server.  An empty
        tuple is legal (a scheme whose servers are not yet provisioned)
        and simply counts zero operations.
        """

    @abc.abstractmethod
    def datasheet(self) -> PrivacyDatasheet:
        """What this configured scheme declares, from its own parameters:
        ε, δ, α, blocks and roundtrips per operation, client and server
        storage.  Nothing is measured or sampled; the conformance tests
        hold the server storage, roundtrips and blocks to what a run
        moves."""

    def server_counters(self) -> tuple[int, int]:
        """Total ``(reads, writes)`` across :meth:`servers`."""
        reads = 0
        writes = 0
        for server in self.servers():
            reads += server.reads
            writes += server.writes
        return reads, writes

    def server_operations(self) -> int:
        """Total operations (downloads + uploads) across :meth:`servers`."""
        reads, writes = self.server_counters()
        return reads + writes

    def wall_operations(self) -> float:
        """Overlap-accounted operation units consumed so far.

        A single-worker scheme performs its server operations one after
        another, so the default equals :meth:`server_operations`.
        Deployments that fan independent legs out concurrently (the
        cluster schemes under a parallel executor) override this with
        their per-stage max-over-legs accounting.  Both are counts:
        :class:`~repro.simulation.metrics.CostMeter` prices a delta of
        :meth:`server_operations` as the serial time and a delta of this
        as the overlapped wall-clock.
        """
        return float(self.server_operations())

    def attach_transcript(self, transcript: Transcript) -> None:
        """Record the adversary view of subsequent queries.

        All servers append into the same transcript, matching how the
        privacy auditors consume multi-server views.
        """
        for server in self.servers():
            server.attach_transcript(transcript)

    def detach_transcript(self) -> Transcript | None:
        """Stop recording and return the transcript, if any was attached."""
        detached: Transcript | None = None
        for server in self.servers():
            transcript = server.detach_transcript()
            if detached is None:
                detached = transcript
        return detached

    def flush(self) -> None:
        """Send whatever the client is holding back for its next request.

        DP-RAM, DP-KVS and the Path ORAM schemes keep an operation's
        sealed upload on the client so it can ride in the next
        operation's request (:mod:`repro.storage.held`); this sends every
        held upload the scheme's parts hold
        (:func:`~repro.storage.held.scheme_parts`, the data level of a
        recursive ORAM first), each on its own.  Call it where a run ends
        or the servers are inspected: afterwards stored bytes, counters
        and transcript are complete.  A scheme that holds nothing back
        sends nothing.
        """
        for part in scheme_parts(self):
            if isinstance(part, HeldRequest):
                part.flush()

    @property
    def client_peak_blocks(self) -> int | None:
        """Peak client storage in blocks; ``None`` for stateless clients."""
        return None

    def deployment(self) -> dict[str, Any] | None:
        """The deployment section of a run record
        (:meth:`~repro.simulation.metrics.RunMetrics.to_dict`): ``None``
        for a single node; a cluster's shard layout, load and budget."""
        return None


class PrivateIR(Scheme):
    """Read-only retrieval with a data-independent error event.

    A non-integer index raises ``TypeError`` and one outside ``range(n)``
    :class:`~repro.storage.errors.RetrievalError`; a batch is refused
    whole.  A refused call draws no coin, sends nothing, counts nothing.
    """

    kind = "ir"

    @abc.abstractmethod
    def query(self, index: int) -> bytes | None:
        """Retrieve block ``index``; ``None`` on the scheme's error event."""

    def query_many(self, indices: Sequence[int]) -> list[bytes | None]:
        """Answer ``indices`` in order; default is one query per index.

        Schemes that can amortize (shared pad sets, coalesced reads)
        override this with a genuinely batched implementation.
        """
        indices = check_indices(indices, self.n)
        return [self.query(index) for index in indices]


class PrivateRAM(Scheme):
    """Read/write access to ``n`` fixed-size records.

    Indices are refused as :class:`PrivateIR` refuses them; a value that
    is not bytes-like raises ``TypeError``, and one that is not
    :attr:`block_size` bytes :class:`~repro.storage.errors.BlockSizeError`
    (the cipher hides all but length, so an odd-sized upload would show
    which upload was a write).  Nothing of a refused call reaches a server.
    """

    kind = "ram"

    #: Whether :meth:`write` is supported; read-only variants set this to
    #: ``False`` and raise on writes.
    writable: bool = True

    @abc.abstractmethod
    def read(self, index: int) -> bytes:
        """Retrieve the current version of record ``index``."""

    @abc.abstractmethod
    def write(self, index: int, value: bytes) -> None:
        """Overwrite record ``index`` with ``value``."""

    def read_many(self, indices: Sequence[int]) -> list[bytes]:
        """Read ``indices`` in order; default is one query per index."""
        indices = check_indices(indices, self.n)
        return [self.read(index) for index in indices]

    def write_many(self, items: Iterable[tuple[int, bytes]]) -> None:
        """Apply ``(index, value)`` overwrites in order."""
        n, size = self.n, self.block_size
        items = [
            (check_index(index, n), check_value(value, size))
            for index, value in items
        ]
        for index, value in items:
            self.write(index, value)


class PrivateKVS(Scheme):
    """Key-value storage over a large key universe.

    Values are exact: ``get`` returns precisely the bytes that were
    ``put``, with any fixed-size storage padding stripped by the scheme
    itself (each scheme declares its :attr:`value_size` budget).

    :meth:`canonical_key` refuses a key that is not bytes-like, or that
    the store cannot hold, and a value longer than :attr:`value_size`
    raises :class:`~repro.storage.errors.BlockSizeError`; a batch is
    refused whole.  A refused call calls no PRF and sends nothing.
    """

    kind = "kvs"

    @property
    @abc.abstractmethod
    def value_size(self) -> int:
        """Maximum value length in bytes accepted by :meth:`put`."""

    @abc.abstractmethod
    def get(self, key: bytes) -> bytes | None:
        """Retrieve the exact value for ``key``; ``None`` if absent (⊥)."""

    @abc.abstractmethod
    def put(self, key: bytes, value: bytes) -> None:
        """Insert or update ``key`` with ``value``."""

    @abc.abstractmethod
    def delete(self, key: bytes) -> bool:
        """Remove ``key`` if present; returns whether it existed."""

    def get_many(self, keys: Sequence[bytes]) -> list[bytes | None]:
        """Retrieve ``keys`` in order; default is one query per key."""
        keys = [self.canonical_key(key) for key in keys]
        return [self.get(key) for key in keys]

    def canonical_key(self, key: bytes) -> bytes:
        """The form of ``key`` this store compares keys in.

        Two user keys name one entry exactly when their canonical forms
        are equal, and the canonical form is itself a spelling of the key.
        The default is the key as given; a scheme that zero-pads keys into
        a fixed-size field returns the key less its trailing NULs, and
        raises what :meth:`put` would for a key it cannot hold.  A front
        end that routes or counts keys (the cluster) does so on this form,
        so it agrees with the store behind it.  A key that is not
        bytes-like (a ``str``, an ``int``, ``None``) raises ``TypeError``.
        """
        return bytes(memoryview(key))
