"""Passive storage servers.

:class:`StorageServer` is the balls-and-bins server of Definition 3.1: an
array of equal-sized blocks supporting only reads (downloads) and writes
(uploads) of single slots.  It counts operations and optionally records the
adversary view into a :class:`~repro.storage.transcript.Transcript`.

:class:`ServerPool` groups several non-colluding servers for the
multi-server DP-IR setting of Appendix C and can materialize the view of an
adversary corrupting a subset of them.
"""

from __future__ import annotations

from typing import Sequence

from repro.storage.backends import (
    BackendFactory,
    InMemoryBackend,
    StorageBackend,
)
from repro.storage.blocks import check_block
from repro.storage.errors import StorageError
from repro.storage.transcript import AccessEvent, AccessKind, Transcript


class StorageServer:
    """A passive server storing ``capacity`` blocks of ``block_size`` bytes.

    Args:
        capacity: number of slots.
        block_size: exact size in bytes of every stored block.  ``None``
            disables size validation (used when slots hold ciphertexts whose
            size is payload + nonce).
        server_id: identifier recorded into transcript events.
        backend: where the slots live; defaults to a fresh
            :class:`~repro.storage.backends.InMemoryBackend`.
    """

    def __init__(
        self,
        capacity: int,
        block_size: int | None = None,
        server_id: int = 0,
        backend: StorageBackend | None = None,
    ) -> None:
        if capacity < 0:
            raise StorageError(f"capacity must be non-negative, got {capacity}")
        if backend is None:
            backend = InMemoryBackend(capacity)
        elif backend.capacity != capacity:
            raise StorageError(
                f"backend holds {backend.capacity} slots, "
                f"server needs {capacity}"
            )
        self._capacity = capacity
        self._block_size = block_size
        self._server_id = server_id
        self._backend = backend
        # A bracket means something only to a backend that prices
        # requests; the base class's no-ops are not worth two calls a round.
        self._brackets = (
            type(backend).begin_round is not StorageBackend.begin_round
        )
        self._reads = 0
        self._writes = 0
        self._transcript: Transcript | None = None
        self._current_query = -1
        self._obs = None

    # -- wiring -----------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Number of slots."""
        return self._capacity

    @property
    def server_id(self) -> int:
        """Identifier used in transcript events."""
        return self._server_id

    @property
    def backend(self) -> StorageBackend:
        """The slot-storage backend behind this server."""
        return self._backend

    @property
    def reads(self) -> int:
        """Total download operations served."""
        return self._reads

    @property
    def writes(self) -> int:
        """Total upload operations served."""
        return self._writes

    @property
    def operations(self) -> int:
        """Total operations (downloads + uploads) served."""
        return self._reads + self._writes

    def reset_counters(self) -> None:
        """Zero the operation counters (the stored data is untouched)."""
        self._reads = 0
        self._writes = 0

    def attach_transcript(self, transcript: Transcript) -> None:
        """Start recording the adversary view into ``transcript``."""
        self._transcript = transcript

    def detach_transcript(self) -> Transcript | None:
        """Stop recording and return the transcript, if any."""
        transcript, self._transcript = self._transcript, None
        return transcript

    def begin_query(self, query: int) -> None:
        """Attribute subsequent accesses to client query ``query``."""
        self._current_query = query

    def attach_observer(self, observer) -> None:
        """Report batched rounds to ``observer`` (``repro.obs``).

        Disabled observers are refused outright so the batched hot
        path keeps paying exactly one ``is not None`` check when
        observability is off.  The contract is structural
        (``tests/unit/test_server.py`` holds the refusal); what an
        *enabled* observer costs is ``obs.enabled_overhead_x`` in
        ``BENCHMARK.json``.
        """
        if observer is not None and getattr(observer, "enabled", True):
            self._obs = observer
        else:
            self._obs = None

    def detach_observer(self):
        """Stop reporting batched rounds; returns the observer, if any."""
        observer, self._obs = self._obs, None
        return observer

    # -- the two balls-and-bins operations --------------------------------

    def read(self, index: int) -> bytes:
        """Download the block at ``index``.

        Raises:
            StorageError: if the slot is out of range or was never written.
        """
        return self._download((index,))[0]

    def write(self, index: int, block: bytes) -> None:
        """Upload ``block`` into slot ``index``.

        Raises:
            StorageError: if the slot is out of range.
            TypeError: if ``block`` is not bytes-like; nothing is stored,
                counted or charged.
            BlockSizeError: if size validation is on and the size mismatches.
        """
        self._upload(((index, block),))

    # -- the batched wire protocol ----------------------------------------

    def read_many(self, indices: Sequence[int]) -> list[bytes]:
        """Download every slot in ``indices`` (in order) as one round.

        Observationally equivalent to ``[self.read(i) for i in indices]``
        — identical counter totals and the identical transcript event
        sequence — and dispatched to the backend as the same single
        :meth:`~repro.storage.backends.StorageBackend.read_slots` call
        each :meth:`read` makes for its one slot.  The one deliberate
        difference: validation failures (out-of-range or never-written
        slots) fail *before* any counter or transcript side effect,
        where the per-slot loop would have committed a prefix.

        Raises:
            StorageError: if any slot is out of range or never written.
        """
        if not indices:
            return []
        blocks = self._download(indices)
        obs = self._obs
        if obs is not None:
            obs.on_batch(self._server_id, "read", len(indices))
        return blocks

    def write_many(self, items: Sequence[tuple[int, bytes]]) -> None:
        """Upload every ``(index, block)`` pair (in order) as one round.

        The batched counterpart of :meth:`write`: the whole batch is
        checked before any slot is stored, counted or charged.

        Raises:
            StorageError: if any slot is out of range.
            TypeError: if any block is not bytes-like.
            BlockSizeError: if size validation is on and any size
                mismatches.
        """
        if not items:
            return
        self._upload(items)
        obs = self._obs
        if obs is not None:
            obs.on_batch(self._server_id, "write", len(items))

    def exchange(
        self,
        query: int,
        indices: Sequence[int],
        held: tuple[int, Sequence[tuple[int, bytes]]] | None = None,
    ) -> list[bytes]:
        """One request: land a held upload, then download ``indices``.

        ``held`` is the ``(query, items)`` upload an earlier operation
        sealed and kept back so it could ride here; the server applies it
        before it reads, so a slot that is in both comes back fresh (a
        DP-RAM's random slots can meet; Path ORAM lists none in both, as
        it reads the slots its path shares with the held write-back from
        the client and leaves them out of both).  Its
        events keep the query number of the operation that produced them
        and the downloads are attributed to ``query``: counters,
        transcript and stored bytes are those of ``write_many(items)``
        (``write`` for a single slot) under ``begin_query(held query)``
        followed by ``read_many(indices)`` under ``begin_query(query)`` —
        which is literally what runs.  The backend sees both inside one
        round bracket: one roundtrip on a
        :class:`~repro.storage.backends.NetworkBackend`, not two.

        A fault wrapper runs this body over its own entry points
        (:mod:`repro.storage.faults`), so every slot meets the coin it
        would have met on its own.

        Raises:
            What :meth:`write_many` and :meth:`read_many` raise.  A request
            that fails half-way may have landed the upload; sending it
            again is harmless (same slots, same ciphertexts).
        """
        if self._brackets:
            self._backend.begin_round()
        try:
            if held is not None:
                self._current_query, items = held
                if len(items) == 1:
                    # DP-RAM's upload enters by ``write``, which no observer
                    # reports: as a batch of one it would add a round to
                    # every traced DP-RAM request.
                    index, block = items[0]
                    self.write(index, block)
                else:
                    self.write_many(items)
            self._current_query = query
            return self.read_many(indices)
        finally:
            if self._brackets:
                self._backend.end_round()

    # -- setup-time bulk load (not part of the adversary view) ------------

    def load(self, blocks: Sequence[bytes]) -> None:
        """Install the initial database without recording accesses.

        The initialization of both IR and RAM is public (the adversary sees
        the initial database anyway), so bulk-loading is not part of the
        per-query view the DP definition constrains.
        """
        if len(blocks) != self._capacity:
            raise StorageError(
                f"expected {self._capacity} blocks, got {len(blocks)}"
            )
        if self._block_size is not None:
            for block in blocks:
                check_block(block, self._block_size)
        self._backend.load(blocks)

    def peek(self, index: int) -> bytes | None:
        """Inspect a slot without counting an operation (test helper)."""
        if not 0 <= index < self._capacity:
            raise StorageError(_out_of_range(index, self._capacity))
        return self._backend.peek_slot(index)

    # -- internals ---------------------------------------------------------

    def _download(self, indices: Sequence[int]) -> list[bytes]:
        """Check, read, count and record a non-empty download."""
        capacity = self._capacity
        # C-speed range check over the whole batch; only a failing batch
        # pays a Python loop to name the offending slot.
        if min(indices) < 0 or max(indices) >= capacity:
            for index in indices:
                if not 0 <= index < capacity:
                    raise StorageError(_out_of_range(index, capacity))
        blocks = self._backend.read_slots(indices)
        # Backends that track presence report 0 missing slots once the
        # database is loaded, so the steady-state round skips the scan.
        if self._backend.missing_slots != 0 and None in blocks:
            index = indices[blocks.index(None)]
            raise StorageError(f"slot {index} was never written")
        self._reads += len(indices)
        if self._transcript is not None:
            self._record(AccessKind.DOWNLOAD, indices)
        return blocks

    def _upload(self, items: Sequence[tuple[int, bytes]]) -> None:
        """Check the whole upload, then store, count and record it."""
        capacity = self._capacity
        for index, block in items:
            if not 0 <= index < capacity:
                raise StorageError(_out_of_range(index, capacity))
            # An identity test per item: on 68 slots it beats unzipping
            # the batch for a C-level ``set(map(type, ...))`` pass.
            if type(block) is not bytes and not isinstance(
                block, (bytes, bytearray, memoryview)
            ):
                raise TypeError(_not_a_block(index, block))
        if self._block_size is not None:
            for _, block in items:
                check_block(block, self._block_size)
        self._backend.write_slots(items)
        self._writes += len(items)
        if self._transcript is not None:
            self._record(AccessKind.UPLOAD, [index for index, _ in items])

    def _record(self, kind: AccessKind, indices: Sequence[int]) -> None:
        server_id = self._server_id
        query = self._current_query
        self._transcript.extend(
            AccessEvent(kind=kind, index=index, server=server_id, query=query)
            for index in indices
        )


def _out_of_range(index: int, capacity: int) -> str:
    return f"slot {index} out of range for capacity {capacity}"


def _not_a_block(index: int, block: object) -> str:
    # A backend calls ``bytes()`` on what it stores, which turns an
    # ``int`` into that many NULs and raises on ``None``.
    return (
        f"slot {index} needs a bytes-like block, "
        f"got {type(block).__name__}"
    )


class ServerPool:
    """A group of non-colluding servers holding replicas of the database.

    Appendix C models an adversary that corrupts a ``t`` fraction of ``D``
    servers and sees only their transcripts; :meth:`corrupted_view` filters
    a combined transcript down to that adversary's view.
    """

    def __init__(
        self,
        server_count: int,
        capacity: int,
        block_size: int | None = None,
        backend_factory: BackendFactory | None = None,
    ) -> None:
        if server_count <= 0:
            raise StorageError(
                f"server count must be positive, got {server_count}"
            )
        self._servers = [
            StorageServer(
                capacity,
                block_size=block_size,
                server_id=i,
                backend=backend_factory(capacity) if backend_factory else None,
            )
            for i in range(server_count)
        ]

    def __len__(self) -> int:
        return len(self._servers)

    def __getitem__(self, server_id: int) -> StorageServer:
        return self._servers[server_id]

    def __iter__(self):
        return iter(self._servers)

    def load_replicas(self, blocks: Sequence[bytes]) -> None:
        """Install the same database on every server."""
        for server in self._servers:
            server.load(blocks)

    def attach_transcript(self, transcript: Transcript) -> None:
        """Record all servers' accesses into one combined transcript."""
        for server in self._servers:
            server.attach_transcript(transcript)

    def begin_query(self, query: int) -> None:
        """Attribute subsequent accesses on all servers to ``query``."""
        for server in self._servers:
            server.begin_query(query)

    def total_operations(self) -> int:
        """Sum of operations over all servers."""
        return sum(server.operations for server in self._servers)

    def request_all(self, operation, executor=None) -> list:
        """Apply ``operation(server)`` to every server, in server order.

        One leg per server through ``executor`` (:mod:`repro.parallel`;
        serial by default).  Results come back in server order as
        :class:`~repro.parallel.executor.TaskResult` entries, so a
        caller can fail over per-server (one faulted replica does not
        poison its siblings' answers).
        """
        from functools import partial

        from repro.parallel.executor import resolve_executor

        return resolve_executor(executor).fan_out(
            [partial(operation, server) for server in self._servers]
        )

    @staticmethod
    def corrupted_view(transcript: Transcript, corrupted: set[int]) -> Transcript:
        """Return the sub-transcript visible to servers in ``corrupted``."""
        view = Transcript()
        view.extend(e for e in transcript if e.server in corrupted)
        return view
