"""Adversary views (transcripts).

Definition 2.1 quantifies over subsets of the *views of the adversary*: for
a passive server the view is the ordered sequence of slot indices touched by
downloads and uploads (ciphertext contents are opaque and, by the IND-CPA
argument in Section 6.1, can be dropped from the analysis).

:class:`Transcript` records that sequence.  For DP-RAM the privacy proof
works with the per-query pair ``(d_j, o_j)`` — the download-phase index and
the overwrite-phase index — so the class offers a :meth:`dp_ram_pairs`
projection used by the exact likelihood calculators in
:mod:`repro.analysis.dp_ram_exact`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator


class AccessKind(enum.Enum):
    """The two balls-and-bins interactions of Definition 3.1."""

    DOWNLOAD = "download"
    UPLOAD = "upload"


@dataclass(frozen=True, slots=True)
class AccessEvent:
    """One touched server slot.

    Allocated once per slot access on the hot path, so the class is
    slotted: batched ``read_many`` appends create K of these per query
    and the ``__dict__`` per instance would dominate the allocation.

    Attributes:
        kind: download or upload.
        index: the server slot that was touched.
        server: which server was touched (0 for single-server schemes).
        query: ordinal of the client query that caused the access, or -1
            for accesses during setup.
    """

    kind: AccessKind
    index: int
    server: int = 0
    query: int = -1


@dataclass(slots=True)
class Transcript:
    """Ordered adversary view of a run.

    The transcript is hashable via :meth:`signature`, which the Monte-Carlo
    privacy auditors use to build empirical distributions over views.
    """

    events: list[AccessEvent] = field(default_factory=list)

    def append(self, event: AccessEvent) -> None:
        """Record one access."""
        self.events.append(event)

    def extend(self, events: Iterable[AccessEvent]) -> None:
        """Record several accesses in order."""
        self.events.extend(events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[AccessEvent]:
        return iter(self.events)

    def downloads(self) -> list[AccessEvent]:
        """All download events, in order."""
        return [e for e in self.events if e.kind is AccessKind.DOWNLOAD]

    def uploads(self) -> list[AccessEvent]:
        """All upload events, in order."""
        return [e for e in self.events if e.kind is AccessKind.UPLOAD]

    def touched_indices(self, server: int = 0) -> list[int]:
        """Slot indices touched on ``server``, in order, with duplicates."""
        return [e.index for e in self.events if e.server == server]

    def for_query(self, query: int) -> list[AccessEvent]:
        """All events attributed to client query number ``query``."""
        return [e for e in self.events if e.query == query]

    def query_count(self) -> int:
        """Number of distinct client queries that produced events."""
        queries = {e.query for e in self.events if e.query >= 0}
        return len(queries)

    def signature(self) -> tuple:
        """Hashable canonical form of the whole view."""
        return tuple((e.kind.value, e.server, e.index, e.query) for e in self.events)

    def dp_ram_pairs(self) -> list[tuple[int, int]]:
        """Project to the ``(d_j, o_j)`` pairs of the DP-RAM analysis.

        A DP-RAM query downloads ``d_j`` and ``o_j`` and uploads ``o_j``,
        a slot never listed twice in the download round: three events
        when ``d_j != o_j``, and the two events ``(D i, U i)`` — read as
        ``(i, i)`` — when they coincide.  The paper-shaped triple
        ``(D i, D i, U i)`` reads the same way, so the projection is
        injective on either form.  This method recovers ``(d_j, o_j)``
        per query and validates that shape.

        Raises:
            ValueError: if the transcript does not look like a DP-RAM run.
        """
        pairs: list[tuple[int, int]] = []
        by_query: dict[int, list[AccessEvent]] = {}
        for event in self.events:
            if event.query < 0:
                continue
            by_query.setdefault(event.query, []).append(event)
        for query in sorted(by_query):
            events = by_query[query]
            if len(events) not in (2, 3):
                raise ValueError(
                    f"query {query} has {len(events)} events, expected 2 or 3"
                )
            *downloads, upload = events
            if (
                any(e.kind is not AccessKind.DOWNLOAD for e in downloads)
                or upload.kind is not AccessKind.UPLOAD
                or downloads[-1].index != upload.index
            ):
                raise ValueError(f"query {query} does not match DP-RAM shape")
            pairs.append((downloads[0].index, upload.index))
        return pairs
