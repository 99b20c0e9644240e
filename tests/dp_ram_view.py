"""The ``(d_j, o_j)`` pairs a DP-RAM's server saw, read back for tests.

A :class:`~repro.core.dp_ram.DPRAM` keeps no history: the pair per query
that Theorem 6.1's proof analyses is the server's view.  :func:`watch`
attaches a :class:`~repro.storage.transcript.Transcript` to the scheme's
server, and :func:`seen_pairs` projects it through
:meth:`~repro.storage.transcript.Transcript.dp_ram_pairs`, which also
checks each query's shape.  :func:`record_plans` is the client's side of
the same pairs, for the tests that hold one against the other.

A :class:`~repro.core.bucket_ram.BucketDPRAM` (and the DP-KVS on top of
it) keeps no history either, and its bucket pairs cannot be read off the
node-level transcript: when a batch's buckets share tree nodes, the
transcript no longer says which bucket a node was fetched for.
:func:`record_bucket_pairs` records them where the client commits them.
"""

from repro.storage.transcript import AccessEvent, AccessKind, Transcript


def watch(ram) -> Transcript:
    """Attach a fresh transcript to ``ram``'s server and return it."""
    log = Transcript()
    ram.attach_transcript(log)
    return log


def seen_pairs(log: Transcript, ram, faulted=()) -> list[tuple[int, int]]:
    """``(d_j, o_j)`` of every query whose downloads ``log`` saw.

    Three things the server has not seen as one clean upload a query are
    settled first:

    * the last query's upload is still held (``ram._link.held``) until the
      next request or a flush: it is added as if it had landed;
    * a read-only query uploads nothing: its ``o_j`` is its last download;
    * a request that raised leaves the events it got through — a landed
      upload, a prefix of its downloads — under the query number its
      retry reuses, and the retry sends that upload again.  ``faulted``
      lists those requests' event positions (a ``range`` each: the
      events appended by a call that raised), and they are left out.

    A query whose downloads came before ``log`` was attached is skipped.
    """
    dropped = {position for span in faulted for position in span}
    kept = [
        event for position, event in enumerate(log)
        if position not in dropped
    ]
    last_download = {
        event.query: event.index
        for event in kept if event.kind is AccessKind.DOWNLOAD
    }
    view = Transcript(
        [event for event in kept if event.query in last_download]
    )
    if not ram.writable:
        uploads = last_download.items()
    elif ram._link.held is not None:
        query, [(slot, _)] = ram._link.held
        uploads = [(query, slot)] if query in last_download else []
    else:
        uploads = []
    view.extend(
        AccessEvent(AccessKind.UPLOAD, slot, query=query)
        for query, slot in uploads
    )
    return view.dp_ram_pairs()


def record_plans(ram) -> list[tuple[int, int]]:
    """The ``(d_j, o_j)`` of every query ``ram`` plans from now on, as
    ``DPRAM._plan`` returns them — a query that faults included."""
    planned = []
    plan = ram._plan

    def recording(index):
        coins = plan(index)
        planned.append((coins[1], coins[3]))
        return coins

    ram._plan = recording
    return planned


def record_bucket_pairs(ram) -> list[tuple[int, int]]:
    """The bucket ``(d_j, o_j)`` of every query ``ram`` commits from now on.

    ``ram`` is a :class:`~repro.core.bucket_ram.BucketDPRAM` (a DP-KVS's
    is ``store._ram``).  Its ``finish_query`` is wrapped on the instance,
    which ``batch`` reaches through ``self``; a stage's pairs are appended
    once the call returns, so a refused or faulted batch leaves none.
    """
    pairs = []
    finish = ram.finish_query

    def recording(stage, *args, **kwargs):
        finish(stage, *args, **kwargs)
        pairs.extend(
            (plan.download_bucket, plan.overwrite_bucket) for plan in stage.plans
        )

    ram.finish_query = recording
    return pairs
