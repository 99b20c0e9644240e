"""The held request: one operation's upload rides in the next one's request.

A client has no use for an upload's reply, so a stateful scheme does not
give its upload a message of its own.  An operation seals its upload
exactly as a two-message operation would — same coins, same slots, same
bytes — and :class:`HeldRequest` *holds* it; the next operation's request
carries it in front of that operation's downloads ("write these slots,
then read those").  The invariant every scheme built on it keeps:

* **One request an operation.**  :meth:`HeldRequest.send` is
  :meth:`~repro.storage.server.StorageServer.exchange`: the held upload
  lands first, under the query that sealed it, then the downloads run,
  inside one backend round bracket — one roundtrip on a
  :class:`~repro.storage.backends.NetworkBackend`, and a slot in both
  comes back fresh.
* **Shared slots.**  An operation that rewrites some of the held slots
  and knows they are the upload's last ``shared`` items may read them
  from the client instead (``send(..., shared)``): they go neither way,
  and stay held, unsent, until the operation commits.  Path ORAM does
  (the top nodes two consecutive paths share); DP-RAM, bucket DP-RAM and
  DP-KVS pass none.
* **One commit point.**  :meth:`HeldRequest.hold` replaces the held
  upload, and it is the last thing an operation does.  An operation whose
  request raises, or that is dropped after its request came back, never
  reaches it: the client is left as an operation never made would leave
  it (the coins stay spent) and what of the upload did not go out stays
  held.  The next request sends it again unless one already landed it;
  a second copy of a half-landed upload is harmless, since nothing else
  writes those slots first.
* **Flush.**  :meth:`HeldRequest.flush` sends a held upload alone, as one
  request; "flush after every call" is the two-message shape, and with
  the one flush that ends a run the stored bytes and coin stream equal
  that shape's at a given seed, and so do the transcript and counters
  less the shared slots' events (none, for the DP schemes).  Where
  messages end, and which slots a Path ORAM request leaves out, follow
  from data-independent public coins, so ε is the two-message scheme's;
  without the trailing flush the view is a prefix of it.
  :meth:`repro.api.protocols.Scheme.flush` flushes every held request
  :func:`scheme_parts` finds.
* **Client storage.**  A held upload is client storage until it lands:
  :attr:`HeldRequest.blocks`.

What a request downloads and what an operation commits are each scheme's
own: :class:`~repro.core.dp_ram.DPRAM`,
:class:`~repro.core.bucket_ram.BucketDPRAM` and
:class:`~repro.baselines.path_oram.PathORAM` say which slots and what
moves once the request is back.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.storage.server import StorageServer


class HeldRequest:
    """A client's requests to one server, with the upload it holds back.

    Args:
        server: the server every request goes to.
    """

    def __init__(self, server: StorageServer) -> None:
        self.server = server
        #: The last committed upload, ``(query, [(slot, block)])``, until a
        #: flush; ``None`` when nothing is held.
        self.held: tuple[int, list[tuple[int, bytes]]] | None = None
        # What of ``held`` no returned request has carried: all of it, or
        # the tail a request left out as ``shared``.
        self._unsent: tuple[int, list[tuple[int, bytes]]] | None = None

    @property
    def blocks(self) -> int:
        """Blocks the held upload keeps on the client until it lands."""
        return len(self._unsent[1]) if self._unsent is not None else 0

    def send(
        self, query: int, slots: Sequence[int], shared: int = 0
    ) -> list[bytes]:
        """One request: the held upload, then a download of ``slots``.

        ``shared`` (at most :attr:`blocks`) is how many of the unsent
        upload's *last* items the operation reads from the client instead
        (they are the tail of :attr:`held`): neither uploaded nor
        downloaded, and the caller leaves their slots out of ``slots``.
        They stay unsent, so they go out in a later request, until the
        operation commits (:meth:`hold`), which must rewrite them.  A
        request with nothing to upload or download is not sent.

        Raises:
            ValueError: if ``shared`` exceeds :attr:`blocks`; nothing is
                sent.
            What :meth:`~repro.storage.server.StorageServer.exchange`
            raises; the held upload is kept, to be sent again.
        """
        upload, kept = self._unsent, None
        if shared:
            held_query, items = upload or (None, ())
            cut = len(items) - shared
            if cut < 0:
                raise ValueError(
                    f"{shared} held blocks shared, {len(items)} unsent"
                )
            upload = (held_query, items[:cut]) if cut else None
            kept = (held_query, items[cut:])
        fetched = (
            self.server.exchange(query, slots, upload)
            if upload is not None or slots else []
        )
        self._unsent = kept
        return fetched

    def hold(self, query: int, items: list[tuple[int, bytes]]) -> None:
        """Commit an operation: ``items``, sealed under ``query``, are held
        for the next request in place of the upload that request carried."""
        self.held = self._unsent = (query, items)

    def flush(self) -> None:
        """Send the held upload on its own (one roundtrip); keeps it if
        the server faults."""
        unsent = self._unsent
        if unsent is not None:
            self.server.exchange(unsent[0], (), unsent)
        self.held = self._unsent = None


def scheme_parts(scheme, _seen: set[int] | None = None) -> Iterator[object]:
    """``scheme`` and every part of it that talks to a server, depth first.

    A part is a nested sub-scheme — anything with a ``servers()`` method,
    alone or in a list or tuple (the bucket RAM inside DP-KVS, the level
    ORAMs of a recursive Path ORAM) — or a :class:`HeldRequest`.  Each is
    yielded once, before its attributes are read.
    """
    seen = set() if _seen is None else _seen
    if id(scheme) in seen or not hasattr(scheme, "__dict__"):
        return
    seen.add(id(scheme))
    yield scheme
    for value in list(vars(scheme).values()):
        for item in value if isinstance(value, (list, tuple)) else (value,):
            if isinstance(item, HeldRequest) or callable(
                getattr(item, "servers", None)
            ):
                yield from scheme_parts(item, seen)
