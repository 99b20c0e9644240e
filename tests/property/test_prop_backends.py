"""Backend conformance: a priced link stores what the list stores.

:class:`~repro.storage.backends.NetworkBackend` adds link time and
roundtrips to the slot calls it forwards; none of that may be
observable through the :class:`~repro.storage.backends.StorageBackend`
contract.  Randomized read / write / load / peek interleavings —
never-written slots, empty and mixed-size blocks, batched rounds and
request brackets — must read the same on a link as on a bare
:class:`~repro.storage.backends.InMemoryBackend`, the list's
``missing_slots`` must stay exact, and the link must charge one
roundtrip per request.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.storage.backends import InMemoryBackend, NetworkBackend
from repro.storage.network import WAN

CAPACITY = 8

slots = st.integers(min_value=0, max_value=CAPACITY - 1)
blocks = st.one_of(
    st.binary(min_size=16, max_size=16),
    st.binary(min_size=0, max_size=4),
    st.binary(min_size=17, max_size=40),
)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("read"), slots),
        st.tuples(st.just("write"), st.tuples(slots, blocks)),
        st.tuples(st.just("read_slots"), st.lists(slots, max_size=CAPACITY)),
        st.tuples(
            st.just("write_slots"),
            st.lists(st.tuples(slots, blocks), max_size=CAPACITY),
        ),
        st.tuples(
            st.just("load"),
            st.lists(blocks, min_size=CAPACITY, max_size=CAPACITY),
        ),
        st.tuples(st.just("peek"), slots),
        st.tuples(st.just("begin_round"), st.none()),
        st.tuples(st.just("end_round"), st.none()),
    ),
    max_size=30,
)


def _apply(backend, kind, argument):
    """Run one operation; return what it reads (``None`` for a write)."""
    if kind in ("begin_round", "end_round"):
        return getattr(backend, kind)()
    method = {"read": "read_slot", "peek": "peek_slot"}.get(kind, kind)
    if kind == "write":
        return backend.write_slot(*argument)
    return getattr(backend, method)(argument)


class TestLinkConformance:
    @given(ops=operations)
    @settings(max_examples=120)
    def test_interleavings_match_in_memory_backend(self, ops):
        link = NetworkBackend(CAPACITY, WAN)
        reference = InMemoryBackend(CAPACITY)
        for kind, argument in ops:
            assert _apply(link, kind, argument) == _apply(
                reference, kind, argument
            )
        link.end_round()
        # Final sweep: every slot agrees, absent slots included.
        indices = list(range(CAPACITY))
        assert link.read_slots(indices) == reference.read_slots(indices)

    @given(ops=operations)
    @settings(max_examples=120)
    def test_missing_slots_counts_the_never_written_slots(self, ops):
        backend = InMemoryBackend(CAPACITY)
        for kind, argument in ops:
            _apply(backend, kind, argument)
            absent = sum(
                backend.peek_slot(index) is None for index in range(CAPACITY)
            )
            assert backend.missing_slots == absent

    @given(ops=operations)
    @settings(max_examples=120)
    def test_one_roundtrip_per_request(self, ops):
        # Outside a bracket every slot call that moves a slot is a
        # request; a bracket with any slot call in it is one.  Each
        # request pays one RTT plus the transfer of all its bytes.
        link = NetworkBackend(CAPACITY, WAN)
        requests, link_ms, bracket = 0, 0.0, None
        for kind, argument in ops:
            moved = None
            if kind == "begin_round":
                bracket = []
            elif kind == "end_round":
                if bracket:
                    requests += 1
                    link_ms += WAN.rtt_ms + WAN.transfer_ms(sum(bracket))
                bracket = None
            elif kind == "read":
                moved = len(link.peek_slot(argument) or b"")
            elif kind == "write":
                moved = len(argument[1])
            elif kind == "read_slots" and argument:
                moved = sum(len(link.peek_slot(i) or b"") for i in argument)
            elif kind == "write_slots" and argument:
                moved = sum(len(block) for _, block in argument)
            _apply(link, kind, argument)
            if moved is None:
                continue
            if bracket is not None:
                bracket.append(moved)
            else:
                requests += 1
                link_ms += WAN.rtt_ms + WAN.transfer_ms(moved)
        assert link.roundtrips == requests
        assert link.simulated_ms == pytest.approx(link_ms)
