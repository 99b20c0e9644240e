"""Unit tests for the batched fault model (one coin per round)."""

import hashlib
import inspect

import pytest

from repro.crypto.rng import SeededRandomSource
from repro.storage.backends import InMemoryBackend, NetworkBackend
from repro.storage.blocks import integer_database
from repro.storage.faults import (
    CorruptingServer,
    FlakyServer,
    ServerFault,
)
from repro.storage.network import LAN
from repro.storage.server import StorageServer
from repro.storage.transcript import Transcript


def _server(n=32):
    server = StorageServer(n)
    for index, block in enumerate(integer_database(n)):
        server.write(index, block)
    return server


class TestCoinModeValidation:
    @pytest.mark.parametrize("cls", [FlakyServer, CorruptingServer])
    def test_unknown_mode_rejected(self, cls):
        with pytest.raises(ValueError, match="coin mode"):
            cls(_server(), 0.1, SeededRandomSource(1), coin_mode="per_rpc")


class TestFlakyPerRound:
    def test_one_coin_per_round_not_per_slot(self):
        # rate=1.0: per-round mode fails every round exactly once,
        # so failed_rounds counts rounds, not slots.
        flaky = FlakyServer(_server(), 1.0, SeededRandomSource(2),
                            coin_mode="per_round")
        for _ in range(5):
            with pytest.raises(ServerFault):
                flaky.read_many([0, 1, 2, 3])
        assert flaky.failed_rounds == 5

    def test_clean_round_rides_the_inner_fast_path(self):
        flaky = FlakyServer(_server(), 0.0, SeededRandomSource(3),
                            coin_mode="per_round")
        blocks = flaky.read_many([0, 1, 2])
        assert len(blocks) == 3
        assert flaky.failed_rounds == 0

    def test_counters_distinguish_the_two_modes(self):
        per_slot = FlakyServer(_server(), 0.0, SeededRandomSource(4))
        per_round = FlakyServer(_server(), 0.0, SeededRandomSource(4),
                                coin_mode="per_round")
        assert "failed_rounds" not in per_slot.fault_counters()
        assert "failed_rounds" in per_round.fault_counters()
        assert "failed_operations" in per_slot.fault_counters()


class TestCorruptingPerRound:
    def test_corrupts_exactly_one_slot_per_bad_round(self):
        server = _server()
        clean = server.read_many(list(range(8)))
        corrupting = CorruptingServer(server, 1.0, SeededRandomSource(5),
                                      coin_mode="per_round")
        blocks = corrupting.read_many(list(range(8)))
        differing = sum(1 for a, b in zip(clean, blocks) if a != b)
        assert differing == 1
        assert corrupting.corrupted_rounds == 1
        assert corrupting.corrupted_reads == 1

    def test_clean_round_is_untouched(self):
        server = _server()
        corrupting = CorruptingServer(server, 0.0, SeededRandomSource(6),
                                      coin_mode="per_round")
        assert corrupting.read_many([0, 1]) == server.read_many([0, 1])
        assert corrupting.corrupted_rounds == 0

    def test_counters_distinguish_the_two_modes(self):
        per_slot = CorruptingServer(_server(), 0.0, SeededRandomSource(7))
        per_round = CorruptingServer(_server(), 0.0, SeededRandomSource(7),
                                     coin_mode="per_round")
        assert "corrupted_rounds" not in per_slot.fault_counters()
        assert "corrupted_rounds" in per_round.fault_counters()


class TestPerSlotDefaultUnchanged:
    def test_default_mode_is_per_slot(self):
        flaky = FlakyServer(_server(), 0.5, SeededRandomSource(8))
        assert flaky.coin_mode == "per_slot"
        corrupting = CorruptingServer(_server(), 0.5, SeededRandomSource(8))
        assert corrupting.coin_mode == "per_slot"


# What StorageServer offers besides moving slots for a client.
_WIRING = {
    "reset_counters", "attach_transcript", "detach_transcript", "begin_query",
    "attach_observer", "detach_observer", "load", "peek",
}


class TestNoRoundGoesAroundTheWrappers:
    # Both wrappers forward unknown names to the inner server, so a round
    # entry point they do not define themselves skips fault injection in
    # silence.  A new public method on StorageServer lands here: it is
    # either wiring (say so above) or both wrappers need it.

    def test_every_round_entry_point_is_defined_on_the_wrapper_itself(self):
        rounds = {
            name
            for name, member in vars(StorageServer).items()
            if inspect.isfunction(member) and not name.startswith("_")
        } - _WIRING
        assert rounds == {"read", "write", "read_many", "write_many", "exchange"}
        assert rounds <= _defined_on(FlakyServer)
        read_side = rounds - {"write", "write_many"}
        assert read_side <= _defined_on(CorruptingServer)


def _defined_on(cls):
    # A name the wrapper or a base of it defines is never looked up by
    # ``__getattr__``; ``object`` defines no round.
    return {
        name
        for klass in cls.__mro__ if klass is not object
        for name in vars(klass)
    }


class _Coins:
    """``random()`` that comes up a fault on the listed calls only."""

    def __init__(self, *faults):
        self.calls = 0
        self._faults = faults

    def random(self):
        self.calls += 1
        return 0.0 if self.calls in self._faults else 1.0

    def randbelow(self, bound):
        return 0


_HELD = (6, [(0, b"A" * 8), (1, b"B" * 8), (2, b"C" * 8)])


class TestExchangeUnderFaults:
    def test_flaky_per_round_flips_one_coin_for_the_request(self):
        inner, coins = _server(), _Coins(1)
        flaky = FlakyServer(inner, 0.5, coins, coin_mode="per_round")
        before = inner.operations
        with pytest.raises(ServerFault):
            flaky.exchange(7, [3, 4], _HELD)
        assert (coins.calls, flaky.failed_rounds) == (1, 1)
        assert inner.operations == before  # nothing landed, nothing read
        assert flaky.exchange(7, [0, 4], _HELD)[0] == b"A" * 8
        assert coins.calls == 2
        assert inner.operations == before + 5

    def test_flaky_per_slot_commits_the_prefix_uploads_first(self):
        inner, coins = _server(), _Coins(3)
        view = Transcript()
        inner.attach_transcript(view)
        flaky = FlakyServer(inner, 0.5, coins)
        with pytest.raises(ServerFault):
            flaky.exchange(7, [3, 4], _HELD)
        # Two uploads landed, under the query that sealed them; the third
        # faulted and no slot was read.
        assert view.signature() == (("upload", 0, 0, 6), ("upload", 0, 1, 6))
        assert inner.peek(2) == integer_database(32)[2]
        # Sending the request again is harmless.
        assert flaky.exchange(7, [2, 4], _HELD) == [
            b"C" * 8, integer_database(32)[4]
        ]
        assert [event[3] for event in view.signature()] == [6] * 5 + [7] * 2
        assert flaky.failures == 1

    def test_flaky_per_slot_request_is_still_one_roundtrip(self):
        backend = NetworkBackend(32, LAN)
        inner = StorageServer(32, backend=backend)
        inner.load(integer_database(32))
        flaky = FlakyServer(inner, 0.0, SeededRandomSource(9))
        flaky.exchange(1, [3, 4], _HELD)
        assert backend.roundtrips == 1

    @pytest.mark.parametrize("coin_mode", ["per_round", "per_slot"])
    def test_corrupting_server_corrupts_what_is_read_not_what_is_held(
        self, coin_mode
    ):
        inner = _server()
        corrupting = CorruptingServer(
            inner, 1.0, SeededRandomSource(5), coin_mode=coin_mode
        )
        blocks = corrupting.exchange(7, [0, 1, 2], _HELD)
        clean = [block for _, block in _HELD[1]]
        assert [inner.peek(slot) for slot in range(3)] == clean
        differing = sum(a != b for a, b in zip(clean, blocks))
        assert differing == (1 if coin_mode == "per_round" else 3)
        assert corrupting.corrupted_reads == differing
        assert (inner.reads, inner.writes) == (3, 32 + 3)


# -- the pin table -----------------------------------------------------------
#
# A fixed script through each wrapper stack, coin mode and backend, hashed:
# what every call returned or raised, the inner counters, fault counters
# and link cost after it, then the transcript and the next coin of every
# fault layer.  A refactor of the server or the wrappers that moves a coin,
# a counter, an event or a charged byte moves a digest.

_PIN_N = 16


def _block(tag):
    return bytes([tag % 256]) * 8


def _pin_script(p):
    def slot(offset):
        return (p + offset) % _PIN_N

    return [
        ("read", (slot(0),)),
        ("write", (slot(1), _block(p))),
        ("read_many", ([slot(0), slot(3), slot(7)],)),
        ("write_many", ([(slot(2), _block(p + 1)), (slot(5), _block(p + 2))],)),
        # A DP-RAM-shaped request: one held slot, then the downloads.
        ("exchange", (10 * p + 1, [slot(0), slot(4)],
                      (10 * p, [(slot(4), _block(p + 3))]))),
        ("exchange", (10 * p + 3, [slot(1), slot(2), slot(9)],
                      (10 * p + 2, [(slot(9), _block(p + 4)),
                                    (slot(10), _block(p + 5)),
                                    (slot(11), _block(p + 6))]))),
        ("exchange", (10 * p + 4, [slot(6)], None)),
        # ``flush()``: the held upload alone.
        ("exchange", (10 * p + 6, (),
                      (10 * p + 5, [(slot(8), _block(p + 7)),
                                    (slot(12), _block(p + 8)),
                                    (slot(13), _block(p + 9))]))),
        ("read", (_PIN_N,)),
        ("read_many", ([1, _PIN_N + 83],)),
        ("write", (3, 7)),
        ("write_many", ([(2, _block(1)), (3, None)],)),
        ("write", (4, b"short")),
    ]


_PIN_STACKS = {
    "corrupting": lambda inner, rng, mode: CorruptingServer(
        inner, 0.3, rng.spawn("corrupt"), coin_mode=mode),
    "flaky": lambda inner, rng, mode: FlakyServer(
        inner, 0.25, rng.spawn("flaky"), coin_mode=mode),
    "corrupting_flaky": lambda inner, rng, mode: CorruptingServer(
        FlakyServer(inner, 0.25, rng.spawn("flaky"), coin_mode=mode),
        0.3, rng.spawn("corrupt"), coin_mode=mode),
}

_PIN_BACKENDS = {
    "memory": lambda: InMemoryBackend(_PIN_N),
    "network": lambda: NetworkBackend(_PIN_N, LAN),
}


def _pin_record(stack, coin_mode, backend_name):
    backend = _PIN_BACKENDS[backend_name]()
    inner = StorageServer(_PIN_N, block_size=8, backend=backend)
    inner.load(integer_database(_PIN_N, 8))
    view = Transcript()
    inner.attach_transcript(view)
    wrapper = _PIN_STACKS[stack](inner, SeededRandomSource(35), coin_mode)
    record = []
    for p in range(6):
        for name, args in _pin_script(p):
            try:
                outcome = ("ok", getattr(wrapper, name)(*args))
            except Exception as exc:  # the raised type and message are pinned
                outcome = (type(exc).__name__, str(exc))
            link = (
                (backend.roundtrips, backend.simulated_ms)
                if isinstance(backend, NetworkBackend) else None
            )
            record.append((
                name, outcome, inner.reads, inner.writes,
                sorted(wrapper.fault_counters().items()), link,
            ))
    record.append(view.signature())
    layer = wrapper
    while layer is not inner:
        record.append(layer._rng.random())
        layer = layer._inner
    return record


def _pin_digest(stack, coin_mode, backend_name):
    record = _pin_record(stack, coin_mode, backend_name)
    return hashlib.sha256(repr(record).encode()).hexdigest()


_PINS = {
    "corrupting/per_slot/memory":
        "ccb3b26d41c653b6a5dc14ba31e190d27050cc8560d7f0ed9e1b04e73534d81a",
    "corrupting/per_slot/network":
        "92c4d9a1ec6794f79c78b0b9d504f575f718e49e91224c6d6018db60854ca8c4",
    "corrupting/per_round/memory":
        "bc6994584c2e4ec5aa63daed237c54ffe80156096e651d31f867770f24f95b34",
    "corrupting/per_round/network":
        "038063702055aeeaabb8cdf858fd0f7bf053f1934dfa43e7b7eb89a6a83409ec",
    "flaky/per_slot/memory":
        "7223ace6ffbebf8a707ddb80ec1b06e9c2b8b9431373234de14fab2b7104977a",
    "flaky/per_slot/network":
        "9283597a491e9aeb88bdd06c88a0be74377f7e6ceafd059ab3e826ce57b457cb",
    "flaky/per_round/memory":
        "d2f3c793f8d47169c566cda16d42c8bfc26cf77f064afa4d101b834ee3afa155",
    "flaky/per_round/network":
        "24235fe46151e63d0f984a547015c0ce8f4fcd8a1af23b5d3bde85f4a8d7a001",
    "corrupting_flaky/per_slot/memory":
        "42a23b0e975773d439a9deed2ed9dc25c0d85fd7f3d54d94974c20c538ee3530",
    "corrupting_flaky/per_slot/network":
        "62a2aa848a0202d455acae42441b0e413d8eab0b5bf90e61852827a1edc5a6e2",
    "corrupting_flaky/per_round/memory":
        "761812a12dea2758efba0557a5077989ee3313837ccddd635544842418b17b18",
    "corrupting_flaky/per_round/network":
        "d5a792ae4b8f3bb7f54ad13b5a56a611ec104282af4c4e8c041a31cdc5c4022b",
}


class TestFaultWrapperPins:
    @pytest.mark.parametrize("case", sorted(_PINS))
    def test_script_digest(self, case):
        stack, coin_mode, backend = case.split("/")
        assert _pin_digest(stack, coin_mode, backend) == _PINS[case]

    def test_table_covers_every_stack_mode_and_backend(self):
        assert set(_PINS) == {
            f"{stack}/{mode}/{backend}"
            for stack in _PIN_STACKS
            for mode in ("per_slot", "per_round")
            for backend in _PIN_BACKENDS
        }
