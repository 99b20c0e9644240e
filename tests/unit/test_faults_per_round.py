"""Unit tests for the batched fault model (one coin per round)."""

import inspect

import pytest

from repro.crypto.rng import SeededRandomSource
from repro.storage.backends import NetworkBackend
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
        assert rounds <= set(vars(FlakyServer))
        read_side = rounds - {"write", "write_many"}
        assert read_side <= set(vars(CorruptingServer))


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
