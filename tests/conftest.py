"""Shared fixtures for the test suite."""

import pytest

from repro.crypto.rng import SeededRandomSource
from repro.storage.blocks import integer_database
from repro.storage.faults import FlakyServer, wrap_scheme_servers


@pytest.fixture
def rng():
    """A deterministic randomness source; spawn substreams per test need."""
    return SeededRandomSource(0xC0FFEE)


@pytest.fixture
def small_db():
    """A 32-record database with self-describing contents."""
    return integer_database(32)


@pytest.fixture
def tiny_db():
    """An 8-record database for exhaustive checks."""
    return integer_database(8)


def dedupe_rounds(signature):
    """φ: what a server sees of this repo's DP-RAM / bucket DP-RAM / DP-KVS,
    as a function of what it saw of the paper-shaped rounds.

    Inside one query a slot is downloaded at its first occurrence only,
    and uploaded at its last only (the copy that would survive on the
    server); everything else keeps its order.  A deterministic function
    of the paper-shaped view, so ε can only shrink (post-processing).

    Args:
        signature: ``Transcript.signature()`` of the paper-shaped run.
    """
    by_query = {}
    for event in signature:
        by_query.setdefault(event[3], []).append(event)
    kept = []
    for events in by_query.values():
        downloaded = set()
        for position, event in enumerate(events):
            if event[0] == "download":
                if event in downloaded:
                    continue
                downloaded.add(event)
            elif event in events[position + 1 :]:
                continue
            kept.append(event)
    return tuple(kept)


@pytest.fixture
def phi():
    """The round-deduplicating projection :func:`dedupe_rounds`."""
    return dedupe_rounds


class _ScriptedCoins:
    """Fault coins read off a script; past its end every round is served."""

    def __init__(self, script):
        self._script = iter(script)

    def random(self):
        return 0.0 if next(self._script, False) else 1.0


@pytest.fixture
def fail_rounds():
    """``fail_rounds(scheme, False, True)`` serves the scheme's next storage
    round, fails the one after it (a per-round ``FlakyServer`` fault) and
    serves every later one; with ``coin_mode="per_slot"`` each entry is
    one slot's coin instead."""

    def install(scheme, *script, coin_mode="per_round"):
        coins = _ScriptedCoins(script)
        wrap_scheme_servers(
            scheme,
            lambda server: FlakyServer(server, 0.5, coins, coin_mode=coin_mode),
        )

    return install
