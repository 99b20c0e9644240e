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
    serves every later one."""

    def install(scheme, *script):
        coins = _ScriptedCoins(script)
        wrap_scheme_servers(
            scheme,
            lambda server: FlakyServer(
                server, 0.5, coins, coin_mode="per_round"
            ),
        )

    return install
