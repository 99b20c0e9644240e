"""Integration: schemes under injected server faults.

The paper assumes an honest-but-curious server; these tests document what
happens outside that model and that the provided hardening (authenticated
encryption, fault wrappers) behaves as designed end to end.
"""

import random

import pytest
from dp_ram_view import record_bucket_pairs, seen_pairs, watch

import repro
from repro.api.protocols import PrivateKVS
from repro.cluster import ClusterKVS
from repro.core.dp_ram import DPRAM
from repro.crypto.encryption import (
    IntegrityError,
    decrypt_authenticated,
    encrypt_authenticated,
    generate_key,
)
from repro.crypto.rng import SeededRandomSource
from repro.storage.blocks import integer_database
from repro.storage.faults import (
    CorruptingServer,
    FlakyServer,
    ServerFault,
    wrap_scheme_servers,
)
from repro.storage.server import StorageServer


class TestDPRAMUnderFaults:
    def test_flaky_server_surfaces_faults(self, rng):
        """A DP-RAM whose server times out propagates the fault cleanly
        (no silent wrong answers, no corrupted client state)."""
        db = integer_database(32)
        ram = DPRAM(db, stash_probability=0.2, rng=rng.spawn("ram"))
        wrap_scheme_servers(
            ram, lambda server: FlakyServer(server, 0.3, rng.spawn("faults"))
        )
        answered, faulted = 0, 0
        for i in range(100):
            try:
                value = ram.read(i % 32)
            except ServerFault:
                faulted += 1
            else:
                answered += 1
                # When an answer does come back it is the right one.
                assert value == db[i % 32]
        assert faulted > 0
        assert answered > 0

    def test_corrupting_server_garbles_plain_dpram(self, rng):
        """Without authentication, corruption turns into silent garbage —
        exactly the gap the authenticated mode closes."""
        db = integer_database(16)
        ram = DPRAM(db, stash_probability=1e-9, rng=rng.spawn("ram"))
        wrap_scheme_servers(
            ram,
            lambda server: CorruptingServer(server, 1.0, rng.spawn("faults")),
        )
        wrong = sum(1 for i in range(16) if ram.read(i) != db[i])
        assert wrong > 0  # silent corruption, no exception raised


N = 64


def _build(name, seed):
    if name in ("dp_kvs", "oram_kvs"):
        return repro.build(name, n=N, seed=seed)
    if name == "recursive_path_oram":
        # Three levels: at the default map limit, 64 records are one.
        return repro.build(
            name, blocks=integer_database(N, 8), client_map_limit=4,
            seed=seed,
        )
    return repro.build(name, blocks=integer_database(N, 8), seed=seed)


def _faulty(name, seed, coin_mode):
    """``(scheme, flaky wrappers)``; the wrappers start switched off."""
    if name == "cluster_dp_kvs":
        # Replica 0 can fault (and then goes fail-stop dead); replica 1
        # is what "lose nothing" rests on.
        scheme = ClusterKVS(
            N, shard_count=2, replica_count=2, failure_rate=(0.3, 0.0),
            fault_coin_mode=coin_mode, rng=SeededRandomSource(seed),
        )
        flaky = [s for s in scheme.servers() if isinstance(s, FlakyServer)]
    else:
        scheme = _build(name, seed)
        flaky = wrap_scheme_servers(
            scheme,
            lambda server: FlakyServer(
                server, 0.3, SeededRandomSource(seed).spawn("faults"),
                coin_mode=coin_mode,
            ),
        )
    assert flaky
    _switch(flaky, False)
    return scheme, flaky


def _switch(flaky, on):
    for wrapper in flaky:
        wrapper._rate = 0.3 if on else 0.0


def _calls(scheme):
    """``(read, write)`` over record numbers, whatever the primitive."""
    if isinstance(scheme, PrivateKVS):
        return (
            lambda i: scheme.get(b"record-%02d" % i),
            lambda i, value: scheme.put(b"record-%02d" % i, value),
        )
    return scheme.read, scheme.write


def _bucket_client(ram):
    return (
        set(ram._stashed), dict(ram._overlay), dict(ram._pins),
        ram._link.held, ram.query_count, ram.client_peak_blocks,
    )


def _oram_client(oram):
    return (
        list(oram._stash.items()), oram._link.held, list(oram._position),
        oram.query_count, oram.client_peak_blocks,
    )


_CLIENT_STATE = {
    "path_oram": _oram_client,
    "recursive_path_oram": lambda ram: (
        [
            (list(level._stash.items()), level._link.held, level.query_count)
            for level in ram._levels
        ],
        list(ram._client_map), ram.query_count,
    ),
    "oram_kvs": lambda store: _oram_client(store.oram) + (
        store.size, store.operation_count,
    ),
    "dp_ram": lambda ram: (
        dict(ram._stash.items()), ram._link.held, ram.query_count,
        ram.client_peak_blocks,
    ),
    "read_only_dp_ram": lambda ram: (
        dict(ram._stash.items()), ram.query_count,
    ),
    "bucket_dp_ram": _bucket_client,
    "dp_kvs": lambda store: _bucket_client(store._ram) + (
        dict(store._super_root.items()), store.size, store.operation_count,
    ),
}

# A DP-RAM client keeps no (d_j, o_j) history: the server's views of the
# scheme and of its twin are compared instead, less the requests that raised.
_SERVER_VIEW = {"dp_ram", "read_only_dp_ram"}

# Nor does a bucket DP-RAM, whose pairs the node-level view cannot tell
# apart: the pairs each one commits are recorded and compared.
_BUCKET_RAM = {
    "bucket_dp_ram": lambda ram: ram,
    "dp_kvs": lambda store: store._ram,
}

_COINS = {
    "path_oram": lambda oram: [oram._rng],
    "recursive_path_oram": lambda ram: [level._rng for level in ram._levels],
    "oram_kvs": lambda store: [store._rng, store.oram._rng],
    "dp_ram": lambda ram: [ram._rng],
    "read_only_dp_ram": lambda ram: [ram._rng],
    "bucket_dp_ram": lambda ram: [ram._rng],
    "dp_kvs": lambda store: [store._rng, store._ram._rng],
}


class TestFaultedRoundsLoseNothing:
    # Rounds fail *only while reads run*.  When an operation was a
    # download round and an upload round, ``DPRAM`` popped the stash,
    # the upload raised, and the only current copy of the record was
    # gone without an error ever reaching the caller: this script ended
    # with a wrong record in 36 of 60 seeds (per-round coins) and 31 of
    # 60 (per-slot), and 21 reads came back stale on the way.
    # An operation is now one request, sent before the client's state
    # moves, and an upload that did not land stays held and is re-sent.
    # Path ORAM remapped the block and emptied the path into the stash
    # before its read round was known to have succeeded: every one of 30
    # seeds ended with a wrong or unreadable record, in both coin modes.
    # Its access is one request now too, and commits after it returns.
    # A recursive Path ORAM's map levels committed their remaps before the
    # data level's request had returned: 30 of 30 seeds ended with a
    # block missing from its path and stash, in both coin modes.  Every
    # level now commits once the data level's request is back, or none.
    # A level's request leaves out the nodes its path shares with the
    # write-back it holds; cleared when the request came back rather than
    # when the access commits, those nodes were lost whenever the data
    # level's request then faulted: 30 of 30 seeds corrupt again.

    SEEDS = {"dp_ram": 60, "bucket_dp_ram": 60, "dp_kvs": 15,
             "cluster_dp_kvs": 6, "path_oram": 30, "oram_kvs": 15,
             "recursive_path_oram": 30, "read_only_dp_ram": 30}

    @pytest.mark.parametrize("coin_mode", ["per_round", "per_slot"])
    @pytest.mark.parametrize("name", sorted(SEEDS))
    def test_faulted_rounds_lose_nothing(self, name, coin_mode):
        faults = 0
        for seed in range(self.SEEDS[name]):
            faults += self._history(name, coin_mode, seed)
        assert faults > self.SEEDS[name]  # more than one a seed

    def _history(self, name, coin_mode, seed):
        scheme, flaky = _faulty(name, seed, coin_mode)
        read, write = _calls(scheme)
        # The twin never sees a call that faults.  A faulted call leaves
        # one thing behind, the coins it drew before its request went
        # out; the twin's coin streams are moved up to the same point.
        twin = _build(name, seed) if name in _COINS else None
        twin_read, twin_write = _calls(twin) if twin else (None, None)
        views = (watch(scheme), watch(twin)) if name in _SERVER_VIEW else ()
        faulted = []  # the log positions of each request that raised
        pairs = (
            [record_bucket_pairs(_BUCKET_RAM[name](each)) for each in (scheme, twin)]
            if name in _BUCKET_RAM else []
        )

        def assert_same_client():
            assert _CLIENT_STATE[name](scheme) == _CLIENT_STATE[name](twin)
            if pairs:
                assert pairs[0] == pairs[1]
            if views:
                assert seen_pairs(views[0], scheme, faulted) == (
                    seen_pairs(views[1], twin)
                )

        is_kvs = isinstance(scheme, PrivateKVS)
        model = {} if is_kvs else dict(enumerate(integer_database(N, 8)))
        plan = random.Random(seed)
        faults = 0
        # A read-only scheme skips the write phase; its reads still fault.
        writes = 24 if getattr(scheme, "writable", True) else 0
        for round_number in range(3):
            for _ in range(writes):
                index = plan.randrange(N)
                value = plan.randbytes(8)
                write(index, value)
                if twin:
                    twin_write(index, value)
                model[index] = value
            _switch(flaky, True)
            for _ in range(24):
                index = plan.randrange(N)
                mark = len(views[0]) if views else 0
                try:
                    answer = read(index)
                except ServerFault:
                    faults += 1
                    if views:
                        faulted.append(range(mark, len(views[0])))
                    if twin:
                        for ours, theirs in zip(
                            _COINS[name](scheme), _COINS[name](twin)
                        ):
                            theirs._rng.setstate(ours._rng.getstate())
                else:
                    assert answer == model.get(index)  # never stale
                    if twin:
                        assert twin_read(index) == answer
                if twin:
                    assert_same_client()
            _switch(flaky, False)
        # Faults are off: every record is the last one written.
        for index in range(N):
            assert read(index) == model.get(index)
            if twin:
                assert twin_read(index) == model.get(index)
        if twin:
            assert_same_client()
            for ours, theirs in zip(_COINS[name](scheme), _COINS[name](twin)):
                assert ours.random() == theirs.random()
            scheme.flush()
            twin.flush()
            assert_same_client()
            assert [s.peek(i) for s in scheme.servers()
                    for i in range(s.capacity)] == [
                s.peek(i) for s in twin.servers() for i in range(s.capacity)
            ]
        if name == "cluster_dp_kvs":
            # Failover absorbed them: replica 0 went fail-stop dead.
            faults += scheme.fault_counters().get("dead_replicas", 0)
        return faults


class TestAuthenticatedStoreUnderFaults:
    def _authenticated_array(self, rng, count=8):
        key = generate_key(rng.spawn("key"))
        server = StorageServer(count)
        server.load([
            encrypt_authenticated(key, bytes([i]) * 32, rng.spawn(f"enc{i}"))
            for i in range(count)
        ])
        return key, server

    def test_every_corruption_detected(self, rng):
        key, inner = self._authenticated_array(rng)
        server = CorruptingServer(inner, 1.0, rng.spawn("faults"))
        for i in range(8):
            with pytest.raises(IntegrityError):
                decrypt_authenticated(key, server.read(i))

    def test_clean_reads_verify(self, rng):
        key, inner = self._authenticated_array(rng)
        server = CorruptingServer(inner, 0.0, rng.spawn("faults"))
        for i in range(8):
            assert decrypt_authenticated(key, server.read(i)) == bytes([i]) * 32

    def test_partial_corruption_rate_matches(self, rng):
        key, inner = self._authenticated_array(rng, count=1)
        server = CorruptingServer(inner, 0.4, rng.spawn("faults"))
        detected = 0
        for _ in range(300):
            try:
                decrypt_authenticated(key, server.read(0))
            except IntegrityError:
                detected += 1
        assert detected == server.corrupted_reads
        assert 70 < detected < 170
