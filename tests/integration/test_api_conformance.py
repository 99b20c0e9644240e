"""Protocol-conformance suite over every registered scheme.

Parametrized over the full :func:`repro.api.available_schemes`
catalogue, so a newly registered scheme is automatically held to the
same contract: builds by name, implements its protocol, reports scheme
info, agrees between ``*_many`` and single operations, and attaches /
detaches transcripts symmetrically.
"""

import random

import pytest

from repro.api import (
    PrivateIR,
    PrivateKVS,
    PrivateRAM,
    Scheme,
    available_schemes,
    build,
    scheme_spec,
)
from repro.crypto.rng import SeededRandomSource
from repro.storage.backends import InMemoryBackend
from repro.storage.errors import BlockSizeError
from repro.storage.server import StorageServer
from repro.storage.transcript import Transcript

N = 32
_PROTOCOLS = {"ir": PrivateIR, "ram": PrivateRAM, "kvs": PrivateKVS}


def _build(name, **overrides):
    kwargs = {"n": N, "seed": 0xFEED}
    kwargs.update(overrides)
    return build(name, **kwargs)


def all_schemes():
    names = available_schemes()
    assert len(names) >= 11
    return names


@pytest.mark.parametrize("name", all_schemes())
class TestConformance:
    def test_build_round_trip(self, name):
        scheme = _build(name)
        spec = scheme_spec(name)
        assert isinstance(scheme, Scheme)
        assert isinstance(scheme, _PROTOCOLS[spec.kind])
        assert scheme.kind == spec.kind
        # Building again with the same arguments yields a fresh,
        # equally-shaped instance.
        again = _build(name)
        assert type(again) is type(scheme)
        assert again.n == scheme.n
        assert again.block_size == scheme.block_size

    def test_scheme_info_surface(self, name):
        scheme = _build(name)
        assert scheme.n == N
        assert isinstance(scheme.block_size, int) and scheme.block_size > 0
        servers = scheme.servers()
        assert isinstance(servers, tuple) and servers
        for server in servers:
            assert isinstance(server, StorageServer)
        reads, writes = scheme.server_counters()
        assert reads == sum(s.reads for s in servers)
        assert writes == sum(s.writes for s in servers)
        peak = scheme.client_peak_blocks
        assert peak is None or peak >= 0

    def test_counters_move_with_operations(self, name):
        scheme = _build(name)
        before = scheme.server_operations()
        _exercise(scheme)
        assert scheme.server_operations() > before

    def test_transcript_attach_detach_symmetry(self, name):
        scheme = _build(name)
        transcript = Transcript()
        scheme.attach_transcript(transcript)
        _exercise(scheme)
        detached = scheme.detach_transcript()
        assert detached is transcript
        assert len(transcript) > 0
        # Detached means detached: further operations record nothing,
        # and a second detach returns None.
        recorded = len(transcript)
        _exercise(scheme)
        assert len(transcript) == recorded
        assert scheme.detach_transcript() is None

    def test_many_agrees_with_single(self, name):
        spec = scheme_spec(name)
        if spec.kind == "ir":
            # The builders load integer_database(N), so the expected
            # answer for every index is known; batched and single paths
            # must agree with it whenever they answer (the α-error event
            # returns None on either path).
            from repro.storage.blocks import integer_database

            expected = integer_database(N)
            scheme = _build(name)
            indices = [0, 3, 3, N - 1]
            batched = scheme.query_many(indices)
            singles = [scheme.query(i) for i in indices]
            assert len(batched) == len(indices)
            for answers in (batched, singles):
                for index, answer in zip(indices, answers):
                    if answer is not None:
                        assert answer == expected[index]
        elif spec.kind == "ram":
            scheme = _build(name)
            indices = [0, 1, N - 1]
            singles = [scheme.read(i) for i in indices]
            assert scheme.read_many(indices) == singles
            if scheme.writable:
                payload = b"\xab" * scheme.block_size
                scheme.write_many([(i, payload) for i in indices])
                assert all(value == payload for value in scheme.read_many(indices))
        else:
            scheme = _build(name)
            items = {b"alpha": b"1", b"beta": b"22", b"gamma": b""}
            for key, value in items.items():
                scheme.put(key, value)
            keys = sorted(items) + [b"missing"]
            singles = [scheme.get(key) for key in keys]
            assert scheme.get_many(keys) == singles
            assert singles == [items[k] for k in sorted(items)] + [None]

    def test_kvs_values_exact_and_delete(self, name):
        spec = scheme_spec(name)
        if spec.kind != "kvs":
            pytest.skip("KVS-only contract")
        scheme = _build(name, value_size=8)
        assert scheme.value_size == 8
        scheme.put(b"k", b"v\x00\x00")   # trailing zeros must survive
        assert scheme.get(b"k") == b"v\x00\x00"
        assert scheme.delete(b"k") is True
        assert scheme.get(b"k") is None
        assert scheme.delete(b"k") is False


@pytest.mark.parametrize("name", available_schemes("ir"))
def test_ragged_ir_database_is_refused_before_anything_is_built(
    name, monkeypatch
):
    # A server stores what it is handed: a short block among long ones is
    # a length the (cluster's) cipher does not hide.  The refusal comes
    # before a coin is drawn, a key spawned or a server given a slot.
    built = []
    init = StorageServer.__init__

    def recording_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(StorageServer, "__init__", recording_init)
    source = SeededRandomSource(9)
    with pytest.raises(BlockSizeError, match="block 7 has 3 bytes"):
        build(name, blocks=[b"a" * 64] * 7 + [b"b" * 3], rng=source)
    assert built == []
    assert source.random() == SeededRandomSource(9).random()


class _RoundSpy(InMemoryBackend):
    """An in-memory backend that fails the round listing a slot twice."""

    rounds = 0

    def read_slots(self, indices):
        assert len(set(indices)) == len(indices), (
            f"download round repeats a slot: {list(indices)}"
        )
        type(self).rounds += 1
        return super().read_slots(indices)

    def write_slots(self, items):
        slots = [index for index, _ in items]
        assert len(set(slots)) == len(slots), (
            f"upload round repeats a slot: {slots}"
        )
        type(self).rounds += 1
        super().write_slots(items)


@pytest.mark.parametrize(
    "name", available_schemes("ram") + available_schemes("kvs")
)
def test_no_storage_round_moves_a_slot_twice(name, monkeypatch):
    # A second copy of a slot inside one round is wire traffic that tells
    # the client nothing: DP-RAM's d_j = o_j, a tree node on two DP-KVS
    # paths, two overwrite buckets sharing a node.  Held for every RAM and
    # KVS in the catalogue, over reads, writes, hits, misses and deletes.
    monkeypatch.setattr(_RoundSpy, "rounds", 0)
    scheme = _build(name, backend=_RoundSpy, seed=0xD15C)
    coins = random.Random(name)
    for step in range(150):
        if isinstance(scheme, PrivateKVS):
            key = b"key-%d" % coins.randrange(12)
            roll = coins.random()
            if roll < 0.5:
                scheme.put(key, b"v%d" % step)
            elif roll < 0.85:
                scheme.get(key)
            else:
                scheme.delete(key)
        elif scheme.writable and coins.random() < 0.5:
            scheme.write(coins.randrange(N), bytes([step]) * scheme.block_size)
        else:
            scheme.read(coins.randrange(N))
    assert _RoundSpy.rounds > 0 or name.startswith("plaintext")


def _exercise(scheme: Scheme) -> None:
    """Run a couple of operations appropriate to the scheme's protocol."""
    if isinstance(scheme, PrivateKVS):
        scheme.put(b"probe", b"x")
        scheme.get(b"probe")
    elif isinstance(scheme, PrivateIR):
        scheme.query(0)
        scheme.query(scheme.n - 1)
    else:
        scheme.read(0)
        scheme.read(scheme.n - 1)
