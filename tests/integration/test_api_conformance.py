"""Protocol-conformance suite over every registered scheme.

Parametrized over the full :func:`repro.api.available_schemes`
catalogue, so a newly registered scheme is automatically held to the
same contract: builds by name, implements its protocol, reports scheme
info and a datasheet that declares the servers it runs, agrees between
``*_many`` and single operations, attaches / detaches transcripts
symmetrically, and refuses a bad argument at every entry point before
anything of it reaches a server.
"""

import functools
import random

import pytest

from repro.analysis.datasheet import PrivacyDatasheet, datasheet_for
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
from repro.storage.errors import BlockSizeError, RetrievalError, StorageError
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

    def test_datasheet_declares_the_servers_it_runs(self, name):
        scheme = _build(name)
        sheet = scheme.datasheet()
        assert isinstance(sheet, PrivacyDatasheet)
        assert datasheet_for(scheme) == sheet
        assert sheet.scheme == type(scheme).__name__
        assert sheet.n == scheme.n
        assert sheet.to_text()
        assert sheet.server_blocks == sum(
            server.capacity for server in scheme.servers()
        )

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


def _schemes_with_a_ledger():
    return [name for name in all_schemes() if hasattr(_build(name), "ledger")]


@pytest.mark.parametrize("name", _schemes_with_a_ledger())
def test_sheet_epsilon_is_what_the_ledger_charges(name):
    # A benchmark reads a scheme's ledger where it has one and its sheet
    # otherwise; once every shard has been charged the two agree.
    scheme = _build(name)
    for step in range(N):
        if isinstance(scheme, PrivateKVS):
            scheme.put(b"key-%d" % step, b"value")
        else:
            scheme.query(step)
    assert all(scheme.shard_query_counts())
    assert scheme.datasheet().epsilon == scheme.ledger.per_query_epsilon


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


# -- the argument gate --------------------------------------------------------
#
# A refused call must leave the scheme where a call never made would: a
# coin drawn, a PRF call or a request sent for it is a view of the
# server's that no charged operation explains.  Each row is one bad
# argument at one entry point.  The scheme runs a few good operations,
# the refused call, a few more and a flush; a same-seed twin runs the same
# good operations only, and both must agree on answers, transcript,
# server counters, operation count and the next coin.

GATE_N = 16
_BAD_INDICES = [
    ("3.0", 3.0, TypeError),
    ("'3'", "3", TypeError),
    ("None", None, TypeError),
    ("-1", -1, RetrievalError),
    ("n", GATE_N, RetrievalError),
]
_BAD_KEYS = [("'k'", "k"), ("None", None), ("3", 3)]


def _bad_values(size):
    """``(label, value, error)`` of the values a ``size``-byte RAM refuses."""
    return [
        ("short", b"v" * (size - 1), BlockSizeError),
        ("long", b"v" * (size + 1), BlockSizeError),
        ("str", "v" * size, TypeError),
        ("None", None, TypeError),
        ("int", size, TypeError),
    ]


def _good(scheme):
    """A record value the RAM ``scheme`` takes."""
    return bytes(scheme.block_size)


def _gate_rows():
    rows = []
    for name in available_schemes():
        probe = build(name, n=GATE_N, seed=1)
        if isinstance(probe, PrivateIR):
            for label, bad, error in _BAD_INDICES:
                rows += [
                    (name, f"query({label})", error,
                     lambda s, bad=bad: s.query(bad)),
                    (name, f"query_many([0, {label}])", error,
                     lambda s, bad=bad: s.query_many([0, bad])),
                ]
        elif isinstance(probe, PrivateRAM):
            write_error = None if probe.writable else StorageError
            for label, bad, error in _BAD_INDICES:
                rows += [
                    (name, f"read({label})", error,
                     lambda s, bad=bad: s.read(bad)),
                    (name, f"read_many([0, {label}])", error,
                     lambda s, bad=bad: s.read_many([0, bad])),
                    (name, f"write({label}, good)", write_error or error,
                     lambda s, bad=bad: s.write(bad, _good(s))),
                    (name, f"write_many([0, {label}])", write_error or error,
                     lambda s, bad=bad: s.write_many([(0, _good(s)),
                                                      (bad, _good(s))])),
                ]
                if hasattr(probe, "read_modify_write"):
                    rows.append(
                        (name, f"read_modify_write({label})", error,
                         lambda s, bad=bad: s.read_modify_write(bad, bytes))
                    )
                if hasattr(probe, "batch"):
                    rows += [
                        (name, f"query({label})", error,
                         lambda s, bad=bad: s.query(bad)),
                        (name, f"batch([0, {label}])", error,
                         lambda s, bad=bad: s.batch([0, bad])),
                    ]
            for label, bad, error in _bad_values(probe.block_size):
                rows += [
                    (name, f"write(1, {label})", write_error or error,
                     lambda s, bad=bad: s.write(1, bad)),
                    (name, f"write_many([good, {label}])", write_error or error,
                     lambda s, bad=bad: s.write_many([(0, _good(s)), (1, bad)])),
                ]
        else:
            for label, bad in _BAD_KEYS:
                rows += [
                    (name, f"get({label})", TypeError,
                     lambda s, bad=bad: s.get(bad)),
                    (name, f"put({label}, v)", TypeError,
                     lambda s, bad=bad: s.put(bad, b"v")),
                    (name, f"delete({label})", TypeError,
                     lambda s, bad=bad: s.delete(bad)),
                    (name, f"get_many([a, {label}])", TypeError,
                     lambda s, bad=bad: s.get_many([b"a", bad])),
                ]
            rows += [
                (name, "put(k, long)", BlockSizeError,
                 lambda s: s.put(b"k", b"v" * (s.value_size + 1))),
                (name, "put(k, int)", TypeError,
                 lambda s: s.put(b"k", s.value_size)),
            ]
    return [
        pytest.param(name, error, call, id=f"{name}-{label}")
        for name, label, error, call in rows
    ]


def _gate_good_operations(scheme, step):
    """A few good operations of the scheme's protocol, and their answers."""
    if isinstance(scheme, PrivateKVS):
        key = b"key-%d" % step
        scheme.put(key, b"value-%d" % step)
        return [scheme.get(key), scheme.get_many([key, b"absent"]),
                scheme.delete(key), scheme.get(b"key-0")]
    if isinstance(scheme, PrivateIR):
        return [scheme.query(step), scheme.query_many([2, step, 2])]
    answers = [scheme.read(step), scheme.read_many([step, 2])]
    if scheme.writable:
        scheme.write(2, bytes([step]) * scheme.block_size)
        scheme.write_many([(step, bytes([step + 1]) * scheme.block_size)])
        answers.append(scheme.read(step))
    return answers


def _gate_history(name, refused=None):
    source = SeededRandomSource(5)
    scheme = build(name, n=GATE_N, rng=source)
    log = Transcript()
    scheme.attach_transcript(log)
    answers = _gate_good_operations(scheme, 0)
    if refused is not None:
        error, call = refused
        with pytest.raises(error):
            call(scheme)
    answers += _gate_good_operations(scheme, 1)
    scheme.flush()
    counts = [
        getattr(scheme, attribute, None)
        for attribute in ("query_count", "operation_count", "error_count",
                          "batch_count")
    ]
    return (answers, log.signature(), scheme.server_counters(), counts,
            source.random())


_twin_history = functools.lru_cache(maxsize=None)(_gate_history)


@pytest.mark.parametrize("name, error, call", _gate_rows())
def test_bad_argument_is_refused_before_anything_moves(name, error, call):
    assert _gate_history(name, (error, call)) == _twin_history(name)


@pytest.mark.parametrize("name", all_schemes())
def test_bytes_like_values_and_integer_indices_are_taken(name):
    # The gate copies any bytes-like value through memoryview and takes
    # whatever operator.index takes as an index, so none of these is a
    # refusal — only a float, a string or None is.
    numpy = pytest.importorskip("numpy")
    scheme = _build(name)
    if isinstance(scheme, PrivateKVS):
        scheme.put(b"k", memoryview(b"value"))
        scheme.put(b"j", bytearray(b"other"))
        assert scheme.get_many([b"k", b"j"]) == [b"value", b"other"]
    elif isinstance(scheme, PrivateIR):
        from repro.storage.blocks import integer_database

        expected = integer_database(N)
        answers = scheme.query_many([True, numpy.int64(2)])
        for index, answer in zip((1, 2), answers):
            assert answer in (None, expected[index])
    elif scheme.writable:
        payload = b"\x5a" * scheme.block_size
        scheme.write(True, bytearray(payload))
        scheme.write_many([(numpy.uint8(2), memoryview(payload))])
        assert scheme.read_many([1, numpy.int32(2)]) == [payload, payload]
        assert all(type(value) is bytes for value in scheme.read_many([1, 2]))


@pytest.mark.parametrize("name", all_schemes())
def test_empty_batch_is_answered_empty(name):
    # An empty batch is no operation: every ``*_many`` answers it with
    # nothing, and nothing reaches a server.
    scheme = _build(name)
    if isinstance(scheme, PrivateKVS):
        answers = [scheme.get_many([])]
    elif isinstance(scheme, PrivateIR):
        answers = [scheme.query_many([])]
    else:
        answers = [scheme.read_many([])]
        if scheme.writable:
            scheme.write_many([])
    assert answers == [[]]
    assert scheme.server_operations() == 0


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
