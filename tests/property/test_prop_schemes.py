"""Property-based tests: every storage scheme vs a reference model.

The central invariant of the whole library — privacy mechanisms must never
change answers.  Hypothesis drives random operation sequences against
DP-RAM, Path ORAM, BucketDPRAM and DP-KVS, comparing against plain dicts.
"""

import dataclasses
import hashlib
import random
import struct
import types
from typing import Mapping
from unittest import mock

import pytest
from dp_ram_view import record_bucket_pairs, record_plans, seen_pairs, watch
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines.oram_kvs import ORAMKeyValueStore
from repro.baselines.path_oram import PathORAM
from repro.baselines.recursive_oram import RecursivePathORAM
from repro.core.bucket_ram import BucketDPRAM
from repro.core.dp_kvs import DPKVS
from repro.core.dp_ram import DPRAM, ReadOnlyDPRAM
from repro.crypto.encryption import decrypt_many, encrypt_many
from repro.crypto.rng import SeededRandomSource
from repro.hashing.tree_buckets import TreeBucketLayout
from repro.storage.backends import NetworkBackendFactory
from repro.storage.blocks import check_block, encode_int, integer_database
from repro.storage.errors import CapacityError, RetrievalError, StorageError
from repro.storage.network import LAN
from repro.storage.transcript import Transcript


N = 12

ram_ops = st.lists(
    st.tuples(
        st.sampled_from(["read", "write"]),
        st.integers(min_value=0, max_value=N - 1),
        st.integers(min_value=0, max_value=10**6),
    ),
    max_size=40,
)


class TestDPRAMModel:
    @given(ops=ram_ops, seed=st.integers(0, 2**32),
           p=st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_matches_dict_model(self, ops, seed, p):
        ram = DPRAM(integer_database(N), stash_probability=p,
                    rng=SeededRandomSource(seed))
        model = {i: encode_int(i) for i in range(N)}
        for kind, index, payload in ops:
            if kind == "read":
                assert ram.read(index) == model[index]
            else:
                value = encode_int(payload)
                ram.write(index, value)
                model[index] = value

    @given(ops=ram_ops, seed=st.integers(0, 2**32),
           p=st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_bandwidth_is_three_less_the_shared_slot(self, ops, seed, p):
        # Theorem 6.1's three blocks are the worst case: a query moves
        # d_j, o_j and the upload of o_j, and no slot twice in one round.
        ram = DPRAM(integer_database(N), stash_probability=p,
                    rng=SeededRandomSource(seed))
        log = watch(ram)
        for kind, index, payload in ops:
            before = ram.server.operations
            if kind == "read":
                ram.read(index)
            else:
                ram.write(index, encode_int(payload))
            ram.flush()  # the query's own upload, sent on its own
            download, overwrite = seen_pairs(log, ram)[-1]
            assert ram.server.operations - before == 3 - (download == overwrite)


class _PaperRoundDPRAM(DPRAM):
    """Algorithm 3 with the download round ``DPRAM`` shipped before the
    dedupe: ``[d_j, o_j]`` as drawn, the same slot twice when they meet.

    Kept verbatim as the oracle, less the ``(d_j, o_j)`` history the
    client no longer keeps.  ``DPRAM`` must reproduce its every answer,
    coin, stash entry and stored byte, and show the server exactly φ
    (``dedupe_rounds`` in ``conftest.py``) of what this shows.
    """

    def _query(self, index, new_value):
        n = self._params.n
        if not 0 <= index < n:
            raise RetrievalError(f"index {index} out of range for n={n}")
        if new_value is not None:
            check_block(new_value, self._block_size)
        self.server.begin_query(self._queries)

        stashed = index in self._stash
        download_slot = self._rng.randbelow(n) if stashed else index
        restash = self._rng.random() < self._params.stash_probability
        overwrite_slot = self._rng.randbelow(n) if restash else index
        downloaded, overwritten = self.server.read_many(
            [download_slot, overwrite_slot]
        )

        if stashed:
            current = self._stash.pop(index)  # cover download discarded
        else:
            current = self._decrypt(self._key, downloaded)
        if new_value is not None:
            current = new_value

        if restash:
            self._stash.put(index, current)
            refreshed = self._decrypt(self._key, overwritten)
            self.server.write(
                overwrite_slot, self._encrypt(self._key, refreshed, self._rng)
            )
        else:
            self.server.write(
                overwrite_slot, self._encrypt(self._key, current, self._rng)
            )

        self._queries += 1
        return current


class _PaperRoundReadOnlyDPRAM(ReadOnlyDPRAM):
    """``ReadOnlyDPRAM.read`` as shipped before the dedupe, verbatim but
    for the ``(d_j, o_j)`` history the client no longer keeps."""

    def read(self, index):
        n = self._params.n
        if not 0 <= index < n:
            raise RetrievalError(f"index {index} out of range for n={n}")
        self.server.begin_query(self._queries)

        stashed = index in self._stash
        download_slot = self._rng.randbelow(n) if stashed else index
        restash = self._rng.random() < self._params.stash_probability
        overwrite_slot = self._rng.randbelow(n) if restash else index
        downloaded, _ = self.server.read_many(
            [download_slot, overwrite_slot]  # second is pure cover traffic
        )

        current = self._stash.pop(index) if stashed else downloaded
        if restash:
            self._stash.put(index, current)

        self._queries += 1
        return current


class TestDPRAMRoundDedupeIdentity:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("p", [0.02, 0.3, 1.0])
    @pytest.mark.parametrize(
        "deduped, paper, worst_case",
        [(DPRAM, _PaperRoundDPRAM, 3), (ReadOnlyDPRAM, _PaperRoundReadOnlyDPRAM, 2)],
        ids=["dp_ram", "read_only_dp_ram"],
    )
    def test_same_seed_twin_of_the_paper_shaped_round(
        self, deduped, paper, worst_case, p, seed, phi
    ):
        # n = 6 makes the chance meetings (a random d or o landing on the
        # other) frequent, next to the systematic d_j = o_j = q_j.
        n = 6
        ram, oracle = rams = [
            build(integer_database(n), stash_probability=p,
                  rng=SeededRandomSource(seed))
            for build in (deduped, paper)
        ]
        transcripts = [watch(scheme) for scheme in rams]
        planned = record_plans(ram)
        plan = random.Random(seed)
        shared = 0
        for step in range(300):
            index = plan.randrange(n)
            before = ram.server.operations
            if ram.writable and plan.random() < 0.5:
                for scheme in rams:
                    scheme.write(index, encode_int(10**6 + step))
            else:
                assert ram.read(index) == oracle.read(index)
            ram.flush()  # the oracle uploads inside the query
            assert dict(ram._stash.items()) == dict(oracle._stash.items())
            download, overwrite = planned[-1]
            moved = ram.server.operations - before
            assert moved == worst_case - (download == overwrite) <= worst_case
            shared += download == overwrite
        assert 0 < shared < 300  # both shapes of round were exercised
        assert _server_image(ram) == _server_image(oracle)
        assert ram.stash_peak == oracle.stash_peak
        assert transcripts[0].signature() == phi(transcripts[1].signature())
        assert len(transcripts[1]) - len(transcripts[0]) == shared
        # Both servers saw the pairs the client planned.
        assert seen_pairs(transcripts[1], oracle) == planned
        assert seen_pairs(transcripts[0], ram) == planned
        if ram.writable:
            # φ is injective for DP-RAM: (d_j, o_j) is still on the wire.
            assert transcripts[0].dp_ram_pairs() == planned
        assert ram._rng.random() == oracle._rng.random()


def _dp_ram_step(ram, plan, number):
    index = plan.randrange(ram.n)
    if plan.random() < 0.5:
        return ram.write(index, encode_int(10**6 + number))
    return ram.read(index)


def _read_only_step(ram, plan, number):
    return ram.read(plan.randrange(ram.n))


def _bucket_ram_step(ram, plan, number):
    batch = plan.sample(range(ram.bucket_count), plan.randint(1, 2))
    nodes = sorted({node for b in batch for node in ram.bucket_nodes(b)})
    updates = {
        node: bytes([number % 256, node]) * 3
        for node in plan.sample(nodes, plan.randint(0, len(nodes)))
    }
    pending = ram.begin_query(batch)
    ram.finish_query(pending, updates)
    return pending.contents


def _dp_kvs_step(store, plan, number, keys=40):
    key = b"key-%03d" % plan.randrange(keys)
    roll = plan.random()
    if roll < 0.5:
        return store.put(key, b"value-%06d" % number)
    if roll < 0.85:
        return store.get(key)
    return store.delete(key)


def _refusing_kvs_step(store, plan, number):
    # More keys than the store holds: puts are refused at capacity, a
    # full pair of paths and super root refuse a spill, and deletes meet
    # both present and absent keys.
    try:
        return _dp_kvs_step(store, plan, number, keys=48)
    except CapacityError as refusal:  # MappingOverflowError is one
        return type(refusal).__name__


def _recording(scheme):
    """``scheme``, its bucket RAM recording as ``pairs`` the bucket
    ``(d_j, o_j)`` it commits — the client keeps no such history."""
    ram = getattr(scheme, "_ram", scheme)
    ram.pairs = record_bucket_pairs(ram)
    return scheme


def _pairs(scheme):
    return (getattr(scheme, "_ram", scheme).pairs,)


def _seen_pairs(ram):
    """The ``(d_j, o_j)`` a DP-RAM's server saw.  The client keeps no
    record of them now; its pin was written when it did, and hashes that
    record, which equals this view once the run is flushed."""
    return seen_pairs(ram.server._transcript, ram)


# name -> (build(setting, **collaborators), one seeded operation, settings,
# the client's own record of the run); a setting is the stash probability,
# for DP-KVS the Φ it follows from, for the ORAMs Z, χ or the capacity.
_HELD_UPLOAD_SCHEMES = {
    "dp_ram": (
        lambda p, **kwargs: DPRAM(
            integer_database(24), stash_probability=p, **kwargs
        ),
        _dp_ram_step,
        [0.02, 0.3, 1.0],
        lambda ram: (_seen_pairs(ram),),
    ),
    "read_only_dp_ram": (
        lambda p, **kwargs: ReadOnlyDPRAM(
            integer_database(24), stash_probability=p, **kwargs
        ),
        _read_only_step,
        [0.02, 0.3, 1.0],
        lambda ram: (
            _seen_pairs(ram), sorted(ram._stash.items()),
            ram.client_peak_blocks,
        ),
    ),
    "bucket_dp_ram": (
        lambda p, **kwargs: _recording(BucketDPRAM(
            [bytes([node]) * 6 for node in range(7)],
            _REPERTOIRES["shared-ancestor"][1], p, **kwargs
        )),
        _bucket_ram_step,
        [0.05, 0.5, 1.0],
        _pairs,
    ),
    "dp_kvs": (
        lambda phi, **kwargs: _recording(DPKVS(64, phi=phi, **kwargs)),
        _dp_kvs_step,
        [1, 6, 64],
        _pairs,
    ),
    "dp_kvs_refusals": (
        lambda capacity, **kwargs: _recording(DPKVS(
            capacity, key_size=8, value_size=12, node_capacity=1,
            leaves_per_tree=2, phi=1, enforce_super_root_capacity=True,
            **kwargs
        )),
        _refusing_kvs_step,
        [20, 24, 28],
        lambda store: (*_pairs(store), store.client_peak_blocks),
    ),
    "path_oram": (
        lambda z, **kwargs: PathORAM(
            integer_database(24), bucket_size=z, **kwargs
        ),
        _dp_ram_step,
        [1, 2, 4],
        lambda oram: (oram.stash_peak, oram.query_count),
    ),
    "recursive_path_oram": (
        lambda chi, **kwargs: RecursivePathORAM(
            integer_database(64), positions_per_block=chi,
            client_map_limit=4, **kwargs
        ),
        _dp_ram_step,
        [2, 4, 8],
        lambda ram: (
            [level.stash_peak for level in ram._levels], ram._client_map,
            [level._rng.random() for level in ram._levels],
        ),
    ),
    "oram_kvs": (
        lambda capacity, **kwargs: ORAMKeyValueStore(
            capacity, key_size=8, value_size=12, **kwargs
        ),
        _dp_kvs_step,
        [32, 64, 128],
        lambda store: (
            store.oram.stash_peak, store.size, store.operation_count,
            store.oram._rng.random(),
        ),
    ),
}

# Written at the commit before an operation's upload started riding in the
# next operation's request, and equal after it — with a flush after every
# call, or, where no scheme merges paths, with one flush at the end.
_HELD_UPLOAD_PINS = {
    "dp_ram":
        "6f6c6e6bd45b32a425f7b305d53eb4687011d9ae5669e750bf0eaa3f2753cede",
    "bucket_dp_ram":
        "feecffd8a02d78f383019c0fcc771a9b25744e6d28cf7e2acaf4be6f119af17e",
    "dp_kvs":
        "e864c6d2fec3275264ea6d64469e2998dba5e81130b68814957bc844644de25a",
    # Written while a refused put still closed its batch by hand.
    "dp_kvs_refusals":
        "01158c0af8bff3652edfcc42f13782a918196eb436407e312cd801bc6fd4c992",
    # Written at the commit before a Path ORAM write-back started riding
    # in the next access's request, and equal after it.
    "path_oram":
        "3f84f4e03d371983a286b919cb84866f2a01598b1a1207d6221ea13abf01039a",
    "recursive_path_oram":
        "3def47511978b8da2ea839fc12a616cb2c1a28b5aaaeefc13f10a4fa711e9d56",
    "oram_kvs":
        "182e794c000228f3a8fe04295d007e2a45b3b263bdbaea31293ef8378cdeb2f7",
    "read_only_dp_ram":
        "1fbb16236cd18e787e9e01b6c3398d90f820a0d62e503faefa6c9d6799e78c46",
}

# The Path ORAM family's histories once an access stopped sending the nodes
# its path shares with the held write-back; ``(name, flush_every_call)``.
# The ORAM-KVS rows moved when each of its operations became one access.
_PATH_MERGE_PINS = {
    ("path_oram", False):
        "98a4751d0ab44f7112eb487ab93c221463453d9c0f286283c76d24b887b0b01d",
    ("recursive_path_oram", False):
        "ca810b89d6fd093dcf90b699a4511d98d7f3fa867e79abc670e19fb284b048f6",
    ("oram_kvs", False):
        "7a6a85d32376e52311b050b7591d2cccb89d485bdee63d51d6fe711ed60a0037",
    ("oram_kvs", True):
        "b8b6f7b6d266fc2bfbfbe7b69a16aa1ccff7220830c4ece102ae72edb275eba2",
}
_MERGES_PATHS = {name for name, _ in _PATH_MERGE_PINS}
# Schemes with no upload to hold: a flush sends nothing.
_UPLOADS_NOTHING = {"read_only_dp_ram"}


def merge_shared_prefix(signature):
    """What a server sees of a Path ORAM access that reads the nodes its
    path shares with the held write-back from the client, as a function of
    what it sees when each write-back goes out on its own.

    An upload run (one write-back) and the download run right after it
    (the next path) drop the slots they have in common — consecutive
    paths share their top nodes, and nothing else; every other event keeps
    its order.  A deterministic function of the two-message view over
    public, i.i.d.-uniform leaves, so ε stays what it was.

    Args:
        signature: ``Transcript.signature()`` of one server.
    """
    runs = []
    for event in signature:
        if runs and runs[-1][0] == (event[0], event[3]):
            runs[-1][1].append(event)
        else:
            runs.append(((event[0], event[3]), [event]))
    kinds = [kind for (kind, _), _ in runs]
    merged = []
    for position, (_, events) in enumerate(runs):
        if kinds[position : position + 2] == ["upload", "download"]:
            shared = {event[2] for event in runs[position + 1][1]}
        elif position and kinds[position - 1 : position + 1] == [
            "upload", "download"
        ]:
            shared = {event[2] for event in runs[position - 1][1]}
        else:
            shared = set()
        merged.extend(event for event in events if event[2] not in shared)
    return tuple(merged)


# Where a step is not one scheme-level access: an ORAM-KVS operation is
# one access of its inner Path ORAM; a recursive access is one a level.
_ACCESSES = {
    "oram_kvs": lambda store, steps: store.oram.query_count,
    "recursive_path_oram": lambda ram, steps: steps * ram.levels,
}


def _held_uploads(scheme):
    """What ``scheme.flush()`` sends, in the order it sends it."""
    holders = getattr(scheme, "_levels", None) or [
        getattr(scheme, "_ram", None) or getattr(scheme, "_oram", scheme)
    ]
    return [
        holder._link.held for holder in holders
        if holder._link.held is not None
    ]


def _seeded_history(
    name, setting, seed, steps=120, flush_every_call=False, **collaborators
):
    """``(scheme, everything a seeded run leaves behind)``.

    ``flush_every_call`` is the shape every operation had before uploads
    were held: a download roundtrip, then an upload roundtrip.
    """
    build, step, _, client = _HELD_UPLOAD_SCHEMES[name]
    source = SeededRandomSource(seed)
    scheme = build(setting, rng=source, **collaborators)
    # One view a server: where a recursive ORAM's levels interleave is
    # not part of what any one of them sees.
    logs = [Transcript() for _ in scheme.servers()]
    for server, log in zip(scheme.servers(), logs):
        server.attach_transcript(log)
    plan = random.Random(seed)
    answers = []
    for number in range(steps):
        answers.append(step(scheme, plan, number))
        if flush_every_call:
            scheme.flush()
    scheme.flush()
    return scheme, (
        answers,
        *(log.signature() for log in logs),
        *client(scheme),
        _server_image(scheme),
        scheme.server_counters(),
        # DP-KVS hands its bucket RAM a spawned child source.
        [source.random(), getattr(scheme, "_ram", scheme)._rng.random()],
    )


def _orams(scheme):
    """The Path ORAMs a Path ORAM family scheme runs, data level first."""
    return getattr(scheme, "_levels", None) or [
        getattr(scheme, "_oram", scheme)
    ]


def _merged_history(history, servers):
    """``history`` as the merged request shape leaves it: each server's
    view through :func:`merge_shared_prefix` and the counters it adds up
    to; answers, client state, stored bytes and coins as they were."""
    answers, *rest = history
    views = [merge_shared_prefix(view) for view in rest[:servers]]
    counters = tuple(
        sum(event[0] == kind for view in views for event in view)
        for kind in ("download", "upload")
    )
    return (answers, *views, *rest[servers:-2], counters, rest[-1])


class TestHeldUploadIdentity:
    @pytest.mark.parametrize("flush_every_call", [False, True])
    @pytest.mark.parametrize("name", sorted(_HELD_UPLOAD_PINS))
    def test_seeded_history_is_pinned(self, name, flush_every_call):
        setting = _HELD_UPLOAD_SCHEMES[name][2][1]
        _, history = _seeded_history(
            name, setting, seed=24, flush_every_call=flush_every_call
        )
        assert hashlib.sha256(repr(history).encode()).hexdigest() == (
            _PATH_MERGE_PINS.get(
                (name, flush_every_call), _HELD_UPLOAD_PINS[name]
            )
        )

    @pytest.mark.parametrize("name", sorted(_HELD_UPLOAD_PINS))
    def test_pin_holds_on_every_backend(self, name):
        # Stored bytes, counters and the view are the backend's to keep,
        # not to shape: the memory-backed pin holds over a link.
        _, history = _seeded_history(
            name, _HELD_UPLOAD_SCHEMES[name][2][1], seed=24,
            backend_factory=NetworkBackendFactory(LAN),
        )
        assert hashlib.sha256(repr(history).encode()).hexdigest() == (
            _PATH_MERGE_PINS.get((name, False), _HELD_UPLOAD_PINS[name])
        )

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        "name, setting",
        [
            (name, setting)
            for name in sorted(_HELD_UPLOAD_SCHEMES)
            for setting in _HELD_UPLOAD_SCHEMES[name][2]
        ],
    )
    def test_flushing_at_the_end_is_flushing_after_every_call(
        self, name, setting, seed
    ):
        # "Flush after every call" is the two-roundtrip shape every
        # operation had; nothing selects it but the caller.  Moving the
        # upload into the next request changes where messages end and
        # nothing else a client, a server or a seeded replay can see —
        # but that a Path ORAM access sends neither way the top nodes its
        # path shares with the held write-back (``merge_shared_prefix``).
        steps = 120
        (eager, eager_history), (lazy, lazy_history) = (
            _seeded_history(
                name, setting, seed, steps, flush_every_call=every_call,
                backend_factory=NetworkBackendFactory(LAN),
            )
            for every_call in (True, False)
        )
        servers = len(lazy.servers())
        if name in _MERGES_PATHS:
            assert _merged_history(eager_history, servers) == lazy_history
            assert [list(oram._stash.items()) for oram in _orams(eager)] == [
                list(oram._stash.items()) for oram in _orams(lazy)
            ]
        else:
            assert eager_history == lazy_history
        # Both hold the sealed upload from the moment it is sealed.
        assert eager.client_peak_blocks == lazy.client_peak_blocks
        # One request an access that downloads anything (a Path ORAM access
        # whose whole path is held sends none), one more a server for each
        # flush, and every byte of the view and nothing else on the wire.
        accesses = _ACCESSES.get(name, lambda scheme, steps: steps)(
            lazy, steps
        )
        slot_bytes = [len(server.peek(0)) for server in lazy.servers()]
        for scheme, history, flushes in zip(
            (eager, lazy), (eager_history, lazy_history),
            (0, 0) if name in _UPLOADS_NOTHING else (steps, 1),
        ):
            links = [server.backend for server in scheme.servers()]
            roundtrips = sum(link.roundtrips for link in links)
            link_ms = sum(link.simulated_ms for link in links)
            views = history[1 : 1 + servers]
            requests = sum(
                len({event[3] for event in view if event[0] == "download"})
                for view in views
            )
            assert requests <= accesses
            assert roundtrips == requests + flushes * servers
            sent = sum(
                len(view) * size for view, size in zip(views, slot_bytes)
            )
            assert link_ms - roundtrips * LAN.rtt_ms == (
                pytest.approx(LAN.transfer_ms(sent), rel=1e-9)
            )
        if name not in _MERGES_PATHS:
            assert requests == accesses

    @pytest.mark.parametrize("name", sorted(_HELD_UPLOAD_SCHEMES))
    def test_without_the_flush_the_view_is_a_prefix(self, name):
        build, step, settings_, _ = _HELD_UPLOAD_SCHEMES[name]
        scheme = build(settings_[1], rng=SeededRandomSource(5))
        log = Transcript()
        scheme.attach_transcript(log)
        plan = random.Random(5)
        for number in range(40):
            step(scheme, plan, number)
        seen = log.signature()
        held = _held_uploads(scheme)
        assert len(held) == (
            0 if name in _UPLOADS_NOTHING else len(scheme.servers())
        )
        scheme.flush()
        last = [
            ("upload", 0, slot, query)
            for query, items in held
            for slot, _ in items
        ]
        assert log.signature() == seen + tuple(last)
        scheme.flush()  # idempotent: nothing is held any more
        assert len(log) == len(seen) + len(last)

    @pytest.mark.parametrize(
        "name", ["oram_kvs", "path_oram", "recursive_path_oram"]
    )
    def test_held_write_back_fits_the_stash_peak(self, name):
        # A held write-back's real blocks were all in the stash right
        # after the path read, so at every call boundary the client holds
        # no more than the peak it already reports.
        build, step, settings_, _ = _HELD_UPLOAD_SCHEMES[name]
        for setting in settings_:
            scheme = build(setting, rng=SeededRandomSource(setting))
            plan = random.Random(setting)
            for number in range(200):
                step(scheme, plan, number)
                for oram in _orams(scheme):
                    _, uploads = oram._link.held
                    real = sum(raw != oram._dummy_slot for _, raw in uploads)
                    assert oram.stash_size + real <= oram.client_peak_blocks


class TestPathORAMModel:
    @given(ops=ram_ops, seed=st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_matches_dict_model(self, ops, seed):
        oram = PathORAM(integer_database(N), rng=SeededRandomSource(seed))
        model = {i: encode_int(i) for i in range(N)}
        for kind, index, payload in ops:
            if kind == "read":
                assert oram.read(index) == model[index]
            else:
                value = encode_int(payload)
                oram.write(index, value)
                model[index] = value


_DUMMY = (1 << 64) - 1
_INDEX_BYTES = 8
_LEAF_BYTES = 4
_HEADER = struct.Struct(">QI")


class GreedyScanPathORAM(PathORAM):
    """The access ``PathORAM`` shipped before the one-pass eviction.

    Kept verbatim as the placement oracle: write-back rescans the whole
    stash once per path node (``_evict_into``), walking leaf-to-root per
    entry (``_node_on_path``), and every slot goes through the
    byte-slicing codec.  ``PathORAM`` must reproduce its every choice.
    Its stash holds ``(tag, payload)``, as ``PathORAM``'s did before that
    kept each block's sealed slot, so it loads with its own copy of that
    ``_offline_load``.
    """

    def _offline_load(self, blocks, positions):
        """Place the initial database directly (setup is public; these
        writes do not count toward query costs)."""
        self._initial_positions = list(positions)
        z = self._z
        slots = [self._dummy_slot] * (self._nodes * z)
        fill = [0] * self._nodes  # occupied slots per node
        spilled: dict[int, tuple[int, bytes]] = {}
        for index, block in enumerate(blocks):
            leaf = positions[index]
            node = self._leaves - 1 + leaf
            while fill[node] == z and node:
                node = (node - 1) // 2
            if fill[node] == z:  # the whole path is full
                spilled[index] = (leaf, bytes(block))
            else:
                slots[node * z + fill[node]] = (
                    _HEADER.pack(index, leaf) + bytes(block)
                )
                fill[node] += 1
        self._link.server.load(slots)
        self._stash.update(spilled)
        self._stash_peak = len(self._stash)

    def _access(self, index, new_value, transform=None):
        if not 0 <= index < self._n:
            raise RetrievalError(f"index {index} out of range for n={self._n}")
        self.server.begin_query(self._queries)
        self._queries += 1

        new_leaf = self._rng.randbelow(self._leaves)
        leaf = self._position[index]  # the in-client map, remapped at once
        self._position[index] = new_leaf

        path = self._path_nodes(leaf)
        path_slots = [
            slot for node in path for slot in self._slot_range(node)
        ]
        for raw in self.server.read_many(path_slots):
            stored_index, tag, payload = self._decode(raw)
            if stored_index != _DUMMY:
                self._stash[stored_index] = (tag, payload)
        if len(self._stash) > self._stash_peak:
            self._stash_peak = len(self._stash)

        if index not in self._stash:
            raise RetrievalError(
                f"block {index} missing from path and stash (corrupt state)"
            )
        result = self._stash[index][1]
        if transform is not None:
            new_value = bytes(transform(result))
        if new_value is not None:
            if len(new_value) != self._block_size:
                raise ValueError(
                    f"value must be {self._block_size} bytes, got {len(new_value)}"
                )
            self._stash[index] = (new_leaf, new_value)
        else:
            self._stash[index] = (new_leaf, result)

        uploads = []
        for node in reversed(path):  # path is root-first; evict leaf-first
            placed = self._evict_into(node)
            for offset, slot in enumerate(self._slot_range(node)):
                if offset < len(placed):
                    stored_index = placed[offset]
                    tag, payload = self._stash.pop(stored_index)
                    uploads.append(
                        (slot, self._encode(stored_index, tag, payload))
                    )
                else:
                    uploads.append((slot, self._encode(_DUMMY, 0, b"")))
        self.server.write_many(uploads)
        return result

    def _evict_into(self, node):
        """Stash blocks whose tagged path passes through ``node``."""
        placed = []
        for stored_index, (tag, _) in self._stash.items():
            if len(placed) >= self._z:
                break
            if self._node_on_path(node, tag):
                placed.append(stored_index)
        return placed

    def _path_nodes(self, leaf):
        """Heap node ids (0-based) from the root down to ``leaf``."""
        node = self._leaves - 1 + leaf  # 0-based heap position of the leaf
        path = []
        while True:
            path.append(node)
            if node == 0:
                break
            node = (node - 1) // 2
        path.reverse()
        return path

    def _node_on_path(self, node, leaf):
        current = self._leaves - 1 + leaf
        while True:
            if current == node:
                return True
            if current == 0:
                return False
            current = (current - 1) // 2

    def _slot_range(self, node):
        return range(node * self._z, (node + 1) * self._z)

    def _encode(self, index, tag, payload):
        padded = payload + b"\x00" * (self._block_size - len(payload))
        return (
            index.to_bytes(_INDEX_BYTES, "big")
            + tag.to_bytes(_LEAF_BYTES, "big")
            + padded
        )

    def _decode(self, slot):
        index = int.from_bytes(slot[:_INDEX_BYTES], "big")
        tag = int.from_bytes(
            slot[_INDEX_BYTES : _INDEX_BYTES + _LEAF_BYTES], "big"
        )
        return index, tag, slot[_INDEX_BYTES + _LEAF_BYTES :]


def _stash_entries(oram) -> list[tuple[int, int, bytes]]:
    """An ORAM's stash as ``(index, tag, payload)``, in stash order.

    ``PathORAM`` keeps each block's sealed slot, whose own header must
    name the entry's index and tag; the oracle keeps the bare payload.
    """
    entries = []
    for index, (tag, block) in oram._stash.items():
        if not isinstance(oram, GreedyScanPathORAM):
            assert _HEADER.unpack_from(block) == (index, tag)
            block = block[_HEADER.size :]
        entries.append((index, tag, block))
    return entries


def _server_image(scheme) -> list[bytes]:
    return [
        server.peek(slot)
        for server in scheme.servers()
        for slot in range(server.capacity)
    ]


class TestPathORAMPlacementIdentity:
    @given(
        n=st.sampled_from([1, 2, 3, 5, 12, 37, 64, 100, 1000]),
        z=st.sampled_from([1, 2, 4]),
        seed=st.integers(0, 2**32),
        length=st.integers(0, 300),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_pass_eviction_matches_greedy_scan(self, n, z, seed, length):
        # Histories are seeded rather than drawn op by op: the choices only
        # diverge once a bucket overflows into the level above, which
        # short shrinkable lists almost never reach.
        oram = PathORAM(
            integer_database(n), bucket_size=z, rng=SeededRandomSource(seed)
        )
        greedy = GreedyScanPathORAM(
            integer_database(n), bucket_size=z, rng=SeededRandomSource(seed)
        )
        assert _server_image(oram) == _server_image(greedy)
        plan = random.Random(seed)
        for step in range(length):
            index = plan.randrange(n)
            if plan.random() < 0.5:
                oram.write(index, encode_int(10**6 + step))
                greedy.write(index, encode_int(10**6 + step))
            else:
                assert oram.read(index) == greedy.read(index)
            assert _stash_entries(oram) == _stash_entries(greedy)
        oram.flush()  # the oracle writes back inside the access
        assert _server_image(oram) == _server_image(greedy)
        assert oram.stash_peak == greedy.stash_peak

    def test_composed_schemes_keep_their_server_image(self):
        # SHA-256 of the final server image, computed at the commit before
        # the one-pass eviction: both schemes compose ``PathORAM`` and
        # must not see the rewrite.  The ORAM-KVS image moved when each of
        # its operations became one access.
        recursive = RecursivePathORAM(
            integer_database(200),
            positions_per_block=4,
            client_map_limit=8,
            rng=SeededRandomSource(11),
        )
        plan = random.Random(5)
        for step in range(300):
            index = plan.randrange(200)
            if plan.random() < 0.5:
                recursive.write(index, encode_int(10**6 + step))
            else:
                recursive.read(index)
        recursive.flush()
        assert hashlib.sha256(b"".join(_server_image(recursive))).hexdigest() == (
            "055412a09934fde895e5398da87c7c795fbbab72366b7f3a78870ddf85e56b18"
        )

        store = ORAMKeyValueStore(
            64, key_size=8, value_size=8, rng=SeededRandomSource(13)
        )
        plan = random.Random(7)
        for step in range(300):
            key = b"k%03d" % plan.randrange(48)
            roll = plan.random()
            if roll < 0.45:
                store.put(key, b"v%05d" % step)
            elif roll < 0.9:
                store.get(key)
            else:
                store.delete(key)
        store.flush()
        assert hashlib.sha256(b"".join(_server_image(store))).hexdigest() == (
            "11ca061bc0f80b23ad91214a8642ffcdb8bbec18bc4413fc1d63a17b4f9262a7"
        )


@dataclasses.dataclass
class _SequentialHandle:
    """The ``PendingQuery`` of the sequential bucket DP-RAM, verbatim."""

    bucket: int
    download_bucket: int
    contents: dict
    _finished: bool = False


class SequentialBucketDPRAM(BucketDPRAM):
    """The two phases ``BucketDPRAM`` shipped before the round fusion.

    Kept verbatim as the oracle: one bucket per ``begin_query``, each
    query a download round, an overwrite-download round and an upload
    round, every coin drawn where it is used.  ``BucketDPRAM`` must
    reproduce its every answer, coin and stored byte in two rounds.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._pending = set()
        self.pairs = []  # the (d_j, o_j) history the shipped class kept

    def begin_query(self, bucket: int) -> "_SequentialHandle":
        """Run the download phase for ``bucket``.

        Returns a :class:`PendingQuery` carrying the authoritative contents
        of every node of the bucket; pass it to :meth:`finish_query` to run
        the overwrite phase.
        """
        if not 0 <= bucket < len(self._buckets):
            raise RetrievalError(
                f"bucket {bucket} out of range for {len(self._buckets)}"
            )
        if bucket in self._pending:
            raise RetrievalError(
                f"bucket {bucket} already has an unfinished query; "
                "interleaved queries must target distinct buckets"
            )
        self._pending.add(bucket)
        self.server.begin_query(self._queries)
        nodes = self._buckets[bucket]
        if bucket in self._stashed:
            download_bucket = self._rng.randbelow(len(self._buckets))
            # Cover traffic, discarded — one batched round for the bucket.
            self.server.read_many(self._buckets[download_bucket])
            contents = {node: self._overlay[node] for node in nodes}
            self._stashed.remove(bucket)
            for node in nodes:
                self._unpin(node)
            # Overlay entries persist: the server copies are still stale
            # until the overwrite phase uploads fresh ciphertexts.
        else:
            download_bucket = bucket
            contents = {}
            ciphertexts = self.server.read_many(nodes)
            plaintexts = iter(
                decrypt_many(
                    self._key,
                    [
                        ciphertext
                        for node, ciphertext in zip(nodes, ciphertexts)
                        if node not in self._overlay
                    ],
                )
            )
            for node in nodes:
                if node in self._overlay:
                    contents[node] = self._overlay[node]
                else:
                    contents[node] = next(plaintexts)
        return _SequentialHandle(
            bucket=bucket, download_bucket=download_bucket, contents=contents
        )

    def finish_query(
        self,
        pending: "_SequentialHandle",
        new_contents: Mapping[int, bytes] | None = None,
    ) -> None:
        """Run the overwrite phase.

        Args:
            pending: the handle returned by :meth:`begin_query`.
            new_contents: replacement plaintext for any subset of the
                bucket's nodes; omitted nodes keep their downloaded
                contents.  ``None`` performs a fake update (contents
                unchanged), which is what read operations use.
        """
        if pending._finished:
            raise RetrievalError("finish_query called twice on the same handle")
        bucket = pending.bucket
        nodes = self._buckets[bucket]
        contents = dict(pending.contents)
        if new_contents is not None:
            for node, block in new_contents.items():
                if node not in contents:
                    raise StorageError(
                        f"node {node} is not part of bucket {bucket}"
                    )
                contents[node] = bytes(block)
        # Only a validated call consumes the handle: a rejected one leaves
        # it open, so the caller can still run the overwrite phase.
        pending._finished = True
        self._pending.discard(bucket)

        # Both overwrite branches move a whole bucket: one batched
        # download round, then one batched upload round (the per-query
        # event multiset is unchanged; only the within-query interleaving
        # goes from read/write per node to reads-then-writes).
        if self._rng.random() < self._p:
            # Re-stash the queried bucket; cover-rewrite a random bucket.
            self._stashed.add(bucket)
            for node in nodes:
                self._overlay[node] = contents[node]
                self._pin(node)
            overwrite_bucket = self._rng.randbelow(len(self._buckets))
            overwrite_nodes = self._buckets[overwrite_bucket]
            ciphertexts = self.server.read_many(overwrite_nodes)
            # Decrypts consume no client randomness, so hoisting them
            # ahead of the whole-bucket bulk re-encrypt preserves the
            # rng draw order of the per-node formulation exactly.
            plaintexts = iter(
                decrypt_many(
                    self._key,
                    [
                        ciphertext
                        for node, ciphertext in zip(overwrite_nodes, ciphertexts)
                        if node not in self._overlay
                    ],
                )
            )
            authoritative = [
                self._overlay[node]
                if node in self._overlay
                else next(plaintexts)
                for node in overwrite_nodes
            ]
            self.server.write_many(
                list(
                    zip(
                        overwrite_nodes,
                        encrypt_many(self._key, authoritative, self._rng),
                    )
                )
            )
            for node in overwrite_nodes:
                self._evict_if_unpinned(node)
        else:
            overwrite_bucket = bucket
            self.server.read_many(nodes)  # downloaded and discarded
            self.server.write_many(
                list(
                    zip(
                        nodes,
                        encrypt_many(
                            self._key,
                            [contents[node] for node in nodes],
                            self._rng,
                        ),
                    )
                )
            )
            for node in nodes:
                if node in self._overlay:
                    # A stashed sibling pins this node; keep the overlay in
                    # sync with the value just uploaded.
                    self._overlay[node] = contents[node]
                self._evict_if_unpinned(node)

        self._note_peak()
        self.pairs.append((pending.download_bucket, overwrite_bucket))
        self._queries += 1


class _SequentialBatches:
    """The batch interface over the oracle, driven as the sequential
    DP-KVS drove it: every download phase, then every overwrite phase,
    each rewrite routed to every bucket holding the node."""

    def __init__(self, *args, **kwargs):
        self._ram = SequentialBucketDPRAM(*args, **kwargs)

    def begin_query(self, buckets):
        handles = [self._ram.begin_query(bucket) for bucket in buckets]
        return types.SimpleNamespace(
            handles=handles, contents=[handle.contents for handle in handles]
        )

    def finish_query(self, pending, new_contents=None):
        for handle in pending.handles:
            relevant = {
                node: block
                for node, block in (new_contents or {}).items()
                if node in handle.contents
            }
            self._ram.finish_query(handle, relevant if relevant else None)

    def batch(self, buckets, transform=None):
        pending = self.begin_query(buckets)
        try:
            new_contents = transform(pending.contents) if transform else None
        except Exception:
            self.finish_query(pending)
            raise
        self.finish_query(pending, new_contents)
        return pending.contents

    def __getattr__(self, name):
        return getattr(self._ram, name)


def _ram_state(ram):
    """Everything the fusion must leave where the oracle puts it; what
    the server saw on the way is compared through φ, by ``_server_view``."""
    return (
        ram.pairs,
        _server_image(ram),
        ram._overlay,
        ram._stashed,
        ram._pins,
    )


def _held_upload_at_most(fused, oracle, blocks):
    """The fused client's peak is the oracle's plus, at most, the sealed
    upload it holds between requests — which the oracle never holds."""
    return 0 <= fused.client_peak_blocks - oracle.client_peak_blocks <= blocks


def _server_view(signature):
    """A view's events per query, up to their order inside the query,
    and its ``(downloads, uploads)`` totals."""
    by_query = {}
    for event in signature:
        by_query.setdefault(event[3], []).append(event)
    downloads = sum(event[0] == "download" for event in signature)
    return (
        {query: sorted(events) for query, events in by_query.items()},
        (downloads, len(signature) - downloads),
    )


# Differing bucket lengths move the nonce draws; buckets 0 and 1 of the
# second repertoire are one node set under two ids.
_REPERTOIRES = {
    "shared-ancestor": (7, [(0, 4, 6), (1, 4, 6), (2, 5, 6), (3, 5, 6)]),
    "identical-buckets": (6, [(0, 1, 2), (0, 1, 2), (3, 1, 2), (4,), (5, 2)]),
}


class TestBucketRAMRoundFusionIdentity:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("p", [0.05, 0.5, 1.0])
    @pytest.mark.parametrize("repertoire", sorted(_REPERTOIRES))
    def test_batches_match_the_sequential_oracle(
        self, repertoire, p, seed, phi
    ):
        node_count, buckets = _REPERTOIRES[repertoire]
        blocks = [bytes([node]) * 6 for node in range(node_count)]
        fused, oracle = rams = [
            build(blocks, buckets, p, rng=SeededRandomSource(seed))
            for build in (BucketDPRAM, _SequentialBatches)
        ]
        _recording(fused)
        plan = random.Random(seed)
        saved_downloads = saved_uploads = 0
        for step in range(300):
            batch = plan.sample(range(len(buckets)), plan.randint(1, 3))
            nodes = sorted({node for b in batch for node in buckets[b]})
            updates = {
                node: bytes([step % 256, node]) * 3
                for node in plan.sample(nodes, plan.randint(0, len(nodes)))
            }
            answers, states, views, moved = [], [], [], []
            for ram in rams:
                transcript = Transcript()
                ram.server.attach_transcript(transcript)
                before = (ram.server.reads, ram.server.writes)
                pending = ram.begin_query(batch)
                answers.append(pending.contents)
                ram.finish_query(pending, updates)
                ram.flush()  # the oracle uploads inside finish_query
                states.append(_ram_state(ram))
                views.append(transcript.signature())
                moved.append(
                    (ram.server.reads - before[0], ram.server.writes - before[1])
                )
            assert answers[0] == answers[1]
            assert states[0] == states[1]
            # The fused rounds show the server φ of the paper-shaped view:
            # every node of d ‖ o downloaded once, every node of o
            # uploaded once — the last copy, which is the one the oracle's
            # server ends up holding (the images above are equal).
            assert _server_view(views[0]) == _server_view(phi(views[1]))
            assert _server_view(views[0])[1] == moved[0]
            for kind in ("download", "upload"):
                slots = [e[2] for e in views[0] if e[0] == kind]
                assert len(slots) == len(set(slots))
            saved_downloads += moved[1][0] - moved[0][0]
            saved_uploads += moved[1][1] - moved[0][1]
        # Both repertoires share nodes between buckets, so both rounds met
        # a repeat: d_j = o_j in the download round, a node common to
        # o_1 and o_2 in the upload round.
        assert saved_downloads > 0 and saved_uploads > 0
        assert _held_upload_at_most(fused, oracle, node_count)
        assert fused._rng.random() == oracle._rng.random()

    @pytest.mark.parametrize("capacity", [64, 256, 4096])
    def test_dp_kvs_matches_the_sequential_oracle(self, capacity, phi):
        fused = _recording(DPKVS(capacity, rng=SeededRandomSource(capacity)))
        with mock.patch("repro.core.dp_kvs.BucketDPRAM", _SequentialBatches):
            oracle = DPKVS(capacity, rng=SeededRandomSource(capacity))
        assert isinstance(oracle._ram, _SequentialBatches)
        transcripts = [Transcript(), Transcript()]
        for store, transcript in zip((fused, oracle), transcripts):
            store.server.attach_transcript(transcript)
        plan = random.Random(capacity)
        worst_case = fused.blocks_per_operation()
        for step in range(600):
            key = b"key-%05d" % plan.randrange(capacity)
            roll = plan.random()
            moved = [store.server.operations for store in (fused, oracle)]
            if roll < 0.5:
                value = b"value-%06d" % step
                assert fused.put(key, value) == oracle.put(key, value)
            elif roll < 0.85:
                assert fused.get(key) == oracle.get(key)
            else:
                assert fused.delete(key) == oracle.delete(key)
            fused.flush()  # the oracle uploads inside the operation
            # The paper's figure is what the oracle moves, every time;
            # the fused rounds stay at or under it.
            assert oracle.server.operations - moved[1] == worst_case
            assert fused.server.operations - moved[0] <= worst_case
        assert _ram_state(fused._ram) == _ram_state(oracle._ram)
        fused_view = transcripts[0].signature()
        assert _server_view(fused_view) == _server_view(
            phi(transcripts[1].signature())
        )
        assert _server_view(fused_view)[1] == (
            fused.server.reads, fused.server.writes
        )
        assert _held_upload_at_most(
            fused, oracle, 2 * fused.params.shape.path_length
        )
        assert fused.size == oracle.size
        assert fused._ram._rng.random() == oracle._ram._rng.random()
        assert fused._rng.random() == oracle._rng.random()

    def test_one_roundtrip_per_operation(self):
        store = DPKVS(256, rng=SeededRandomSource(3),
                      backend_factory=NetworkBackendFactory(LAN))
        (server,) = store.servers()
        for step in range(50):
            store.put(b"key-%03d" % (step % 20), b"value-%03d" % step)
            store.get(b"key-%03d" % (step % 31))
            store.delete(b"key-%03d" % (step % 7))
        assert server.backend.roundtrips == store.operation_count == 150
        store.flush()  # the last upload, which no next request carried
        assert server.backend.roundtrips == 151


class TestBucketDPRAMModel:
    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 255)), max_size=30
        ),
        seed=st.integers(0, 2**32),
        p=st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_overlapping_buckets_consistent(self, ops, seed, p):
        # 4 buckets sharing node 8 plus pairwise shared mid nodes.
        buckets = [(0, 4, 8), (1, 4, 8), (2, 5, 8), (3, 5, 8)]
        blocks = [bytes([i]) * 4 for i in range(9)]
        ram = BucketDPRAM(blocks, buckets, stash_probability=p,
                          rng=SeededRandomSource(seed))
        model = {node: blocks[node] for node in range(9)}
        for bucket, payload in ops:
            target = buckets[bucket][payload % 3]
            value = bytes([payload]) * 4
            snapshot = ram.query(bucket, new_contents={target: value})
            for node in buckets[bucket]:
                assert snapshot[node] == model[node]
            model[target] = value


kv_ops = st.lists(
    st.tuples(
        st.sampled_from(["get", "put", "delete"]),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=255),
    ),
    max_size=30,
)


class TestDPKVSModel:
    @given(ops=kv_ops, seed=st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_matches_dict_model(self, ops, seed):
        store = DPKVS(64, key_size=4, value_size=4,
                      rng=SeededRandomSource(seed))
        model: dict[bytes, bytes] = {}
        for kind, key_id, payload in ops:
            key = f"k{key_id:02d}".encode()
            if kind == "get":
                value = store.get(key)
                if key.ljust(4, b"\x00") in model:
                    assert value == model[key.ljust(4, b"\x00")]
                else:
                    assert value is None
            elif kind == "put":
                value = bytes([payload]) * 4
                store.put(key, value)
                model[key.ljust(4, b"\x00")] = value
            else:
                existed = store.delete(key)
                assert existed == (key.ljust(4, b"\x00") in model)
                model.pop(key.ljust(4, b"\x00"), None)

    def test_server_image_pinned_across_cipher_rewrites(self):
        # SHA-256 of every server slot after a seeded history: 330-byte
        # node blocks go through the bulk cipher on every query, so one
        # differing keystream byte or nonce draw changes the digest.
        # Re-pinned once, by PR 19 — the one deliberate format change
        # (HMAC-counter keystream -> keyed SHAKE-256); before it the digest
        # had held since the commit before the PBKDF2 keystream.  A rewrite
        # that keeps the construction must not move it.
        store = DPKVS(1024, value_size=64, rng=SeededRandomSource(17))
        plan = random.Random(19)
        for step in range(500):
            key = b"key-%04d" % plan.randrange(700)
            roll = plan.random()
            if roll < 0.5:
                store.put(key, b"value-%06d" % step)
            elif roll < 0.9:
                store.get(key)
            else:
                store.delete(key)
        store.flush()
        assert store.block_size == 330
        assert hashlib.sha256(b"".join(_server_image(store))).hexdigest() == (
            "270d16051601f7313cacd62a369c81e95887f79a0b35d673e281f4cf76f82f75"
        )

    @given(seed=st.integers(0, 2**32))
    @example(seed=6581)
    @settings(max_examples=20, deadline=None)
    def test_operation_cost_bounded_for_fixed_n(self, seed):
        # An operation downloads the distinct nodes of d_1 ‖ d_2 ‖ o_1 ‖ o_2
        # and uploads those of o_1 ‖ o_2.  2·3·path_length is the worst
        # case (every node distinct); at least one path goes each way.
        # Both queries can land on one path: seed 6581's first put finds
        # its first bucket stashed, draws the second bucket as d_1 = o_1,
        # and the second query keeps d_2 = o_2, so it moves exactly
        # 2·path_length.
        store = DPKVS(64, key_size=4, value_size=4,
                      rng=SeededRandomSource(seed))
        layout = TreeBucketLayout(store.params.shape)
        log = record_bucket_pairs(store._ram)
        worst_case = store.blocks_per_operation()
        path_length = store.params.shape.path_length
        for i in range(10):
            before = store.server.operations
            seen = len(log)
            store.put(f"k{i}".encode(), b"v")
            store.flush()
            moved = store.server.operations - before
            pairs = log[seen:]
            downloaded = {
                node for pair in pairs for leaf in pair
                for node in layout.path_nodes(leaf)
            }
            uploaded = {
                node for _, leaf in pairs for node in layout.path_nodes(leaf)
            }
            assert len(pairs) == 2
            assert moved == len(downloaded) + len(uploaded)
            assert 2 * path_length <= moved <= worst_case
