"""Tests for repro.storage.server."""

import pytest

from repro.obs.instrument import StorageObserver
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.storage.backends import InMemoryBackend, NetworkBackend
from repro.storage.errors import BlockSizeError, StorageError
from repro.storage.faults import ServerFault
from repro.storage.held import HeldRequest
from repro.storage.network import LAN
from repro.storage.server import ServerPool, StorageServer
from repro.storage.transcript import AccessKind, Transcript


class TestStorageServer:
    def test_load_then_read(self, tiny_db):
        server = StorageServer(len(tiny_db))
        server.load(tiny_db)
        assert server.read(3) == tiny_db[3]

    def test_write_then_read(self, tiny_db):
        server = StorageServer(len(tiny_db))
        server.load(tiny_db)
        server.write(2, b"fresh")
        assert server.read(2) == b"fresh"

    def test_counters(self, tiny_db):
        server = StorageServer(len(tiny_db))
        server.load(tiny_db)
        server.read(0)
        server.read(1)
        server.write(0, b"w")
        assert server.reads == 2
        assert server.writes == 1
        assert server.operations == 3

    def test_load_does_not_count(self, tiny_db):
        server = StorageServer(len(tiny_db))
        server.load(tiny_db)
        assert server.operations == 0

    def test_reset_counters_keeps_data(self, tiny_db):
        server = StorageServer(len(tiny_db))
        server.load(tiny_db)
        server.read(0)
        server.reset_counters()
        assert server.operations == 0
        assert server.read(0) == tiny_db[0]

    def test_read_out_of_range(self, tiny_db):
        server = StorageServer(len(tiny_db))
        server.load(tiny_db)
        with pytest.raises(StorageError):
            server.read(len(tiny_db))
        with pytest.raises(StorageError):
            server.read(-1)

    def test_read_unwritten_slot(self):
        server = StorageServer(4)
        with pytest.raises(StorageError):
            server.read(0)

    def test_load_wrong_count(self, tiny_db):
        server = StorageServer(4)
        with pytest.raises(StorageError):
            server.load(tiny_db)

    def test_block_size_validation(self):
        server = StorageServer(2, block_size=4)
        server.write(0, b"abcd")
        with pytest.raises(BlockSizeError):
            server.write(1, b"toolong")

    def test_negative_capacity(self):
        with pytest.raises(StorageError):
            StorageServer(-1)

    def test_transcript_recording(self, tiny_db):
        server = StorageServer(len(tiny_db))
        server.load(tiny_db)
        transcript = Transcript()
        server.attach_transcript(transcript)
        server.begin_query(0)
        server.read(5)
        server.write(5, b"x")
        assert len(transcript) == 2
        first, second = transcript.events
        assert first.kind is AccessKind.DOWNLOAD and first.index == 5
        assert second.kind is AccessKind.UPLOAD and second.index == 5
        assert first.query == 0

    def test_detach_transcript(self, tiny_db):
        server = StorageServer(len(tiny_db))
        server.load(tiny_db)
        transcript = Transcript()
        server.attach_transcript(transcript)
        returned = server.detach_transcript()
        assert returned is transcript
        server.read(0)
        assert len(transcript) == 0

    def test_attach_observer_refuses_disabled_observers(self, tiny_db):
        # "Observability off costs one ``is not None``" is structural: a
        # disabled observer never reaches the slot the batched rounds
        # test, and offering one unhooks whatever was attached before.
        server = StorageServer(len(tiny_db))
        live = StorageObserver(Tracer("live"), None)
        for refused in (StorageObserver(NULL_TRACER, None), None):
            server.attach_observer(live)
            server.attach_observer(refused)
            assert server.detach_observer() is None
        server.attach_observer(live)
        assert server.detach_observer() is live
        assert server.detach_observer() is None

    def test_peek_does_not_count(self, tiny_db):
        server = StorageServer(len(tiny_db))
        server.load(tiny_db)
        assert server.peek(1) == tiny_db[1]
        assert server.operations == 0

    def test_write_stores_copy(self):
        server = StorageServer(1)
        payload = bytearray(b"mutable")
        server.write(0, payload)
        payload[0] = 0
        assert server.read(0) == b"mutable"


class TestServerPool:
    def test_replicas_hold_same_data(self, tiny_db):
        pool = ServerPool(3, len(tiny_db))
        pool.load_replicas(tiny_db)
        for server in pool:
            assert server.read(2) == tiny_db[2]

    def test_total_operations(self, tiny_db):
        pool = ServerPool(2, len(tiny_db))
        pool.load_replicas(tiny_db)
        pool[0].read(0)
        pool[1].read(0)
        pool[1].read(1)
        assert pool.total_operations() == 3

    def test_server_ids(self, tiny_db):
        pool = ServerPool(3, len(tiny_db))
        assert [server.server_id for server in pool] == [0, 1, 2]

    def test_rejects_zero_servers(self):
        with pytest.raises(StorageError):
            ServerPool(0, 4)

    def test_corrupted_view_filters(self, tiny_db):
        pool = ServerPool(2, len(tiny_db))
        pool.load_replicas(tiny_db)
        combined = Transcript()
        pool.attach_transcript(combined)
        pool.begin_query(0)
        pool[0].read(1)
        pool[1].read(2)
        view = ServerPool.corrupted_view(combined, {1})
        assert [event.index for event in view] == [2]
        assert all(event.server == 1 for event in view)

    def test_len(self, tiny_db):
        assert len(ServerPool(5, len(tiny_db))) == 5


class TestReadManyWireProtocol:
    def test_read_many_returns_blocks_in_order(self, tiny_db):
        server = StorageServer(len(tiny_db))
        server.load(tiny_db)
        assert server.read_many([3, 0, 5]) == [
            tiny_db[3], tiny_db[0], tiny_db[5]
        ]
        assert server.reads == 3

    def test_read_many_accepts_ranges(self, tiny_db):
        server = StorageServer(len(tiny_db))
        server.load(tiny_db)
        assert server.read_many(range(len(tiny_db))) == list(tiny_db)

    def test_read_many_records_one_event_per_slot(self, tiny_db):
        server = StorageServer(len(tiny_db))
        server.load(tiny_db)
        transcript = Transcript()
        server.attach_transcript(transcript)
        server.begin_query(4)
        server.read_many([1, 2, 1])
        assert [e.index for e in transcript] == [1, 2, 1]
        assert all(e.kind is AccessKind.DOWNLOAD for e in transcript)
        assert all(e.query == 4 for e in transcript)

    def test_read_many_validates_before_counting(self, tiny_db):
        server = StorageServer(len(tiny_db))
        server.load(tiny_db)
        with pytest.raises(StorageError):
            server.read_many([0, len(tiny_db)])
        with pytest.raises(StorageError):
            server.read_many([0, -1])
        assert server.reads == 0

    def test_write_many_then_read_many(self, tiny_db):
        server = StorageServer(len(tiny_db))
        server.load(tiny_db)
        server.write_many([(0, b"aa"), (3, b"bb")])
        assert server.writes == 2
        assert server.read_many([0, 3]) == [b"aa", b"bb"]

    def test_write_many_checks_block_size(self):
        server = StorageServer(4, block_size=2)
        with pytest.raises(BlockSizeError):
            server.write_many([(0, b"ok"), (1, b"toolong")])
        # Validation precedes dispatch: nothing was written or counted.
        assert server.writes == 0
        assert server.peek(0) is None

    def test_empty_batches_are_noops(self, tiny_db):
        server = StorageServer(len(tiny_db))
        server.load(tiny_db)
        assert server.read_many([]) == []
        server.write_many([])
        assert server.operations == 0


def _observable(server):
    backend = server.backend
    return (
        server.reads, server.writes,
        [server.peek(slot) for slot in range(server.capacity)],
        getattr(backend, "roundtrips", 0), getattr(backend, "simulated_ms", 0),
    )


class TestOnlyBytesAreStored:
    # A ciphertext server has no block size to check against, and every
    # backend calls ``bytes()`` on what it is handed: ``bytes(5)`` is five
    # NULs and ``bytes(None)`` raises — after the write was counted, a
    # sibling slot committed and, on a network backend, nothing charged.
    # The twins below never made the rejected call.

    @staticmethod
    def _pair(tiny_db, network):
        servers = [
            StorageServer(
                len(tiny_db),
                backend=NetworkBackend(len(tiny_db), LAN) if network else None,
            )
            for _ in range(2)
        ]
        for server in servers:
            server.load(tiny_db)
            server.attach_transcript(Transcript())
        return servers

    @pytest.mark.parametrize("network", [False, True])
    @pytest.mark.parametrize("bad", [5, None, "text", 1.5, [1, 2]])
    def test_write_refuses_what_is_not_bytes(self, tiny_db, network, bad):
        server, twin = self._pair(tiny_db, network)
        with pytest.raises(TypeError, match="slot 0 needs a bytes-like"):
            server.write(0, bad)
        assert _observable(server) == _observable(twin)
        assert len(server.detach_transcript()) == 0

    @pytest.mark.parametrize("network", [False, True])
    @pytest.mark.parametrize("bad", [5, None, "text"])
    def test_write_many_refuses_before_any_slot_is_stored(
        self, tiny_db, network, bad
    ):
        server, twin = self._pair(tiny_db, network)
        with pytest.raises(TypeError, match="slot 2 needs a bytes-like"):
            server.write_many([(1, b"zzzz"), (2, bad)])
        assert _observable(server) == _observable(twin)
        with pytest.raises(TypeError, match="slot 2 needs a bytes-like"):
            server.exchange(0, [0], held=(0, [(1, b"zzzz"), (2, bad)]))
        assert _observable(server) == _observable(twin)
        assert len(server.detach_transcript()) == 0

    def test_every_bytes_like_is_stored_as_bytes(self, tiny_db):
        class Sealed(bytes):
            """A subclass is still bytes."""

        server = StorageServer(len(tiny_db))
        server.load(tiny_db)
        server.write(0, bytearray(b"ab"))
        server.write_many(
            [(1, memoryview(b"cd")), (2, Sealed(b"ef")), (3, b"gh")]
        )
        assert server.read_many([0, 1, 2, 3]) == [b"ab", b"cd", b"ef", b"gh"]
        assert {type(server.peek(slot)) for slot in range(3)} == {bytes}
        assert server.writes == 4

    def test_writes_count_once_the_backend_took_them(self, tiny_db):
        class Full(Exception):
            pass

        class FullBackend(InMemoryBackend):
            def write_slot(self, index, block):
                raise Full

            def write_slots(self, items):
                raise Full

        server = StorageServer(
            len(tiny_db), backend=FullBackend(len(tiny_db))
        )
        server.load(tiny_db)
        for call in (
            lambda: server.write(0, b"zz"),
            lambda: server.write_many([(0, b"zz")]),
            lambda: server.exchange(0, [1], held=(0, [(0, b"zz")])),
        ):
            with pytest.raises(Full):
                call()
        assert server.operations == 0


class TestHeldRequest:
    _UPLOAD = [(0, b"new0"), (3, b"new3")]

    @staticmethod
    def _links(tiny_db, network=False):
        links = []
        for _ in range(2):
            server = StorageServer(
                len(tiny_db),
                backend=NetworkBackend(len(tiny_db), LAN) if network else None,
            )
            server.load(tiny_db)
            server.attach_transcript(Transcript())
            links.append(HeldRequest(server))
        return links

    def test_a_faulted_request_keeps_the_upload_and_sends_it_again(
        self, tiny_db, fail_rounds
    ):
        link, twin = self._links(tiny_db)
        for each in (link, twin):
            each.hold(6, self._UPLOAD)
        held = link.held
        fail_rounds(link, True)
        with pytest.raises(ServerFault):
            link.send(7, [3, 1])
        assert link.held is held and link.blocks == 2
        # The twin never sent the faulted request: the one that goes out
        # now is the same, byte for byte.
        assert link.send(7, [3, 1]) == twin.send(7, [3, 1]) == [
            b"new3", tiny_db[1],
        ]
        assert _observable(link.server) == _observable(twin.server)
        assert (
            link.server.detach_transcript().signature()
            == twin.server.detach_transcript().signature()
        )

    def test_a_flush_alone_is_one_roundtrip_and_a_second_sends_nothing(
        self, tiny_db
    ):
        link, twin = self._links(tiny_db, network=True)
        link.hold(6, self._UPLOAD)
        link.flush()
        twin.server.begin_query(6)
        twin.server.write_many(self._UPLOAD)
        assert link.server.backend.roundtrips == 1
        assert _observable(link.server) == _observable(twin.server)
        assert link.held is None
        link.flush()
        assert _observable(link.server) == _observable(twin.server)
        assert (
            link.server.detach_transcript().signature()
            == twin.server.detach_transcript().signature()
            == (("upload", 0, 0, 6), ("upload", 0, 3, 6))
        )

    def test_blocks_counts_the_upload_until_it_lands(self, tiny_db):
        link, _ = self._links(tiny_db)
        assert (link.held, link.blocks) == (None, 0)
        link.hold(6, self._UPLOAD)
        assert link.blocks == 2
        link.send(7, [1])
        # Landed, and kept until the operation commits in its place.
        assert (link.held, link.blocks) == ((6, self._UPLOAD), 0)
        link.hold(7, [(1, b"new1")])
        assert link.blocks == 1
        link.flush()
        assert (link.held, link.blocks) == (None, 0)
        assert link.server.writes == 3

    def test_shared_items_go_neither_way_and_stay_held(self, tiny_db):
        link, _ = self._links(tiny_db, network=True)
        link.hold(6, self._UPLOAD)
        # Slot 3 is the upload's last item: the caller has it, and
        # downloads only slot 1.
        assert link.send(7, [1], shared=1) == [tiny_db[1]]
        assert (link.held, link.blocks) == ((6, self._UPLOAD), 1)
        # Never committed: the next request sends slot 3 after all.
        link.send(8, [2])
        assert link.server.peek(3) == b"new3" and link.blocks == 0
        assert link.server.backend.roundtrips == 2
        assert link.server.detach_transcript().signature() == (
            ("upload", 0, 0, 6), ("download", 0, 1, 7),
            ("upload", 0, 3, 6), ("download", 0, 2, 8),
        )

    def test_a_request_with_nothing_to_move_is_not_sent(self, tiny_db):
        link, _ = self._links(tiny_db, network=True)
        link.hold(6, self._UPLOAD)
        assert link.send(7, [], shared=2) == []
        assert link.server.backend.roundtrips == 0
        assert link.blocks == 2
        with pytest.raises(ValueError):
            link.send(7, [1], shared=3)  # more than is unsent
        assert link.server.backend.roundtrips == 0
        assert link.blocks == 2


class TestExchange:
    def test_is_a_write_many_then_a_read_many(self, tiny_db):
        held = (6, [(0, b"new0"), (3, b"new3")])
        one, two = servers = [StorageServer(len(tiny_db)) for _ in range(2)]
        views = [Transcript(), Transcript()]
        for server, view in zip(servers, views):
            server.load(tiny_db)
            server.attach_transcript(view)
        # The server applies the upload before it reads: slot 3 comes
        # back fresh.
        assert one.exchange(7, [3, 1], held) == [b"new3", tiny_db[1]]
        two.begin_query(6)
        two.write_many(held[1])
        two.begin_query(7)
        assert two.read_many([3, 1]) == [b"new3", tiny_db[1]]
        assert _observable(one) == _observable(two)
        # Upload events keep the query that produced them.
        assert views[0].signature() == views[1].signature() == (
            ("upload", 0, 0, 6), ("upload", 0, 3, 6),
            ("download", 0, 3, 7), ("download", 0, 1, 7),
        )

    def test_with_nothing_held_it_is_a_read_many(self, tiny_db):
        server = StorageServer(len(tiny_db))
        server.load(tiny_db)
        view = Transcript()
        server.attach_transcript(view)
        assert server.exchange(2, [1, 0]) == [tiny_db[1], tiny_db[0]]
        assert (server.reads, server.writes) == (2, 0)
        assert [event.query for event in view] == [2, 2]

    def test_is_one_roundtrip_carrying_every_byte(self, tiny_db):
        bracketed, separate = backends = [
            NetworkBackend(len(tiny_db), LAN) for _ in range(2)
        ]
        servers = [
            StorageServer(len(tiny_db), backend=backend) for backend in backends
        ]
        for server in servers:
            server.load(tiny_db)
        items = [(0, b"x" * 40), (1, b"y" * 40)]
        servers[0].exchange(1, [2, 3, 4], (0, items))
        servers[1].write_many(items)
        servers[1].read_many([2, 3, 4])
        assert (bracketed.roundtrips, separate.roundtrips) == (1, 2)
        # No byte is discounted: the two differ by one RTT exactly.
        assert separate.simulated_ms - bracketed.simulated_ms == pytest.approx(
            LAN.rtt_ms
        )
        # Outside a bracket a call is priced as before.
        servers[0].read_many([0])
        servers[0].write(1, b"z")
        assert bracketed.roundtrips == 3

    def test_a_failed_read_closes_the_bracket(self, tiny_db):
        backend = NetworkBackend(len(tiny_db), LAN)
        server = StorageServer(len(tiny_db), backend=backend)
        server.load(tiny_db)
        with pytest.raises(StorageError):
            server.exchange(1, [len(tiny_db)], (0, [(0, b"landed")]))
        # The upload had landed — sending it again is harmless — and was
        # charged as the one request it was.
        assert server.peek(0) == b"landed"
        assert (server.writes, server.reads, backend.roundtrips) == (1, 0, 1)
        server.read_many([0])
        assert backend.roundtrips == 2
