"""Tests for repro.storage.server."""

import pytest

from repro.obs.instrument import StorageObserver
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.storage.errors import BlockSizeError, StorageError
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
