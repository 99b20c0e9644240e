"""Tests for repro.storage.transcript."""

import pytest

from repro.storage.transcript import AccessEvent, AccessKind, Transcript


def _download(index, query=0, server=0):
    return AccessEvent(AccessKind.DOWNLOAD, index, server=server, query=query)


def _upload(index, query=0, server=0):
    return AccessEvent(AccessKind.UPLOAD, index, server=server, query=query)


class TestTranscript:
    def test_append_and_len(self):
        transcript = Transcript()
        transcript.append(_download(1))
        transcript.append(_upload(2))
        assert len(transcript) == 2

    def test_downloads_uploads_split(self):
        transcript = Transcript()
        transcript.extend([_download(1), _upload(2), _download(3)])
        assert [e.index for e in transcript.downloads()] == [1, 3]
        assert [e.index for e in transcript.uploads()] == [2]

    def test_touched_indices_per_server(self):
        transcript = Transcript()
        transcript.extend([_download(1, server=0), _download(2, server=1)])
        assert transcript.touched_indices(0) == [1]
        assert transcript.touched_indices(1) == [2]

    def test_for_query(self):
        transcript = Transcript()
        transcript.extend([_download(1, query=0), _download(2, query=1)])
        assert [e.index for e in transcript.for_query(1)] == [2]

    def test_query_count(self):
        transcript = Transcript()
        transcript.extend(
            [_download(0, query=0), _download(0, query=2), _download(0, query=-1)]
        )
        assert transcript.query_count() == 2

    def test_signature_hashable_and_order_sensitive(self):
        a = Transcript()
        a.extend([_download(1), _download(2)])
        b = Transcript()
        b.extend([_download(2), _download(1)])
        assert hash(a.signature()) != hash(b.signature()) or a.signature() != b.signature()

    def test_signature_equal_for_equal_views(self):
        a = Transcript()
        b = Transcript()
        for transcript in (a, b):
            transcript.extend([_download(1), _upload(3)])
        assert a.signature() == b.signature()

    def test_dp_ram_pairs_happy_path(self):
        transcript = Transcript()
        transcript.extend(
            [
                _download(4, query=0), _download(7, query=0), _upload(7, query=0),
                _download(1, query=1), _download(1, query=1), _upload(1, query=1),
            ]
        )
        assert transcript.dp_ram_pairs() == [(4, 7), (1, 1)]

    def test_dp_ram_pairs_ignores_setup_events(self):
        transcript = Transcript()
        transcript.append(_download(9, query=-1))
        transcript.extend(
            [_download(0, query=0), _download(2, query=0), _upload(2, query=0)]
        )
        assert transcript.dp_ram_pairs() == [(0, 2)]

    def test_dp_ram_pairs_reads_a_deduplicated_round(self):
        # d_j == o_j is sent as one download: (D i, U i) is the pair (i, i),
        # next to a three-event query and the paper-shaped (D i, D i, U i).
        transcript = Transcript()
        transcript.extend(
            [
                _download(5, query=0), _upload(5, query=0),
                _download(4, query=1), _download(7, query=1), _upload(7, query=1),
                _download(2, query=2), _download(2, query=2), _upload(2, query=2),
            ]
        )
        assert transcript.dp_ram_pairs() == [(5, 5), (4, 7), (2, 2)]

    @pytest.mark.parametrize(
        "events",
        [
            [_download(0)],
            [_upload(0)],
            [_download(0), _download(1), _download(1), _upload(1)],
        ],
        ids=["lone-download", "lone-upload", "four-events"],
    )
    def test_dp_ram_pairs_rejects_wrong_event_count(self, events):
        transcript = Transcript()
        transcript.extend(events)
        with pytest.raises(ValueError, match="expected 2 or 3"):
            transcript.dp_ram_pairs()

    @pytest.mark.parametrize(
        "events",
        [
            [_download(0), _upload(1)],
            [_download(0), _download(0)],
            [_upload(0), _download(0)],
            [_upload(0), _upload(0)],
            [_download(0), _download(1), _upload(2)],
            [_download(0), _upload(1), _upload(1)],
        ],
        ids=[
            "two-slots", "two-downloads", "upload-first", "two-uploads",
            "upload-elsewhere", "three-with-two-uploads",
        ],
    )
    def test_dp_ram_pairs_rejects_wrong_shape(self, events):
        transcript = Transcript()
        transcript.extend(events)
        with pytest.raises(ValueError, match="does not match DP-RAM shape"):
            transcript.dp_ram_pairs()

    def test_iteration(self):
        transcript = Transcript()
        events = [_download(5), _upload(6)]
        transcript.extend(events)
        assert list(transcript) == events
