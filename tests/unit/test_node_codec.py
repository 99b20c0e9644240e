"""Tests for repro.hashing.node_codec."""

import pytest

from repro.hashing.node_codec import NodeCodec, NodeEntry
from repro.storage.errors import BlockSizeError, CapacityError


@pytest.fixture
def codec():
    return NodeCodec(capacity=3, key_size=4, value_size=6)


class TestPackUnpack:
    def test_roundtrip_empty(self, codec):
        assert codec.unpack(codec.pack([])) == []

    def test_roundtrip_entries(self, codec):
        entries = [
            NodeEntry(b"k001", b"value1"),
            NodeEntry(b"k002", b"value2"),
        ]
        assert codec.unpack(codec.pack(entries)) == entries

    def test_roundtrip_full(self, codec):
        entries = [NodeEntry(f"k{i:03d}".encode(), b"v" * 6) for i in range(3)]
        assert codec.unpack(codec.pack(entries)) == entries

    def test_block_size_fixed(self, codec):
        assert len(codec.pack([])) == codec.block_size
        assert len(codec.pack([NodeEntry(b"abcd", b"123456")])) == codec.block_size

    def test_block_size_formula(self, codec):
        assert codec.block_size == 2 + 3 * (4 + 6)

    def test_empty_helper(self, codec):
        assert codec.empty() == codec.pack([])

    def test_overflow_rejected(self, codec):
        entries = [NodeEntry(b"aaaa", b"bbbbbb")] * 4
        with pytest.raises(CapacityError):
            codec.pack(entries)

    def test_bad_key_size_rejected(self, codec):
        with pytest.raises(BlockSizeError):
            codec.pack([NodeEntry(b"toolongkey", b"bbbbbb")])

    def test_bad_value_size_rejected(self, codec):
        with pytest.raises(BlockSizeError):
            codec.pack([NodeEntry(b"abcd", b"short")])

    def test_unpack_wrong_size_rejected(self, codec):
        with pytest.raises(BlockSizeError):
            codec.unpack(b"\x00" * (codec.block_size + 1))

    def test_unpack_corrupt_count_rejected(self, codec):
        block = bytearray(codec.empty())
        block[0:2] = (99).to_bytes(2, "big")
        with pytest.raises(CapacityError):
            codec.unpack(bytes(block))


class TestNormalization:
    def test_key_padding(self, codec):
        assert codec.normalize_key(b"ab") == b"ab\x00\x00"

    def test_key_exact(self, codec):
        assert codec.normalize_key(b"abcd") == b"abcd"

    def test_key_too_long(self, codec):
        with pytest.raises(BlockSizeError):
            codec.normalize_key(b"abcde")

    def test_canonical_key_is_the_shortest_spelling(self, codec):
        # Equal exactly when the normalized keys are, and itself a
        # spelling of the key; a key no node can hold has none.
        spellings = [b"ab", b"ab\x00", b"ab\x00\x00"]
        assert {codec.canonical_key(key) for key in spellings} == {b"ab"}
        assert codec.normalize_key(codec.canonical_key(b"ab\x00")) == (
            codec.normalize_key(b"ab")
        )
        assert codec.canonical_key(b"a\x00b") == b"a\x00b"
        assert codec.canonical_key(b"\x00\x00") == b""
        with pytest.raises(BlockSizeError):
            codec.canonical_key(b"abcd\x00")

    def test_value_padding(self, codec):
        assert codec.normalize_value(b"xy") == b"xy" + b"\x00" * 4

    def test_value_too_long(self, codec):
        with pytest.raises(BlockSizeError):
            codec.normalize_value(b"x" * 7)


class TestValidation:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            NodeCodec(capacity=0, key_size=4, value_size=4)

    def test_rejects_bad_key_size(self):
        with pytest.raises(ValueError):
            NodeCodec(capacity=1, key_size=0, value_size=4)

    def test_zero_value_size_allowed(self):
        codec = NodeCodec(capacity=2, key_size=4, value_size=0)
        entries = [NodeEntry(b"abcd", b"")]
        assert codec.unpack(codec.pack(entries)) == entries
