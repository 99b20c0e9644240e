"""Tests for repro.storage.blocks."""

import pytest

from repro.storage.blocks import (
    DEFAULT_BLOCK_SIZE,
    check_block,
    decode_int,
    encode_int,
    integer_database,
    make_block,
    uniform_block_size,
    zero_block,
)
from repro.storage.errors import BlockSizeError


class TestMakeBlock:
    def test_pads_to_size(self):
        block = make_block(b"abc", 16)
        assert len(block) == 16
        assert block.startswith(b"abc")

    def test_exact_size_untouched(self):
        payload = b"x" * 16
        assert make_block(payload, 16) == payload

    def test_rejects_oversize(self):
        with pytest.raises(BlockSizeError):
            make_block(b"x" * 17, 16)

    def test_default_size(self):
        assert len(make_block(b"p")) == DEFAULT_BLOCK_SIZE


class TestZeroBlock:
    def test_all_zero(self):
        assert zero_block(8) == b"\x00" * 8

    def test_rejects_negative(self):
        with pytest.raises(BlockSizeError):
            zero_block(-1)


class TestCheckBlock:
    def test_accepts_exact(self):
        check_block(b"ab", 2)

    def test_rejects_mismatch(self):
        with pytest.raises(BlockSizeError):
            check_block(b"abc", 2)


class TestUniformBlockSize:
    def test_returns_the_common_size(self):
        assert uniform_block_size([b"ab", b"cd", b"ef"]) == 2
        assert uniform_block_size([b""]) == 0

    def test_names_the_first_offender(self):
        with pytest.raises(BlockSizeError, match="block 2 has 3 bytes"):
            uniform_block_size([b"ab", b"cd", b"efg", b"h"])


class TestIntCodec:
    def test_roundtrip(self):
        for value in (0, 1, 255, 256, 2**31, 2**63 - 1):
            assert decode_int(encode_int(value)) == value

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            encode_int(-1)

    def test_block_size(self):
        assert len(encode_int(42, 32)) == 32


class TestIntegerDatabase:
    def test_contents_self_describing(self):
        db = integer_database(10)
        assert len(db) == 10
        for index, block in enumerate(db):
            assert decode_int(block) == index

    def test_blocks_distinct(self):
        db = integer_database(50)
        assert len(set(db)) == 50

    def test_empty(self):
        assert integer_database(0) == []

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            integer_database(-1)
