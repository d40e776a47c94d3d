"""Tests for the shared length-prefixed codec."""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.codec import (
    U32,
    CodecError,
    Reader,
    blob,
    nested,
    optional,
    seq,
    text,
    trailing,
    u8,
    u32,
)


class TestWriters:
    def test_u8(self):
        assert u8(0) == b"\x00"
        assert u8(255) == b"\xff"

    def test_u8_range(self):
        with pytest.raises(CodecError):
            u8(256)
        with pytest.raises(CodecError):
            u8(-1)

    def test_u32(self):
        assert u32(0x01020304) == b"\x01\x02\x03\x04"

    def test_u32_range(self):
        with pytest.raises(CodecError):
            u32(2**32)
        with pytest.raises(CodecError):
            u32(-1)

    def test_blob(self):
        assert blob(b"ab") == b"\x00\x00\x00\x02ab"

    def test_text(self):
        assert text("hé") == blob("hé".encode("utf-8"))


class TestReader:
    @given(st.binary(max_size=100), st.integers(0, 255), st.integers(0, 2**32 - 1))
    def test_roundtrip(self, data, small, big):
        encoded = u8(small) + u32(big) + blob(data) + text("fin")
        reader = Reader(encoded)
        assert reader.u8() == small
        assert reader.u32() == big
        assert reader.blob() == data
        assert reader.text() == "fin"
        reader.done()

    def test_truncated_take(self):
        reader = Reader(b"\x01")
        with pytest.raises(CodecError):
            reader.u32()

    def test_truncated_blob(self):
        reader = Reader(u32(10) + b"short")
        with pytest.raises(CodecError):
            reader.blob()

    def test_trailing_bytes_rejected(self):
        reader = Reader(b"\x01\x02")
        reader.u8()
        with pytest.raises(CodecError):
            reader.done()

    def test_remaining(self):
        reader = Reader(b"\x01\x02\x03")
        assert reader.remaining() == 3
        reader.u8()
        assert reader.remaining() == 2

    def test_invalid_utf8(self):
        reader = Reader(blob(b"\xff\xfe"))
        with pytest.raises(CodecError):
            reader.text()


class TestSchemas:
    def test_rest_of_body_kinds_only_close_a_schema(self):
        rest = seq(U32, rest=True)
        with pytest.raises(TypeError):
            nested(SimpleNamespace, (("items", rest), ("count", U32)))
        for wrap in (seq, optional, lambda kind: trailing(kind, ())):
            with pytest.raises(TypeError):
                wrap(rest)

    def test_tail_kind_decodes_to_the_end(self):
        kind = nested(
            SimpleNamespace, (("count", U32), ("items", seq(U32, rest=True)))
        )
        value = SimpleNamespace(count=2, items=(7, 9))
        body = kind.pack(value)
        assert body == u32(2) + u32(7) + u32(9)
        assert kind.read(Reader(body)) == value
