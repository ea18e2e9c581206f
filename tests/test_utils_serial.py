"""Tests for the length-prefixed wire codec."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ProtocolError
from repro.utils.serial import FieldReader, FieldWriter


class TestRoundtrip:
    def test_mixed_fields(self):
        w = FieldWriter()
        w.write_int(42).write_str("hello").write_bytes(b"\x00\x01")
        r = FieldReader(w.getvalue())
        assert r.read_int() == 42
        assert r.read_str() == "hello"
        assert r.read_bytes() == b"\x00\x01"
        assert r.at_end()

    def test_zero_int(self):
        w = FieldWriter()
        w.write_int(0)
        assert FieldReader(w.getvalue()).read_int() == 0

    def test_empty_bytes(self):
        w = FieldWriter()
        w.write_bytes(b"")
        assert FieldReader(w.getvalue()).read_bytes() == b""

    @given(st.lists(st.integers(min_value=0, max_value=1 << 128), max_size=10))
    def test_int_lists(self, values):
        w = FieldWriter()
        for v in values:
            w.write_int(v)
        r = FieldReader(w.getvalue())
        assert [r.read_int() for _ in values] == values
        r.expect_end()

    @given(st.binary(max_size=200))
    def test_bytes_roundtrip(self, data):
        w = FieldWriter()
        w.write_bytes(data)
        assert FieldReader(w.getvalue()).read_bytes() == data


class TestErrors:
    def test_negative_int_rejected(self):
        with pytest.raises(ProtocolError):
            FieldWriter().write_int(-1)

    def test_truncated_header(self):
        with pytest.raises(ProtocolError):
            FieldReader(b"\x00\x00").read_bytes()

    def test_truncated_body(self):
        with pytest.raises(ProtocolError):
            FieldReader(b"\x00\x00\x00\x05ab").read_bytes()

    def test_trailing_bytes_detected(self):
        w = FieldWriter()
        w.write_int(1)
        reader = FieldReader(w.getvalue() + b"junk")
        reader.read_int()
        with pytest.raises(ProtocolError):
            reader.expect_end()

    def test_invalid_utf8(self):
        w = FieldWriter()
        w.write_bytes(b"\xff\xfe")
        with pytest.raises(ProtocolError):
            FieldReader(w.getvalue()).read_str()
