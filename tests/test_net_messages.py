"""Tests for protocol message encoding."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.verification import AuthInfo
from repro.crypto.modes import AeadCiphertext
from repro.errors import ProtocolError
from repro.net.messages import (
    QueryRequest,
    QueryResult,
    ResultEntry,
    UploadMessage,
    decode_message,
)


def make_auth(user_id: int) -> AuthInfo:
    return AuthInfo(
        user_id=user_id,
        sealed=AeadCiphertext(iv=b"\x01" * 16, body=b"\x02" * 96, tag=b"\x03" * 32),
    )


class TestQueryRequest:
    def test_roundtrip(self):
        msg = QueryRequest(query_id=9, timestamp=1234567890, user_id=42)
        decoded = decode_message(msg.encode())
        assert decoded == msg
        assert decoded.max_distance is None

    def test_max_distance_roundtrip(self):
        msg = QueryRequest(
            query_id=1, timestamp=2, user_id=3, max_distance=17
        )
        decoded = decode_message(msg.encode())
        assert decoded == msg
        assert decoded.max_distance == 17

    def test_max_distance_zero_roundtrip(self):
        """Zero is a valid radius and must not decode as None."""
        msg = QueryRequest(
            query_id=1, timestamp=2, user_id=3, max_distance=0
        )
        decoded = decode_message(msg.encode())
        assert decoded.max_distance == 0

    @given(
        st.integers(min_value=0, max_value=1 << 62),
        st.integers(min_value=0, max_value=1 << 62),
        st.integers(min_value=1, max_value=1 << 31),
    )
    @settings(max_examples=30)
    def test_roundtrip_random(self, q, t, uid):
        msg = QueryRequest(query_id=q, timestamp=t, user_id=uid)
        assert decode_message(msg.encode()) == msg

    def test_wire_bits(self):
        msg = QueryRequest(query_id=1, timestamp=2, user_id=3)
        assert msg.wire_bits == len(msg.encode()) * 8


class TestQueryResult:
    def test_roundtrip(self):
        msg = QueryResult(
            query_id=5,
            timestamp=100,
            entries=(
                ResultEntry(user_id=1, auth=make_auth(1)),
                ResultEntry(user_id=2, auth=make_auth(2)),
            ),
        )
        assert decode_message(msg.encode()) == msg

    def test_empty_entries(self):
        msg = QueryResult(query_id=5, timestamp=100, entries=())
        assert decode_message(msg.encode()) == msg

    def test_size_grows_per_entry(self):
        one = QueryResult(
            query_id=1, timestamp=0, entries=(ResultEntry(1, make_auth(1)),)
        )
        two = QueryResult(
            query_id=1,
            timestamp=0,
            entries=(
                ResultEntry(1, make_auth(1)),
                ResultEntry(2, make_auth(2)),
            ),
        )
        assert two.wire_bits > one.wire_bits


class TestUploadMessage:
    def test_roundtrip(self, enrolled):
        _, _, uploads, _ = enrolled
        payload = next(iter(uploads.values()))
        msg = UploadMessage(payload=payload)
        decoded = decode_message(msg.encode())
        assert decoded == msg
        assert decoded.payload.chain == payload.chain

    def test_hand_packed_fields_match_generic_writer(self, enrolled):
        # EncryptedProfile.to_wire_bytes packs its fields by hand; it must
        # stay byte-identical to the FieldWriter layout decode_fields reads
        from repro.utils.serial import FieldWriter

        _, _, uploads, _ = enrolled
        for payload in uploads.values():
            w = FieldWriter()
            w.write_int(payload.user_id).write_bytes(payload.key_index)
            w.write_int(len(payload.chain))
            for value in payload.chain:
                w.write_int(value)
            w.write_int(payload.auth.user_id)
            w.write_bytes(payload.auth.sealed.encode())
            assert payload.to_wire_bytes() == w.getvalue()

    def test_wire_bits_scale_with_chain(self, enrolled):
        _, _, uploads, _ = enrolled
        payload = next(iter(uploads.values()))
        msg = UploadMessage(payload=payload)
        assert msg.wire_bits > 64 * len(payload.chain)


class TestDecodeErrors:
    def test_unknown_tag(self):
        from repro.utils.serial import FieldWriter

        w = FieldWriter()
        w.write_int(99)
        with pytest.raises(ProtocolError):
            decode_message(w.getvalue())

    def test_trailing_garbage(self):
        msg = QueryRequest(query_id=1, timestamp=2, user_id=3)
        with pytest.raises(ProtocolError):
            decode_message(msg.encode() + b"\x00\x00\x00\x01z")

    def test_truncated(self):
        msg = QueryRequest(query_id=1, timestamp=2, user_id=3)
        with pytest.raises(ProtocolError):
            decode_message(msg.encode()[:-2])
