"""Tests for protocol message encoding."""

import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.verification import AuthInfo
from repro.crypto.modes import AeadCiphertext
from repro.errors import ProtocolError
from repro.net import messages
from repro.net.messages import (
    OprfKeyInfo,
    OprfKeyInfoRequest,
    OprfRequest,
    OprfResponse,
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


class TestDecoderTable:
    def test_fresh_interpreter_decodes_every_oprf_frame(self):
        """``decode_message`` knows the key service's four tags once its own
        module is imported, with nothing else of the package loaded first."""
        frames = [
            OprfKeyInfoRequest(request_id=1),
            OprfKeyInfo(request_id=1, modulus=3233, exponent=17),
            OprfRequest(request_id=1, blinded=5),
            OprfResponse(request_id=1, evaluated=7),
        ]
        script = (
            "import sys\n"
            "from repro.net.messages import decode_message\n"
            "for line in sys.stdin:\n"
            "    print(repr(decode_message(bytes.fromhex(line))))\n"
        )
        src = pathlib.Path(messages.__file__).resolve().parents[2]
        run = subprocess.run(
            [sys.executable, "-c", script],
            input="\n".join(m.encode().hex() for m in frames),
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=60,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines() == [repr(m) for m in frames]
