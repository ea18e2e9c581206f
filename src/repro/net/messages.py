"""Wire messages of the S-MATCH protocol (paper Section V-A and Figure 2).

Three message types flow between a user and the untrusted server:

* :class:`UploadMessage` — Eq. (3): ``ID_u, h(K_up), E(A'_1)||...||E(A'_d)``
  plus the authentication information ``ciph_u``;
* :class:`QueryRequest` — ``Q_q = <q, t, ID_v>``;
* :class:`QueryResult` — ``R_q = <q, t, ID_1, ciph_1, ..., ID_k, ciph_k>``.

Four more carry the interactive OPRF round of key generation between a
user and the key service.  Paper Section III: "An OPRF is an interactive
protocol, and a pseudo-random number r <- F(sk, m) is generated on the user
side after a round of secure communication with the random number
generator."  The client sends the blinded value (:class:`OprfRequest`) and
the key service responds with its raw-RSA evaluation
(:class:`OprfResponse`); :class:`OprfKeyInfoRequest` and
:class:`OprfKeyInfo` fetch the public key.  Both directions ride the same
:class:`~repro.net.channel.SecureChannel` as the rest of the protocol.

Messages are length-prefixed fields (:mod:`repro.utils.serial`) whose first
field is the type tag, an unsigned integer field like the rest (5 bytes for
tags below 256), so the communication-cost experiments measure real encoded
sizes — not estimates.  Tags 1–3 are the matching server's three messages;
16–19 are the key service's four.  Tags 20 and 21 belonged to a retired
batched OPRF round, and :func:`decode_message` refuses them like any
unknown tag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.scheme import EncryptedProfile
from repro.core.verification import AuthInfo
from repro.crypto.modes import AeadCiphertext
from repro.errors import ProtocolError
from repro.utils.serial import FieldReader, FieldWriter, bytes_field, int_field

__all__ = [
    "Message",
    "UploadMessage",
    "QueryRequest",
    "QueryResult",
    "ResultEntry",
    "OprfRequest",
    "OprfResponse",
    "OprfKeyInfoRequest",
    "OprfKeyInfo",
    "decode_message",
]

_TAG_UPLOAD = 1
_TAG_QUERY = 2
_TAG_RESULT = 3
_TAG_OPRF_REQUEST = 16
_TAG_OPRF_RESPONSE = 17
_TAG_OPRF_KEYINFO_REQUEST = 18
_TAG_OPRF_KEYINFO = 19


class Message:
    """Base class: every message encodes to tagged, length-prefixed bytes."""

    TAG: int = 0

    def encode(self) -> bytes:
        """Serialize to tagged, length-prefixed wire bytes."""
        raise NotImplementedError

    @property
    def wire_bits(self) -> int:
        """Exact encoded size in bits."""
        return len(self.encode()) * 8


def _encode_auth(writer: FieldWriter, auth: AuthInfo) -> None:
    writer.write_int(auth.user_id)
    writer.write_bytes(auth.sealed.encode())


def _decode_auth(reader: FieldReader) -> AuthInfo:
    user_id = reader.read_int()
    sealed = AeadCiphertext.decode(reader.read_bytes())
    return AuthInfo(user_id=user_id, sealed=sealed)


@dataclass(frozen=True)
class UploadMessage(Message):
    """A user's (periodic) encrypted-profile upload."""

    payload: EncryptedProfile

    TAG = _TAG_UPLOAD

    def encode(self) -> bytes:
        """Serialize to tagged, length-prefixed wire bytes: the user id, the
        key index, the chain's length and ciphertexts, then ``ciph_u``."""
        payload = self.payload
        w = FieldWriter()
        w.write_int(self.TAG)
        w.write_int(payload.user_id)
        w.write_bytes(payload.key_index)
        w.write_int(len(payload.chain))
        for value in payload.chain:
            w.write_int(value)
        _encode_auth(w, payload.auth)
        return w.getvalue()

    @classmethod
    def decode_fields(cls, reader: FieldReader) -> "UploadMessage":
        """Decode the message body from a field reader."""
        user_id = reader.read_int()
        key_index = reader.read_bytes()
        chain = reader.read_ints(reader.read_int())
        auth = _decode_auth(reader)
        reader.expect_end()
        return cls(
            payload=EncryptedProfile(
                user_id=user_id, key_index=key_index, chain=chain, auth=auth
            )
        )


@dataclass(frozen=True)
class QueryRequest(Message):
    """``Q_q = <q, t, ID_v>`` — a profile-matching query.

    ``max_distance`` selects the paper's MAX-distance matching algorithm
    instead of kNN: the server returns *all* group members within that
    rank-score radius.  ``None`` (encoded as a zero-length field) keeps the
    default kNN behaviour.
    """

    query_id: int
    timestamp: int
    user_id: int
    max_distance: Optional[int] = None

    TAG = _TAG_QUERY

    def encode(self) -> bytes:
        """Serialize to tagged, length-prefixed wire bytes."""
        w = FieldWriter()
        w.write_int(self.TAG)
        w.write_int(self.query_id)
        w.write_int(self.timestamp)
        w.write_int(self.user_id)
        if self.max_distance is None:
            w.write_bytes(b"")
        else:
            w.write_int(self.max_distance)
        return w.getvalue()

    @classmethod
    def decode_fields(cls, reader: FieldReader) -> "QueryRequest":
        """Decode the message body from a field reader."""
        query_id, timestamp, user_id = reader.read_ints(3)
        raw = reader.read_bytes()
        max_distance = int.from_bytes(raw, "big") if raw else None
        reader.expect_end()
        return cls(
            query_id=query_id,
            timestamp=timestamp,
            user_id=user_id,
            max_distance=max_distance,
        )


@dataclass(frozen=True)
class ResultEntry:
    """One matched user: identity plus authentication information."""

    user_id: int
    auth: AuthInfo


@dataclass(frozen=True)
class QueryResult(Message):
    """``R_q = <q, t, ID_1, ciph_1, ..., ID_k, ciph_k>``."""

    query_id: int
    timestamp: int
    entries: Tuple[ResultEntry, ...]

    TAG = _TAG_RESULT

    def encode(self) -> bytes:
        """Serialize to tagged, length-prefixed wire bytes; an entry whose
        two ids are equal writes its one id field twice."""
        parts = [
            int_field(self.TAG),
            int_field(self.query_id),
            int_field(self.timestamp),
            int_field(len(self.entries)),
        ]
        for entry in self.entries:
            auth = entry.auth
            id_field = int_field(entry.user_id)
            parts += (
                id_field,
                id_field
                if auth.user_id == entry.user_id
                else int_field(auth.user_id),
                bytes_field(auth.sealed.encode()),
            )
        return b"".join(parts)

    @classmethod
    def decode_fields(cls, reader: FieldReader) -> "QueryResult":
        """Decode the message body from a field reader."""
        query_id, timestamp, count = reader.read_ints(3)
        entries = []
        for _ in range(count):
            user_id = reader.read_int()
            auth = _decode_auth(reader)
            entries.append(ResultEntry(user_id=user_id, auth=auth))
        reader.expect_end()
        return cls(
            query_id=query_id, timestamp=timestamp, entries=tuple(entries)
        )


@dataclass(frozen=True)
class OprfRequest(Message):
    """Client -> key service: a blinded input ``x = h(m) * s^e mod N``."""

    request_id: int
    blinded: int

    TAG = _TAG_OPRF_REQUEST

    def encode(self) -> bytes:
        """Serialize to tagged, length-prefixed wire bytes."""
        w = FieldWriter()
        w.write_int(self.TAG)
        w.write_int(self.request_id)
        w.write_int(self.blinded)
        return w.getvalue()

    @classmethod
    def decode_fields(cls, reader: FieldReader) -> "OprfRequest":
        """Decode the message body from a field reader."""
        request_id = reader.read_int()
        blinded = reader.read_int()
        reader.expect_end()
        return cls(request_id=request_id, blinded=blinded)


@dataclass(frozen=True)
class OprfResponse(Message):
    """Key service -> client: ``y = x^d mod N``."""

    request_id: int
    evaluated: int

    TAG = _TAG_OPRF_RESPONSE

    def encode(self) -> bytes:
        """Serialize to tagged, length-prefixed wire bytes."""
        w = FieldWriter()
        w.write_int(self.TAG)
        w.write_int(self.request_id)
        w.write_int(self.evaluated)
        return w.getvalue()

    @classmethod
    def decode_fields(cls, reader: FieldReader) -> "OprfResponse":
        """Decode the message body from a field reader."""
        request_id = reader.read_int()
        evaluated = reader.read_int()
        reader.expect_end()
        return cls(request_id=request_id, evaluated=evaluated)


@dataclass(frozen=True)
class OprfKeyInfoRequest(Message):
    """Client -> key service: fetch the public key parameters."""

    request_id: int

    TAG = _TAG_OPRF_KEYINFO_REQUEST

    def encode(self) -> bytes:
        """Serialize to tagged, length-prefixed wire bytes."""
        w = FieldWriter()
        w.write_int(self.TAG)
        w.write_int(self.request_id)
        return w.getvalue()

    @classmethod
    def decode_fields(cls, reader: FieldReader) -> "OprfKeyInfoRequest":
        """Decode the message body from a field reader."""
        request_id = reader.read_int()
        reader.expect_end()
        return cls(request_id=request_id)


@dataclass(frozen=True)
class OprfKeyInfo(Message):
    """Key service -> client: the RSA public parameters ``(N, e)``."""

    request_id: int
    modulus: int
    exponent: int

    TAG = _TAG_OPRF_KEYINFO

    def encode(self) -> bytes:
        """Serialize to tagged, length-prefixed wire bytes."""
        w = FieldWriter()
        w.write_int(self.TAG)
        w.write_int(self.request_id)
        w.write_int(self.modulus)
        w.write_int(self.exponent)
        return w.getvalue()

    @classmethod
    def decode_fields(cls, reader: FieldReader) -> "OprfKeyInfo":
        """Decode the message body from a field reader."""
        request_id = reader.read_int()
        modulus = reader.read_int()
        exponent = reader.read_int()
        reader.expect_end()
        return cls(
            request_id=request_id, modulus=modulus, exponent=exponent
        )


_DECODERS = {
    _TAG_UPLOAD: UploadMessage.decode_fields,
    _TAG_QUERY: QueryRequest.decode_fields,
    _TAG_RESULT: QueryResult.decode_fields,
    _TAG_OPRF_REQUEST: OprfRequest.decode_fields,
    _TAG_OPRF_RESPONSE: OprfResponse.decode_fields,
    _TAG_OPRF_KEYINFO_REQUEST: OprfKeyInfoRequest.decode_fields,
    _TAG_OPRF_KEYINFO: OprfKeyInfo.decode_fields,
}


def decode_message(raw: bytes) -> Message:
    """Decode any protocol message from its tagged encoding."""
    reader = FieldReader(raw)
    kind = reader.read_int()
    decoder = _DECODERS.get(kind)
    if decoder is None:
        raise ProtocolError(f"unknown message tag {kind}")
    return decoder(reader)
