"""Wire messages of the S-MATCH protocol (paper Section V-A and Figure 2).

Three message types flow between a user and the untrusted server:

* :class:`UploadMessage` — Eq. (3): ``ID_u, h(K_up), E(A'_1)||...||E(A'_d)``
  plus the authentication information ``ciph_u``;
* :class:`QueryRequest` — ``Q_q = <q, t, ID_v>``;
* :class:`QueryResult` — ``R_q = <q, t, ID_1, ciph_1, ..., ID_k, ciph_k>``.

Messages are length-prefixed fields (:mod:`repro.utils.serial`) whose first
field is the type tag, an unsigned integer field like the rest (5 bytes for
tags below 256), so the communication-cost experiments measure real encoded
sizes — not estimates.  Tags 1–3 are the three messages above; 16–19 are the
key service's (:mod:`repro.net.oprf_messages`).  Tags 20 and 21 belonged to
a retired batched OPRF round, and :func:`decode_message` refuses them like
any unknown tag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.scheme import EncryptedProfile
from repro.core.verification import AuthInfo
from repro.crypto.modes import AeadCiphertext
from repro.errors import ProtocolError
from repro.utils.serial import FieldReader, FieldWriter

__all__ = [
    "Message",
    "UploadMessage",
    "QueryRequest",
    "QueryResult",
    "ResultEntry",
    "decode_message",
]

_TAG_UPLOAD = 1
_TAG_QUERY = 2
_TAG_RESULT = 3


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
        """Serialize to tagged, length-prefixed wire bytes.

        The body is the profile's own field layout
        (:meth:`EncryptedProfile.encode_fields`), so the tagged message is
        byte-identical to the historical inline encoding.
        """
        w = FieldWriter()
        w.write_int(self.TAG)
        self.payload.encode_fields(w)
        return w.getvalue()

    @classmethod
    def decode_fields(cls, reader: FieldReader) -> "UploadMessage":
        """Decode the message body from a field reader."""
        payload = EncryptedProfile.decode_fields(reader)
        reader.expect_end()
        return cls(payload=payload)


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
        query_id = reader.read_int()
        timestamp = reader.read_int()
        user_id = reader.read_int()
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
        """Serialize to tagged, length-prefixed wire bytes."""
        w = FieldWriter()
        w.write_int(self.TAG)
        w.write_int(self.query_id)
        w.write_int(self.timestamp)
        w.write_int(len(self.entries))
        for entry in self.entries:
            w.write_int(entry.user_id)
            _encode_auth(w, entry.auth)
        return w.getvalue()

    @classmethod
    def decode_fields(cls, reader: FieldReader) -> "QueryResult":
        """Decode the message body from a field reader."""
        query_id = reader.read_int()
        timestamp = reader.read_int()
        count = reader.read_int()
        entries = []
        for _ in range(count):
            user_id = reader.read_int()
            auth = _decode_auth(reader)
            entries.append(ResultEntry(user_id=user_id, auth=auth))
        reader.expect_end()
        return cls(
            query_id=query_id, timestamp=timestamp, entries=tuple(entries)
        )


_DECODERS = {
    _TAG_UPLOAD: UploadMessage.decode_fields,
    _TAG_QUERY: QueryRequest.decode_fields,
    _TAG_RESULT: QueryResult.decode_fields,
}


def decode_message(raw: bytes) -> Message:
    """Decode any protocol message from its tagged encoding."""
    reader = FieldReader(raw)
    kind = reader.read_int()
    decoder = _DECODERS.get(kind)
    if decoder is None:
        raise ProtocolError(f"unknown message tag {kind}")
    return decoder(reader)
