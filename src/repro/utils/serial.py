"""Length-prefixed binary serialization for wire messages.

The protocol messages in :mod:`repro.net.messages` are encoded as sequences
of length-prefixed fields.  Keeping the codec here, independent of any
message type, lets the communication-cost experiments (Fig. 5(d)-(f)) count
exact bits on the wire.
"""

from __future__ import annotations

import struct
from typing import List

from repro.errors import ProtocolError

__all__ = ["FieldWriter", "FieldReader", "LENGTH_PREFIX"]

_LEN = struct.Struct(">I")

#: The length-prefix layout every field shares.  Exported for codecs that
#: hand-pack a hot-path layout (e.g. ``EncryptedProfile.to_wire_bytes``,
#: which every upload encodes through); such codecs stay byte-identical to
#: the :class:`FieldWriter` path by pinning equality in tests.
LENGTH_PREFIX = _LEN


class FieldWriter:
    """Accumulates length-prefixed fields into a byte string.

    This codec sits on the hot path of every wire message, so the write
    methods fuse the prefix and payload into a single list append and
    track the accumulated size incrementally instead of re-summing.  The
    byte layout is unchanged.
    """

    def __init__(self) -> None:
        self._parts: List[bytes] = []
        self._size = 0

    def write_bytes(self, data: bytes) -> "FieldWriter":
        """Append one length-prefixed byte field."""
        if type(data) is not bytes:
            data = bytes(data)
        length = len(data)
        if length > 0xFFFFFFFF:
            raise ProtocolError("field too large")
        self._parts.append(_LEN.pack(length) + data)
        self._size += _LEN.size + length
        return self

    def write_int(self, value: int) -> "FieldWriter":
        """Append an unsigned integer field (minimal big-endian)."""
        if value < 0:
            raise ProtocolError("wire integers are unsigned")
        length = (value.bit_length() + 7) // 8 or 1
        self._parts.append(_LEN.pack(length) + value.to_bytes(length, "big"))
        self._size += _LEN.size + length
        return self

    def write_str(self, text: str) -> "FieldWriter":
        """Append a UTF-8 string field."""
        return self.write_bytes(text.encode("utf-8"))

    def write_raw_fields(self, data: bytes) -> "FieldWriter":
        """Splice an already field-encoded byte sequence in verbatim.

        ``data`` must itself be a field sequence produced by another
        writer — it is appended without a length prefix of its own.  This
        is the serialize-once path for values whose wire encoding is
        already in hand (e.g. :meth:`EncryptedProfile.encode_fields`
        splicing its hand-packed fields into an upload).
        """
        if type(data) is not bytes:
            data = bytes(data)
        self._parts.append(data)
        self._size += len(data)
        return self

    def getvalue(self) -> bytes:
        """The accumulated wire bytes."""
        return b"".join(self._parts)

    def __len__(self) -> int:
        return self._size


class FieldReader:
    """Reads length-prefixed fields written by :class:`FieldWriter`."""

    def __init__(self, data: bytes) -> None:
        self._data = bytes(data)
        self._pos = 0

    def read_bytes(self) -> bytes:
        """Read the next length-prefixed byte field."""
        if self._pos + _LEN.size > len(self._data):
            raise ProtocolError("truncated field header")
        (length,) = _LEN.unpack_from(self._data, self._pos)
        self._pos += _LEN.size
        if self._pos + length > len(self._data):
            raise ProtocolError("truncated field body")
        out = self._data[self._pos : self._pos + length]
        self._pos += length
        return out

    def read_int(self) -> int:
        """Read the next field as an unsigned integer."""
        return int.from_bytes(self.read_bytes(), "big")

    def read_str(self) -> str:
        """Read the next field as UTF-8 text."""
        try:
            return self.read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError("invalid UTF-8 in string field") from exc

    def at_end(self) -> bool:
        """True when every field has been consumed."""
        return self._pos == len(self._data)

    def expect_end(self) -> None:
        """Raise unless the whole message was consumed."""
        if not self.at_end():
            raise ProtocolError(
                f"{len(self._data) - self._pos} trailing bytes after message"
            )
