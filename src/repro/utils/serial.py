"""Length-prefixed binary serialization for wire messages.

Every wire message in :mod:`repro.net` is a sequence of length-prefixed
fields; the message classes there own their layouts.  Keeping the field
codec here, independent of any message type, lets the communication-cost experiments (Fig. 5(d)-(f)) count
exact bits on the wire.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

from repro.errors import ProtocolError

__all__ = ["FieldWriter", "FieldReader", "bytes_field", "int_field"]

#: The 4-byte big-endian length prefix every field carries.
_LEN = struct.Struct(">I")


def bytes_field(data: bytes) -> bytes:
    """One length-prefixed byte field, prefix and payload fused."""
    if type(data) is not bytes:
        data = bytes(data)
    length = len(data)
    if length > 0xFFFFFFFF:
        raise ProtocolError("field too large")
    return _LEN.pack(length) + data


def int_field(value: int) -> bytes:
    """One unsigned integer field (minimal big-endian), prefix included."""
    if value < 0:
        raise ProtocolError("wire integers are unsigned")
    length = (value.bit_length() + 7) // 8 or 1
    # the 4-byte length prefix sits right above the value's bytes
    return ((length << (length << 3)) | value).to_bytes(length + 4, "big")


class FieldWriter:
    """Accumulates length-prefixed fields into a byte string.

    Each write appends one whole field made by :func:`bytes_field` or
    :func:`int_field`; a hot encoder that frames fields itself joins the
    same functions' output, so there is one codec.
    """

    def __init__(self) -> None:
        self._parts: List[bytes] = []

    def write_bytes(self, data: bytes) -> "FieldWriter":
        """Append one length-prefixed byte field."""
        self._parts.append(bytes_field(data))
        return self

    def write_int(self, value: int) -> "FieldWriter":
        """Append an unsigned integer field (minimal big-endian)."""
        self._parts.append(int_field(value))
        return self

    def write_str(self, text: str) -> "FieldWriter":
        """Append a UTF-8 string field."""
        return self.write_bytes(text.encode("utf-8"))

    def getvalue(self) -> bytes:
        """The accumulated wire bytes."""
        return b"".join(self._parts)


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

    def read_ints(self, count: int) -> Tuple[int, ...]:
        """Read the next ``count`` fields as :meth:`read_int` would, in one
        loop over the buffer."""
        data = self._data
        end = len(data)
        pos = self._pos
        unpack = _LEN.unpack_from
        from_bytes = int.from_bytes
        values: List[int] = []
        for _ in range(count):
            if pos + 4 > end:
                raise ProtocolError("truncated field header")
            (length,) = unpack(data, pos)
            pos += 4
            if pos + length > end:
                raise ProtocolError("truncated field body")
            values.append(from_bytes(data[pos : pos + length], "big"))
            pos += length
        self._pos = pos
        return tuple(values)

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
