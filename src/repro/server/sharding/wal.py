"""Per-shard append-only write-ahead log.

Every mutation a shard accepts (upload / remove) is encoded as an op record
in the existing wire codec and framed as::

    [u32 length][u32 crc32][payload]

Appends are buffered and made durable in **batches**: one
:meth:`ShardWal.commit` per applied op batch writes all buffered frames
and issues a single ``fsync`` — the commit point after which the batch
survives a crash.  Replay (:func:`replay_wal`) distinguishes the two
failure shapes a log file can be in:

* a **torn tail** — the file ends inside the last frame (header or body
  truncated, or the final frame's CRC broken): the crash happened during
  an append, the complete prefix is valid, recovery keeps it and rolls the
  file back to the last commit point;
* **mid-log corruption** — a broken frame *followed by more data*: bits
  rotted at rest, nothing after the damage can be trusted, and replay
  raises a typed :class:`~repro.errors.PersistenceError` instead of
  serving garbage state.

Op records are put (the full :class:`~repro.net.messages.UploadMessage`
encoding) or remove (a user id); replay is idempotent — puts replace and
removes tolerate an already-absent user — so at-least-once redelivery
after a crashed shard worker converges to the same store.
"""

from __future__ import annotations

import os
import pathlib
import struct
import zlib
from dataclasses import dataclass
from typing import BinaryIO, List, Optional, Tuple, Union

from repro.core.scheme import EncryptedProfile
from repro.errors import ParameterError, PersistenceError
from repro.net.messages import UploadMessage, decode_message
from repro.obs.metrics import (
    M_SHARD_WAL_BYTES,
    M_SHARD_WAL_RECORDS,
    metric_inc,
)
from repro.utils.serial import FieldReader, FieldWriter

__all__ = [
    "OP_PUT",
    "OP_REMOVE",
    "ShardWal",
    "WalReplay",
    "decode_op",
    "encode_put",
    "encode_remove",
    "replay_wal",
]

_FRAME = struct.Struct(">II")  # length, crc32

#: Frames above this are rejected as corrupt before allocation: no op
#: record (one profile upload) comes anywhere near it.
_MAX_RECORD_BYTES = 1 << 26

OP_PUT = 1
OP_REMOVE = 2


# -- op record codec -------------------------------------------------------------


def encode_put(payload: EncryptedProfile) -> bytes:
    """A put op record: the profile's full upload-message encoding."""
    w = FieldWriter()
    w.write_int(OP_PUT)
    w.write_bytes(UploadMessage(payload=payload).encode())
    return w.getvalue()


def encode_remove(user_id: int) -> bytes:
    """A remove op record."""
    w = FieldWriter()
    w.write_int(OP_REMOVE)
    w.write_int(user_id)
    return w.getvalue()


def decode_op(raw: bytes) -> Tuple[int, Union[EncryptedProfile, int]]:
    """Decode one op record into ``(op, profile-or-user-id)``."""
    reader = FieldReader(raw)
    op = reader.read_int()
    if op == OP_PUT:
        message = decode_message(reader.read_bytes())
        if not isinstance(message, UploadMessage):
            raise PersistenceError("put record does not carry an upload")
        reader.expect_end()
        return OP_PUT, message.payload
    if op == OP_REMOVE:
        user_id = reader.read_int()
        reader.expect_end()
        return OP_REMOVE, user_id
    raise PersistenceError(f"unknown WAL op {op}")


# -- the log file ----------------------------------------------------------------


@dataclass(frozen=True)
class WalReplay:
    """The outcome of scanning one WAL file.

    ``records`` is every valid op payload in append order; ``torn_tail``
    reports whether the file ended inside a frame (crash during append);
    ``valid_bytes`` is the offset of the last complete frame — the point a
    recovering shard truncates back to before appending again.
    """

    records: Tuple[bytes, ...]
    torn_tail: bool
    valid_bytes: int


def replay_wal(path: Union[str, pathlib.Path]) -> WalReplay:
    """Scan a WAL file (see module docs for the torn-tail/corruption rule).

    A missing file replays as empty — a shard that never committed has
    nothing to recover.
    """
    file_path = pathlib.Path(path)
    try:
        data = file_path.read_bytes()
    except FileNotFoundError:
        return WalReplay(records=(), torn_tail=False, valid_bytes=0)
    records: List[bytes] = []
    pos = 0
    size = len(data)
    while pos < size:
        if pos + _FRAME.size > size:
            return WalReplay(tuple(records), torn_tail=True, valid_bytes=pos)
        length, crc = _FRAME.unpack_from(data, pos)
        if length > _MAX_RECORD_BYTES:
            raise PersistenceError(
                f"{file_path.name}: frame at {pos} declares {length} bytes"
            )
        body_end = pos + _FRAME.size + length
        if body_end > size:
            return WalReplay(tuple(records), torn_tail=True, valid_bytes=pos)
        payload = data[pos + _FRAME.size : body_end]
        if zlib.crc32(payload) != crc:
            if body_end == size:
                # the final frame: a torn write, not rot — keep the prefix
                return WalReplay(
                    tuple(records), torn_tail=True, valid_bytes=pos
                )
            raise PersistenceError(
                f"{file_path.name}: CRC mismatch at {pos} with "
                f"{size - body_end} bytes following — log corrupted"
            )
        records.append(payload)
        pos = body_end
    return WalReplay(tuple(records), torn_tail=False, valid_bytes=pos)


class ShardWal:
    """One shard's open WAL segment (single-writer, append-only).

    Appends buffer in memory; :meth:`commit` is the durability point —
    it writes every buffered frame and fsyncs once.  Opening scans the
    segment once: :attr:`recovered` keeps every committed record found,
    for the shard to replay, and a torn tail from a previous crash is
    truncated away before the first new append, so a recovered log never
    interleaves old half-frames with new records.  The file is
    unbuffered: whatever a commit wrote is in the file when the commit
    returns or raises, so a cut-back leaves no buffered bytes behind for a
    later flush to write past it.
    """

    def __init__(self, path: Union[str, pathlib.Path]) -> None:
        self._path = pathlib.Path(path)
        self._buffer: List[bytes] = []
        replayed = replay_wal(self._path)
        #: the committed records the segment held when it was opened
        self.recovered = replayed.records
        mode = "r+b" if self._path.exists() else "w+b"
        self._file: Optional[BinaryIO] = open(self._path, mode, buffering=0)
        if replayed.torn_tail:
            self._file.truncate(replayed.valid_bytes)
        #: the file length at the last commit point
        self._committed = self._file.seek(0, os.SEEK_END)
        self._failed = False

    @property
    def path(self) -> pathlib.Path:
        """The log file this segment appends to."""
        return self._path

    def append_record(self, payload: bytes) -> None:
        """Buffer one op record; durable only after :meth:`commit`."""
        if self._file is None:
            raise ParameterError("WAL segment is closed")
        if self._failed:
            raise PersistenceError(
                f"{self._path.name}: a commit failed; reopen the shard"
            )
        if len(payload) > _MAX_RECORD_BYTES:
            raise ParameterError("WAL record too large")
        self._buffer.append(
            _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        )

    def commit(self) -> int:
        """Write and fsync all buffered records; returns the count.

        If the write or the fsync fails, the segment is cut back to its
        last commit point, so no later append lands behind a torn frame and
        a reopen replays no part of this commit.  Appends are then refused
        until the shard is reopened: after a failed write or fsync, what
        the disk holds is known only by reading it back.
        """
        if self._file is None:
            raise ParameterError("WAL segment is closed")
        if not self._buffer:
            return 0
        count = len(self._buffer)
        data = b"".join(self._buffer)
        self._buffer.clear()
        fd = self._file.fileno()
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view) :]
            os.fsync(fd)
        except BaseException as exc:
            self._failed = True
            os.ftruncate(fd, self._committed)
            if not isinstance(exc, OSError):
                raise
            raise PersistenceError(
                f"{self._path.name}: commit failed; cut back to the last "
                f"commit point at {self._committed} bytes"
            ) from exc
        self._committed += len(data)
        metric_inc(M_SHARD_WAL_RECORDS, count)
        metric_inc(M_SHARD_WAL_BYTES, len(data))
        return count

    def rollback(self) -> None:
        """Drop all buffered, uncommitted records (failed-batch path)."""
        self._buffer.clear()

    def close(self) -> None:
        """Commit any buffered records and close the file (idempotent)."""
        if self._file is None:
            return
        self.commit()
        self._file.close()
        self._file = None

    def __enter__(self) -> "ShardWal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
