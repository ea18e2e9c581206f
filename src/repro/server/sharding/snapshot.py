"""Full, group-granular shard snapshots.

A snapshot captures every group of a shard at a sequence number and
**truncates the WAL**: once ``snap-<n>`` is durable, every older snapshot
and log segment is deleted, and ops accepted after it go to
``wal-<n>.log``.

On-disk layout per shard directory::

    snap-00000003.bin    # every group at seq 3
    wal-00000003.log     # ops accepted after snapshot 3

Recovery = load the newest snapshot + replay the live WAL tail.
The invariants (docs/PERFORMANCE.md §5):

* a group's membership after recovery equals its snapshotted membership
  with the WAL tail's put/remove records applied in order;
* replay is idempotent, so a batch redelivered after a worker crash
  cannot double-apply;
* corruption fails loudly as a typed
  :class:`~repro.errors.PersistenceError` — a digest mismatch or an
  unknown format version never silently serves wrong matches.

Every file is digest-protected and written atomically
(:func:`write_atomic`), so a crash mid-snapshot leaves the previous
snapshot intact.
"""

from __future__ import annotations

import os
import pathlib
import re
from typing import Dict, List, Tuple, Union

from repro.core.scheme import EncryptedProfile
from repro.crypto.kdf import sha256
from repro.errors import PersistenceError
from repro.net.messages import UploadMessage, decode_message
from repro.obs.metrics import M_SHARD_SNAPSHOTS, metric_inc
from repro.utils.ct import constant_time_eq
from repro.utils.serial import FieldReader, FieldWriter

__all__ = ["SnapshotStore", "load_snapshot", "write_atomic", "write_snapshot"]

_MAGIC = b"SMATCH-SHARD-SNAP"
_VERSION = 2

_SNAP_RE = re.compile(r"^snap-(\d{8})\.bin$")
_WAL_RE = re.compile(r"^wal-(\d{8})\.log$")

#: Groups for one shard: key index -> {user id: profile}.
GroupTable = Dict[bytes, Dict[int, EncryptedProfile]]


def write_atomic(path: Union[str, pathlib.Path], data: bytes) -> None:
    """Replace ``path`` with ``data`` so a crash leaves the old or new file.

    The bytes go to ``<path>.tmp`` and are fsynced before ``os.replace``
    installs them; the directory is fsynced after, so the rename itself
    survives a crash.
    """
    final = pathlib.Path(path)
    tmp = final.with_name(final.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, final)
    dir_fd = os.open(final.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def _encode_snapshot(seq: int, groups: GroupTable) -> bytes:
    body = FieldWriter()
    body.write_int(seq)
    body.write_int(len(groups))
    for key_index in sorted(groups):
        members = groups[key_index]
        body.write_bytes(key_index)
        body.write_int(len(members))
        for uid in sorted(members):
            body.write_bytes(UploadMessage(payload=members[uid]).encode())
    payload = body.getvalue()

    out = FieldWriter()
    out.write_bytes(_MAGIC)
    out.write_int(_VERSION)
    out.write_bytes(sha256(b"shard-snapshot-digest", payload))
    out.write_bytes(payload)
    return out.getvalue()


def load_snapshot(path: Union[str, pathlib.Path]) -> Tuple[GroupTable, int]:
    """``(groups, seq)`` of one snapshot file, validating magic, version,
    and digest."""
    file_path = pathlib.Path(path)
    reader = FieldReader(file_path.read_bytes())
    try:
        if reader.read_bytes() != _MAGIC:
            raise PersistenceError(
                f"{file_path.name}: not an S-MATCH shard snapshot"
            )
        fmt = reader.read_int()
        if fmt != _VERSION:
            raise PersistenceError(
                f"{file_path.name}: unsupported snapshot format {fmt}"
            )
        expected = reader.read_bytes()
        payload = reader.read_bytes()
        reader.expect_end()
    except PersistenceError:
        raise
    except Exception as exc:
        raise PersistenceError(
            f"{file_path.name}: malformed snapshot framing"
        ) from exc
    if not constant_time_eq(sha256(b"shard-snapshot-digest", payload), expected):
        raise PersistenceError(
            f"{file_path.name}: snapshot digest mismatch — file corrupted"
        )
    body = FieldReader(payload)
    seq = body.read_int()
    groups: GroupTable = {}
    for _ in range(body.read_int()):
        key_index = body.read_bytes()
        members: Dict[int, EncryptedProfile] = {}
        for _ in range(body.read_int()):
            message = decode_message(body.read_bytes())
            if not isinstance(message, UploadMessage):
                raise PersistenceError(
                    f"{file_path.name}: snapshot carries a non-upload record"
                )
            members[message.payload.user_id] = message.payload
        groups[key_index] = members
    body.expect_end()
    return groups, seq


def write_snapshot(
    directory: Union[str, pathlib.Path], seq: int, groups: GroupTable
) -> pathlib.Path:
    """Atomically write ``snap-<seq>.bin`` into ``directory``."""
    final = pathlib.Path(directory) / f"snap-{seq:08d}.bin"
    write_atomic(final, _encode_snapshot(seq, groups))
    metric_inc(M_SHARD_SNAPSHOTS)
    return final


class SnapshotStore:
    """The snapshot and WAL files of one shard directory.

    Owns sequencing and retention: :meth:`latest_seq` names the live WAL
    segment, :meth:`write` installs the next snapshot and deletes the
    files it supersedes, and :meth:`load_latest` reads the newest
    snapshot back for recovery.
    """

    def __init__(self, directory: Union[str, pathlib.Path]) -> None:
        self._dir = pathlib.Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)

    @property
    def directory(self) -> pathlib.Path:
        """The shard directory the files live in."""
        return self._dir

    def _sequence_numbers(self) -> List[int]:
        seqs = []
        for entry in self._dir.iterdir():
            match = _SNAP_RE.match(entry.name)
            if match:
                seqs.append(int(match.group(1)))
        return sorted(seqs)

    def latest_seq(self) -> int:
        """The newest snapshot sequence (0 when none exist)."""
        seqs = self._sequence_numbers()
        return seqs[-1] if seqs else 0

    def wal_path(self, seq: int) -> pathlib.Path:
        """The WAL segment holding ops accepted after snapshot ``seq``."""
        return self._dir / f"wal-{seq:08d}.log"

    def write(self, seq: int, groups: GroupTable) -> pathlib.Path:
        """Write snapshot ``seq``, then delete every older snapshot and
        WAL segment: the new snapshot holds all they recorded."""
        path = write_snapshot(self._dir, seq, groups)
        for entry in self._dir.iterdir():
            match = _SNAP_RE.match(entry.name) or _WAL_RE.match(entry.name)
            if match and int(match.group(1)) < seq:
                entry.unlink()
        return path

    def load_latest(self) -> Tuple[GroupTable, int]:
        """``(groups, seq)`` of the newest snapshot (``({}, 0)`` when none
        exist)."""
        seq = self.latest_seq()
        if seq == 0:
            return {}, 0
        path = self._dir / f"snap-{seq:08d}.bin"
        groups, stored_seq = load_snapshot(path)
        if stored_seq != seq:
            raise PersistenceError(
                f"{path.name}: file holds snapshot {stored_seq}"
            )
        return groups, seq
