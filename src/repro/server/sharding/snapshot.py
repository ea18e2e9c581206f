"""Full shard snapshots, and the files of a shard directory.

A snapshot holds every upload a shard stores at a sequence number and
**truncates the WAL**: once ``snap-<n>`` is durable, every older snapshot
and log segment is deleted, and ops accepted after it go to
``wal-<n>.log``.

On-disk layout per shard directory::

    snap-00000003.bin    # every stored upload at seq 3
    wal-00000003.log     # ops accepted after snapshot 3

A snapshot file (format 3) is the magic, the format version and a SHA-256
digest of its body: ``seq``, a count, and one
:class:`~repro.net.messages.UploadMessage` encoding per stored upload, in
ascending user id, so equal stores write equal bytes.  Each upload carries
its key index, so recovery rebuilds the key groups by storing them.

Recovery = load the newest snapshot + replay the live WAL tail.
The invariants (docs/PERFORMANCE.md §4):

* a shard's uploads after recovery equal its snapshotted uploads with the
  WAL tail's put/remove records applied in order;
* replay is idempotent, so a batch redelivered after a worker crash
  cannot double-apply;
* corruption fails loudly as a typed
  :class:`~repro.errors.PersistenceError` — a digest mismatch or an
  unknown format version never silently serves wrong matches.

Every file is digest-protected and written atomically
(:func:`write_atomic`), so a crash mid-snapshot leaves the previous
snapshot intact.  A crash after the new snapshot is in place but before
the files it supersedes are deleted leaves those behind; the next
:func:`load_latest` deletes them.  The functions here work on one
directory; the shard that owns it
(:class:`~repro.server.sharding.state.ShardState`) sequences them.
"""

from __future__ import annotations

import os
import pathlib
import re
from typing import List, Mapping, Tuple, Union

from repro.core.scheme import EncryptedProfile
from repro.crypto.kdf import sha256
from repro.errors import PersistenceError
from repro.net.messages import UploadMessage, decode_message
from repro.obs.metrics import M_SHARD_SNAPSHOTS, metric_inc
from repro.obs.trace import span
from repro.utils.ct import constant_time_eq
from repro.utils.serial import FieldReader, FieldWriter

__all__ = [
    "fsync_directory",
    "latest_seq",
    "load_latest",
    "load_snapshot",
    "make_directory",
    "snapshot_path",
    "wal_path",
    "write_atomic",
    "write_snapshot",
]

_MAGIC = b"SMATCH-SHARD-SNAP"
_VERSION = 3

_SNAP_RE = re.compile(r"^snap-(\d{8})\.bin$")
_WAL_RE = re.compile(r"^wal-(\d{8})\.log$")


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
    fsync_directory(final.parent)


def fsync_directory(directory: pathlib.Path) -> None:
    """Make the directory's entries (a rename, a new file) durable."""
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def make_directory(directory: pathlib.Path) -> None:
    """Create ``directory`` (and missing parents) unless it exists, and
    fsync its parent so the new entry survives a crash."""
    if not directory.is_dir():
        directory.mkdir(parents=True)
        fsync_directory(directory.parent)


def snapshot_path(directory: Union[str, pathlib.Path], seq: int) -> pathlib.Path:
    """The snapshot file of sequence ``seq``."""
    return pathlib.Path(directory) / f"snap-{seq:08d}.bin"


def wal_path(directory: Union[str, pathlib.Path], seq: int) -> pathlib.Path:
    """The WAL segment holding ops accepted after snapshot ``seq``."""
    return pathlib.Path(directory) / f"wal-{seq:08d}.log"


def latest_seq(directory: Union[str, pathlib.Path]) -> int:
    """The newest snapshot sequence in ``directory`` (0 when none exist)."""
    seqs = [0]
    for entry in pathlib.Path(directory).iterdir():
        match = _SNAP_RE.match(entry.name)
        if match:
            seqs.append(int(match.group(1)))
    return max(seqs)


def _superseded(directory: pathlib.Path, seq: int) -> List[pathlib.Path]:
    """Every snapshot and WAL segment in ``directory`` older than ``seq``."""
    older = []
    for entry in directory.iterdir():
        match = _SNAP_RE.match(entry.name) or _WAL_RE.match(entry.name)
        if match and int(match.group(1)) < seq:
            older.append(entry)
    return older


def _encode_snapshot(seq: int, profiles: Mapping[int, EncryptedProfile]) -> bytes:
    body = FieldWriter()
    body.write_int(seq)
    body.write_int(len(profiles))
    for uid in sorted(profiles):
        body.write_bytes(UploadMessage(payload=profiles[uid]).encode())
    payload = body.getvalue()

    out = FieldWriter()
    out.write_bytes(_MAGIC)
    out.write_int(_VERSION)
    out.write_bytes(sha256(b"shard-snapshot-digest", payload))
    out.write_bytes(payload)
    return out.getvalue()


def load_snapshot(
    path: Union[str, pathlib.Path],
) -> Tuple[Tuple[EncryptedProfile, ...], int]:
    """``(uploads, seq)`` of one snapshot file, uploads in ascending user
    id, validating magic, version, and digest."""
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
    uploads = []
    for _ in range(body.read_int()):
        message = decode_message(body.read_bytes())
        if not isinstance(message, UploadMessage):
            raise PersistenceError(
                f"{file_path.name}: snapshot carries a non-upload record"
            )
        uploads.append(message.payload)
    body.expect_end()
    return tuple(uploads), seq


def write_snapshot(
    directory: Union[str, pathlib.Path],
    seq: int,
    profiles: Mapping[int, EncryptedProfile],
) -> int:
    """Atomically write ``snap-<seq>.bin`` holding ``profiles`` (user id
    to upload) into ``directory``, then delete every older snapshot and
    WAL segment there: the new snapshot holds all they recorded.  Returns
    the snapshot's length in bytes.

    Traced as ``server.sharding.snapshot_encode`` and
    ``server.sharding.snapshot_write`` (the atomic write and the deletes).
    """
    folder = pathlib.Path(directory)
    with span("server.sharding.snapshot_encode"):
        data = _encode_snapshot(seq, profiles)
    with span("server.sharding.snapshot_write"):
        write_atomic(snapshot_path(folder, seq), data)
        metric_inc(M_SHARD_SNAPSHOTS)
        for entry in _superseded(folder, seq):
            entry.unlink()
    return len(data)


def load_latest(
    directory: Union[str, pathlib.Path],
) -> Tuple[Tuple[EncryptedProfile, ...], int]:
    """``(uploads, seq)`` of the newest snapshot in ``directory`` (``((),
    0)`` when none exist).

    Once that snapshot has loaded and its digest has checked out, every
    older snapshot and WAL segment is deleted: a crash between a
    snapshot's ``os.replace`` and its own deletes leaves them behind.  The
    directory is fsynced first, so the newest snapshot's rename is durable
    before the files it supersedes go.  A failed load deletes nothing.
    """
    folder = pathlib.Path(directory)
    seq = latest_seq(folder)
    if seq == 0:
        return (), 0
    path = snapshot_path(folder, seq)
    uploads, stored_seq = load_snapshot(path)
    if stored_seq != seq:
        raise PersistenceError(f"{path.name}: file holds snapshot {stored_seq}")
    superseded = _superseded(folder, seq)
    if superseded:
        fsync_directory(folder)
        for entry in superseded:
            entry.unlink()
    return uploads, seq
