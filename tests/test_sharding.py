"""Tests for the sharded, durable server tier (repro.server.sharding).

Covers the four layers bottom-up — placement ring, WAL, snapshots,
shard state — then the coordinator-level contracts: the equivalence matrix
(shards=1 vs shards=N vs process-backed shards vs a durable reopen vs the
default ``SMatchServer`` behind ``handle_message``, each checked for
byte-identical ``QueryResult`` encodings against a bare ``ProfileStore``
oracle) and kill-a-shard-mid-churn crash recovery against the same
oracle.
"""

import dataclasses
import errno
import gc
import itertools
import os
import pathlib
import warnings

import pytest

from repro.errors import (
    MatchingError,
    ParameterError,
    PersistenceError,
    ProtocolError,
    WorkerCrashError,
)
from repro.net.messages import (
    QueryRequest,
    QueryResult,
    ResultEntry,
    UploadMessage,
)
from repro.server.service import SMatchServer
from repro.server.sharding import (
    PlacementMap,
    ShardState,
    ShardWal,
    ShardedTier,
)
from repro.server.sharding import snapshot as snapshot_module
from repro.server.sharding.snapshot import (
    latest_seq,
    load_latest,
    load_snapshot,
    snapshot_path,
    wal_path,
    write_snapshot,
)
from repro.server.sharding.state import DEFAULT_SNAPSHOT_EVERY
from repro.server.sharding.wal import (
    OP_PUT,
    OP_REMOVE,
    decode_op,
    encode_put,
    encode_remove,
    replay_wal,
)
from repro.server.storage import ProfileStore
from repro.utils.rand import SystemRandomSource


def _drifted(payload, bump=1):
    """A re-upload of the same user whose OPE chain drifted slightly."""
    return dataclasses.replace(
        payload, chain=tuple(c + bump for c in payload.chain)
    )


def _moved(payload, key_index):
    """A re-upload whose fuzzy key landed in a different group."""
    return dataclasses.replace(payload, key_index=key_index)


def _widened(payload):
    """A re-upload carrying one chain element more than its group's."""
    return dataclasses.replace(
        payload, chain=payload.chain + (payload.chain[-1] + 1,)
    )


@pytest.fixture(scope="module")
def payloads(enrolled):
    _, _, uploads, _ = enrolled
    return [uploads[uid] for uid in sorted(uploads)]


# -- placement -----------------------------------------------------------------


class TestPlacement:
    def test_deterministic_across_instances(self, payloads):
        a = PlacementMap.build(4)
        b = PlacementMap.decode(PlacementMap.build(4).encode())
        for payload in payloads:
            assert a.shard_of(payload.key_index) == b.shard_of(
                payload.key_index
            )

    def test_codec_roundtrip(self):
        original = PlacementMap.build(3, version=7, vnodes=16)
        decoded = PlacementMap.decode(original.encode())
        assert decoded == original

    def test_every_shard_owns_keys(self):
        rng = SystemRandomSource(seed=5)
        placement = PlacementMap.build(4)
        owners = {
            placement.shard_of(rng.randbytes(32)) for _ in range(256)
        }
        assert owners == {0, 1, 2, 3}

    def test_rebalanced_bumps_version_only_explicitly(self):
        placement = PlacementMap.build(2)
        successor = placement.rebalanced(4)
        assert successor.version == placement.version + 1
        assert successor.shards == 4
        # the original is immutable and untouched
        assert placement.shards == 2

    def test_moved_keys_only_reports_movers(self):
        rng = SystemRandomSource(seed=6)
        keys = [rng.randbytes(32) for _ in range(64)]
        placement = PlacementMap.build(2)
        same = placement.rebalanced(2)
        assert placement.moved_keys(same, keys) == {}
        grown = placement.rebalanced(3)
        moved = placement.moved_keys(grown, keys)
        assert moved  # something must land on the new shard
        for key, (old, new) in moved.items():
            assert old != new
            assert placement.shard_of(key) == old
            assert grown.shard_of(key) == new

    def test_validation(self):
        with pytest.raises(ParameterError):
            PlacementMap.build(0)
        with pytest.raises(ParameterError):
            PlacementMap.build(2).shard_of(b"short")
        with pytest.raises(ProtocolError):
            PlacementMap.decode(b"\x00\x00\x00\x04junk")


# -- WAL -----------------------------------------------------------------------


class TestWal:
    def test_append_commit_replay_roundtrip(self, payloads, tmp_path):
        path = tmp_path / "wal.log"
        with ShardWal(path) as wal:
            wal.append_record(encode_put(payloads[0]))
            wal.append_record(encode_remove(payloads[0].user_id))
            assert wal.commit() == 2
        replayed = replay_wal(path)
        assert not replayed.torn_tail
        op, profile = decode_op(replayed.records[0])
        assert op == OP_PUT and profile == payloads[0]
        op, uid = decode_op(replayed.records[1])
        assert op == OP_REMOVE and uid == payloads[0].user_id

    def test_uncommitted_appends_are_not_durable(self, payloads, tmp_path):
        path = tmp_path / "wal.log"
        wal = ShardWal(path)
        wal.append_record(encode_put(payloads[0]))
        wal.commit()
        wal.append_record(encode_put(payloads[1]))
        wal.rollback()
        wal.close()
        assert len(replay_wal(path).records) == 1

    def test_torn_tail_truncated_on_reopen(self, payloads, tmp_path):
        path = tmp_path / "wal.log"
        with ShardWal(path) as wal:
            wal.append_record(encode_put(payloads[0]))
            wal.commit()
        intact = path.read_bytes()
        # crash mid-append: half a frame header lands on disk
        path.write_bytes(intact + b"\x00\x00")
        replayed = replay_wal(path)
        assert replayed.torn_tail
        assert replayed.valid_bytes == len(intact)
        assert len(replayed.records) == 1
        # reopening rolls the file back to the last commit point and the
        # next append continues from a clean boundary
        with ShardWal(path) as wal:
            assert len(wal.recovered) == 1
            wal.append_record(encode_put(payloads[1]))
            wal.commit()
        replayed = replay_wal(path)
        assert not replayed.torn_tail
        assert len(replayed.records) == 2

    def test_truncated_final_body_is_torn_not_corrupt(
        self, payloads, tmp_path
    ):
        path = tmp_path / "wal.log"
        with ShardWal(path) as wal:
            wal.append_record(encode_put(payloads[0]))
            wal.append_record(encode_put(payloads[1]))
            wal.commit()
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        replayed = replay_wal(path)
        assert replayed.torn_tail
        assert len(replayed.records) == 1

    def test_corrupt_crc_on_final_frame_is_torn_write(
        self, payloads, tmp_path
    ):
        path = tmp_path / "wal.log"
        with ShardWal(path) as wal:
            wal.append_record(encode_put(payloads[0]))
            wal.commit()
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x01
        path.write_bytes(bytes(data))
        replayed = replay_wal(path)
        assert replayed.torn_tail
        assert replayed.records == ()

    def test_midlog_corruption_is_a_typed_error(self, payloads, tmp_path):
        path = tmp_path / "wal.log"
        with ShardWal(path) as wal:
            wal.append_record(encode_put(payloads[0]))
            wal.append_record(encode_put(payloads[1]))
            wal.commit()
        data = bytearray(path.read_bytes())
        data[10] ^= 0xFF  # inside the first frame, with a frame following
        path.write_bytes(bytes(data))
        with pytest.raises(PersistenceError):
            replay_wal(path)

    def test_absurd_length_is_a_typed_error(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"\xff\xff\xff\xff\x00\x00\x00\x00" + b"x" * 64)
        with pytest.raises(PersistenceError):
            replay_wal(path)

    def test_duplicate_replay_is_idempotent(self, payloads, tmp_path):
        path = tmp_path / "wal.log"
        with ShardWal(path) as wal:
            for payload in payloads[:4]:
                wal.append_record(encode_put(payload))
            wal.append_record(encode_remove(payloads[0].user_id))
            wal.commit()
        records = replay_wal(path).records
        store = ProfileStore()
        for _ in range(2):  # at-least-once redelivery
            for raw in records:
                op, value = decode_op(raw)
                if op == OP_PUT:
                    store.put(value)
                elif store.contains(value):
                    store.remove(value)
        assert len(store) == 3
        assert not store.contains(payloads[0].user_id)

    def test_unknown_op_is_a_typed_error(self):
        from repro.utils.serial import FieldWriter

        w = FieldWriter()
        w.write_int(99)
        with pytest.raises(PersistenceError):
            decode_op(w.getvalue())


# -- snapshots -----------------------------------------------------------------


def _by_user(payloads):
    return {payload.user_id: payload for payload in payloads}


class TestSnapshots:
    def test_full_snapshot_compacts_the_chain(self, payloads, tmp_path):
        write_snapshot(tmp_path, 1, _by_user(payloads[:2]))
        with ShardWal(wal_path(tmp_path, 1)) as wal:
            wal.append_record(encode_put(payloads[2]))
        write_snapshot(tmp_path, 2, _by_user(payloads[:4]))
        assert [p.name for p in tmp_path.iterdir()] == ["snap-00000002.bin"]
        assert load_latest(tmp_path) == (tuple(payloads[:4]), 2)

    def test_equal_stores_write_equal_bytes(self, payloads, tmp_path):
        # uploads go in ascending user id, whatever order the store holds
        forward, backward = tmp_path / "forward", tmp_path / "backward"
        forward.mkdir()
        backward.mkdir()
        write_snapshot(forward, 1, _by_user(payloads))
        write_snapshot(backward, 1, _by_user(reversed(payloads)))
        data = snapshot_path(forward, 1).read_bytes()
        assert snapshot_path(backward, 1).read_bytes() == data
        assert load_snapshot(snapshot_path(backward, 1)) == (
            tuple(payloads),
            1,
        )

    def test_digest_corruption_is_a_typed_error(self, payloads, tmp_path):
        write_snapshot(tmp_path, 1, _by_user(payloads[:3]))
        path = snapshot_path(tmp_path, 1)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(PersistenceError):
            load_snapshot(path)

    def test_renamed_snapshot_is_a_typed_error(self, payloads, tmp_path):
        write_snapshot(tmp_path, 1, _by_user(payloads[:2]))
        path = snapshot_path(tmp_path, 1)
        path.rename(tmp_path / "snap-00000002.bin")
        with pytest.raises(PersistenceError):
            load_latest(tmp_path)

    @staticmethod
    def _left_behind(payloads, tmp_path):
        """Snapshot 2 in place beside the snapshot and segment it
        supersedes: a crash between its rename and its deletes."""
        write_snapshot(tmp_path, 1, _by_user(payloads[:2]))
        with ShardWal(wal_path(tmp_path, 1)) as wal:
            wal.append_record(encode_put(payloads[2]))
        older = {
            path: path.read_bytes()
            for path in (snapshot_path(tmp_path, 1), wal_path(tmp_path, 1))
        }
        write_snapshot(tmp_path, 2, _by_user(payloads[:3]))
        for path, data in older.items():
            path.write_bytes(data)
        return tuple(payloads[:3])

    def test_load_latest_deletes_what_the_newest_supersedes(
        self, payloads, tmp_path, monkeypatch
    ):
        uploads = self._left_behind(payloads, tmp_path)
        events = []
        real_fsync, real_unlink = os.fsync, pathlib.Path.unlink

        def fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            real_fsync(fd)

        def unlink(path, *args, **kwargs):
            events.append(("unlink", path.name))
            real_unlink(path, *args, **kwargs)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(pathlib.Path, "unlink", unlink)
        assert load_latest(tmp_path) == (uploads, 2)
        # the directory first, so snapshot 2's rename is durable
        assert events[0] == ("fsync", os.stat(tmp_path).st_ino)
        assert sorted(events[1:]) == [
            ("unlink", "snap-00000001.bin"),
            ("unlink", "wal-00000001.log"),
        ]
        assert [p.name for p in tmp_path.iterdir()] == ["snap-00000002.bin"]
        # nothing older left: a second load neither fsyncs nor deletes
        events.clear()
        assert load_latest(tmp_path) == (uploads, 2)
        assert events == []

    def test_failed_load_deletes_nothing(self, payloads, tmp_path):
        self._left_behind(payloads, tmp_path)
        newest = snapshot_path(tmp_path, 2)
        data = bytearray(newest.read_bytes())
        data[-1] ^= 0x01
        newest.write_bytes(bytes(data))
        with pytest.raises(PersistenceError):
            load_latest(tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "snap-00000001.bin",
            "snap-00000002.bin",
            "wal-00000001.log",
        ]


# -- shard state recovery ------------------------------------------------------


class TestShardStateRecovery:
    def test_snapshot_plus_tail_replay(self, payloads, tmp_path):
        state = ShardState(0, directory=tmp_path)
        state.apply([("put", p) for p in payloads[:6]])
        state.apply([("snapshot",)])
        # post-snapshot churn lives only in the WAL tail
        state.apply(
            [
                ("put", _drifted(payloads[0])),
                ("remove", payloads[5].user_id),
                ("put", payloads[6]),
            ]
        )
        state.close()

        recovered = ShardState(0, directory=tmp_path)
        assert len(recovered.store) == 6
        assert not recovered.store.contains(payloads[5].user_id)
        assert recovered.store.get(payloads[0].user_id) == _drifted(
            payloads[0]
        )
        recovered.close()

    def test_snapshot_truncates_the_log(self, payloads, tmp_path):
        state = ShardState(0, directory=tmp_path)
        state.apply([("put", p) for p in payloads[:5]])
        wal_files = list(tmp_path.glob("wal-*.log"))
        assert len(wal_files) == 1 and wal_files[0].stat().st_size > 0
        state.apply([("snapshot",)])
        wal_files = list(tmp_path.glob("wal-*.log"))
        assert len(wal_files) == 1 and wal_files[0].stat().st_size == 0
        assert list(tmp_path.glob("snap-*.bin"))
        state.close()

    def test_snapshot_cadence_is_automatic(self, payloads, tmp_path):
        state = ShardState(0, directory=tmp_path)
        repeats = DEFAULT_SNAPSHOT_EVERY // 8
        state.apply([("put", p) for p in payloads[:8]] * repeats)
        assert latest_seq(tmp_path) == 1
        state.close()

    def test_group_move_survives_snapshot_and_reopen(
        self, payloads, tmp_path
    ):
        a, b = payloads[0], payloads[1]
        state = ShardState(0, directory=tmp_path)
        state.apply([("put", a), ("put", b)])
        state.apply([("snapshot",)])
        # a's fuzzy key drifts into b's group, emptying a's old group
        state.apply([("put", _moved(a, b.key_index))])
        state.apply([("snapshot",)])
        state.close()
        recovered = ShardState(0, directory=tmp_path)
        assert recovered.store.get(a.user_id).key_index == b.key_index
        assert len(recovered.store.group_by_index(b.key_index)) == 2
        assert recovered.store.group_by_index(a.key_index) == {}
        recovered.close()

    def test_crash_between_snapshot_rename_and_cleanup(
        self, payloads, tmp_path, monkeypatch
    ):
        state = ShardState(0, directory=tmp_path)
        state.apply([("put", p) for p in payloads[:6]])
        state.apply([("snapshot",)])
        state.apply(
            [("put", p) for p in payloads[6:10]]
            + [("remove", payloads[0].user_id)]
        )
        real_unlink = pathlib.Path.unlink

        def unlink_fails_once(path, *args, **kwargs):
            monkeypatch.setattr(pathlib.Path, "unlink", real_unlink)
            raise OSError(errno.EIO, "input/output error")

        monkeypatch.setattr(pathlib.Path, "unlink", unlink_fails_once)
        with pytest.raises(PersistenceError) as info:
            state.apply([("snapshot",)])
        assert isinstance(info.value.__cause__, OSError)
        # snapshot 2 is in place and snapshot 1 is not yet deleted; the
        # shard is abandoned here, without close
        assert len(list(tmp_path.glob("snap-*.bin"))) == 2
        held = dict(state.store.all_profiles())
        assert held == {p.user_id: p for p in payloads[1:10]}

        reopened = ShardState(0, directory=tmp_path)
        try:
            assert dict(reopened.store.all_profiles()) == held
            # the reopen deleted what snapshot 2 supersedes
            assert len(list(tmp_path.glob("snap-*.bin"))) == 1
            assert len(list(tmp_path.glob("wal-*.log"))) == 1
            reopened.apply([("snapshot",)])
        finally:
            reopened.close()
        assert len(list(tmp_path.glob("snap-*.bin"))) == 1
        assert len(list(tmp_path.glob("wal-*.log"))) == 1

    def test_reopen_reads_each_wal_segment_once(
        self, payloads, tmp_path, monkeypatch
    ):
        with ShardedTier(shards=2, data_dir=tmp_path) as tier:
            tier.put_batch(payloads)
        reads = []
        real_read_bytes = pathlib.Path.read_bytes

        def counting_read_bytes(path):
            if path.name.startswith("wal-"):
                reads.append(path.relative_to(tmp_path))
            return real_read_bytes(path)

        monkeypatch.setattr(pathlib.Path, "read_bytes", counting_read_bytes)
        with ShardedTier(shards=2, data_dir=tmp_path) as reopened:
            assert len(reopened) == len(payloads)
        assert sorted(map(str, reads)) == [
            "shard-000/wal-00000000.log",
            "shard-001/wal-00000000.log",
        ]


def _fsyncs_after(patch, path):
    """Record the inode of every ``os.fsync`` from now on, once ``path``
    exists."""
    inodes = []
    real_fsync = os.fsync

    def fsync(fd):
        if path.exists():
            inodes.append(os.fstat(fd).st_ino)
        real_fsync(fd)

    patch.setattr(os, "fsync", fsync)
    return inodes


class TestNewEntriesAreDurable:
    """A new directory or WAL segment's entry is fsynced into its parent
    directory before the first commit into it returns."""

    def test_fresh_tier(self, payloads, tmp_path, monkeypatch):
        data_dir = tmp_path / "data"
        shard_dir = data_dir / "shard-000"
        segment = wal_path(shard_dir, 0)
        since = {
            path: _fsyncs_after(monkeypatch, path)
            for path in (data_dir, shard_dir, segment)
        }
        with ShardedTier(shards=1, data_dir=data_dir) as tier:
            tier.put(payloads[0])  # the shard's first commit
            commit = os.stat(segment).st_ino
        for path, inodes in since.items():
            assert os.stat(path.parent).st_ino in inodes[: inodes.index(commit)]

    def test_segment_a_snapshot_opens(self, payloads, tmp_path, monkeypatch):
        state = ShardState(0, directory=tmp_path)
        state.apply([("put", payloads[0])])
        segment = wal_path(tmp_path, 1)
        inodes = _fsyncs_after(monkeypatch, segment)
        state.apply([("snapshot",)])
        state.apply([("put", payloads[1])])  # the segment's first commit
        state.close()
        commit = os.stat(segment).st_ino
        assert os.stat(tmp_path).st_ino in inodes[: inodes.index(commit)]


class TestFailedBatch:
    """A batch that raises leaves the live store equal to what a reopen
    recovers: its in-memory mutations are undone along with its
    uncommitted WAL records, except those a mid-batch snapshot already
    made durable."""

    @staticmethod
    def _answers(state, uids):
        return state.apply([("query", uid, 3) for uid in uids])

    @pytest.mark.parametrize(
        "case", ["put", "remove", "replace", "put-snapshot-put", "widen"]
    )
    def test_memory_equals_disk_after_failed_batch(
        self, payloads, tmp_path, case
    ):
        base = payloads[:8]
        new, other_new = payloads[8], payloads[9]
        batch = {
            "put": [("put", new)],
            "remove": [("remove", base[0].user_id)],
            # the replacement lands in another group: the undo must
            # restore both the old group and the new one
            "replace": [("put", _moved(base[1], base[2].key_index))],
            "put-snapshot-put": [
                ("put", new),
                ("snapshot",),
                ("put", other_new),
            ],
            # base[4] shares its group with three other members of base,
            # so the longer chain must be refused before it is stored
            "widen": [("put", _widened(base[4]))],
        }[case]
        uids = [p.user_id for p in payloads[:10]]
        state = ShardState(0, directory=tmp_path)
        state.apply([("put", p) for p in base])
        before = self._answers(state, uids)
        with pytest.raises(ParameterError):
            state.apply(batch + [("bogus",)])
        live = self._answers(state, uids)
        stored = dict(state.store.all_profiles())
        state.close()

        reopened = ShardState(0, directory=tmp_path)
        try:
            assert self._answers(reopened, uids) == live
            assert dict(reopened.store.all_profiles()) == stored
        finally:
            reopened.close()
        if case == "put-snapshot-put":
            # the snapshot made the first put durable; only the second
            # was undone
            assert stored[new.user_id] == new
            assert other_new.user_id not in stored
        else:
            assert live == before
            assert stored == {p.user_id: p for p in base}

    @pytest.mark.parametrize("fault", ["half-write-enospc", "fsync-eio"])
    def test_failed_commit_is_undone_and_cut_back(
        self, payloads, tmp_path, monkeypatch, fault
    ):
        # three frames, so half the bytes hold a whole first frame
        base, failed, follow_up = payloads[:6], payloads[6:9], payloads[9]
        state = ShardState(0, directory=tmp_path)
        state.apply([("put", p) for p in base])
        real_write = os.write

        def half_write(fd, data):
            real_write(fd, bytes(data[: len(data) // 2]))
            raise OSError(errno.ENOSPC, "no space left on device")

        def failing_fsync(fd):
            raise OSError(errno.EIO, "input/output error")

        with monkeypatch.context() as patch:
            if fault == "half-write-enospc":
                patch.setattr(os, "write", half_write)
            else:
                patch.setattr(os, "fsync", failing_fsync)
            with pytest.raises(PersistenceError) as info:
                state.apply([("put", p) for p in failed])
        assert isinstance(info.value.__cause__, OSError)
        expected = {p.user_id: p for p in base}
        assert dict(state.store.all_profiles()) == expected
        # the segment refuses appends until it is reopened
        with pytest.raises(PersistenceError):
            state.apply([("put", follow_up)])
        assert dict(state.store.all_profiles()) == expected
        state.close()

        reopened = ShardState(0, directory=tmp_path)
        try:
            assert dict(reopened.store.all_profiles()) == expected
        finally:
            reopened.close()


def _renamed(payload, user_id):
    """The same upload under another user id (its authenticator's too)."""
    return dataclasses.replace(
        payload,
        user_id=user_id,
        auth=dataclasses.replace(payload.auth, user_id=user_id),
    )


def _cohort(payloads, size):
    """``size`` distinct users, each a renamed copy of a real upload."""
    return [
        _renamed(payloads[i % len(payloads)], 1000 + i) for i in range(size)
    ]


def _reupload_batches(cohort, batch):
    """Endless drifted re-uploads of the cohort, ``batch`` at a time."""
    for bump in itertools.count(1):
        drifted = [_drifted(p, bump) for p in cohort]
        for start in range(0, len(drifted), batch):
            yield drifted[start : start + batch]


def _wal_bytes(puts):
    """The WAL bytes a commit of these puts writes: per record, its
    ``[u32 length][u32 crc32]`` frame header and the put record."""
    return sum(8 + len(encode_put(p)) for p in puts)


def _fail_once(patch, target, name, nth=1):
    """Make the ``nth`` call of ``target.name`` from now raise ENOSPC, once."""
    real = getattr(target, name)
    calls = itertools.count(1)

    def failing(*args, **kwargs):
        if next(calls) == nth:
            raise OSError(errno.ENOSPC, "no space left on device")
        return real(*args, **kwargs)

    patch.setattr(target, name, failing)


#: Snapshot faults: (patched object, attribute, which call fails).  A batch
#: fsyncs its WAL commit first, so the snapshot's tmp-file fsync is the
#: second call and the directory fsync after ``os.replace`` the third.
_SNAPSHOT_FAULTS = {
    "write_atomic": (snapshot_module, "write_atomic", 1),
    "tmp-fsync": (os, "fsync", 2),
    "replace": (os, "replace", 1),
    "dir-fsync": (os, "fsync", 3),
}


#: The same faults on a snapshot the size rule triggers, plus a failed
#: delete of the files it supersedes.
_SIZE_SNAPSHOT_FAULTS = {
    **_SNAPSHOT_FAULTS,
    "unlink": (pathlib.Path, "unlink", 1),
}

#: Profiles on the shard the trigger tests load: its snapshot holds about
#: twice the WAL bytes of DEFAULT_SNAPSHOT_EVERY records.
_SHARD_SIZE = 600
#: Re-uploads per batch after the load.
_BATCH = 50


class TestFailedSnapshot:
    """A snapshot that fails at any step leaves the shard logging to a live
    segment, and memory equal to what a reopen recovers."""

    @staticmethod
    def _oracle(puts):
        store = ProfileStore()
        for p in puts:
            store.put(p)
        return store

    @pytest.mark.parametrize("fault", sorted(_SNAPSHOT_FAULTS))
    def test_failed_automatic_snapshot_keeps_the_batch(
        self, payloads, tmp_path, monkeypatch, caplog, fault
    ):
        cohort = [
            _renamed(payloads[i % len(payloads)], 1000 + i)
            for i in range(DEFAULT_SNAPSHOT_EVERY + 44)
        ]
        follow_up = _drifted(cohort[0])
        uids = [p.user_id for p in cohort]
        server = SMatchServer(shards=1, data_dir=tmp_path)
        tier = server.tier
        with monkeypatch.context() as patch:
            _fail_once(patch, *_SNAPSHOT_FAULTS[fault])
            with caplog.at_level("WARNING", logger="smatch"):
                tier.put_batch(cohort)
        assert "event=shard_snapshot_failed" in caplog.text
        assert len(tier) == len(cohort)
        TestBatchRouting._agree(tier, self._oracle(cohort), uids)
        # the shard still logs, and the next writing batch takes the
        # snapshot again
        tier.put_batch([follow_up])
        shard_dir = tmp_path / "shard-000"
        assert len(list(shard_dir.glob("snap-*.bin"))) == 1
        assert len(list(shard_dir.glob("wal-*.log"))) == 1
        tier.close()

        oracle = self._oracle(cohort + [follow_up])
        with ShardedTier(shards=1, data_dir=tmp_path) as reopened:
            TestBatchRouting._agree(reopened, oracle, uids)

    def test_reads_leave_a_failed_snapshot_to_the_next_write(
        self, payloads, tmp_path, monkeypatch
    ):
        cohort = [
            _renamed(payloads[i % len(payloads)], 1000 + i)
            for i in range(DEFAULT_SNAPSHOT_EVERY)
        ]
        attempts = []

        def failing(*args, **kwargs):
            attempts.append(args[0])
            raise OSError(errno.ENOSPC, "no space left on device")

        state = ShardState(0, directory=tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(snapshot_module, "write_atomic", failing)
            state.apply([("put", p) for p in cohort])
            assert len(attempts) == 1
            # a read batch commits no record, so it re-encodes nothing
            for p in cohort[:5]:
                state.apply([("query", p.user_id, 3)])
            state.apply([("sizes",)])
            assert len(attempts) == 1
            state.apply([("put", _drifted(cohort[0]))])
            assert len(attempts) == 2
        state.close()

    @pytest.mark.parametrize("fault", sorted(_SNAPSHOT_FAULTS))
    def test_failed_mid_batch_snapshot_keeps_committed_ops(
        self, payloads, tmp_path, monkeypatch, fault
    ):
        base, new, later = payloads[:8], payloads[8], payloads[9]
        state = ShardState(0, directory=tmp_path)
        state.apply([("put", p) for p in base])
        with monkeypatch.context() as patch:
            _fail_once(patch, *_SNAPSHOT_FAULTS[fault])
            with pytest.raises(PersistenceError) as info:
                state.apply([("put", new), ("snapshot",), ("put", later)])
        assert isinstance(info.value.__cause__, OSError)
        # the put before the snapshot was committed and stays; the op
        # after it never ran
        oracle = self._oracle(base + [new])
        assert dict(state.store.all_profiles()) == dict(oracle.all_profiles())
        state.apply([("put", later)])
        oracle.put(later)
        state.close()

        uids = [p.user_id for p in payloads[:10]]
        reopened = ShardState(0, directory=tmp_path)
        try:
            assert dict(reopened.store.all_profiles()) == dict(
                oracle.all_profiles()
            )
            assert reopened.apply([("query", uid, 3) for uid in uids]) == [
                _entries(oracle, oracle.match(uid, 3)) for uid in uids
            ]
        finally:
            reopened.close()


    @pytest.mark.parametrize("fault", sorted(_SIZE_SNAPSHOT_FAULTS))
    def test_failed_size_triggered_snapshot_is_retried(
        self, payloads, tmp_path, monkeypatch, caplog, fault
    ):
        cohort = _cohort(payloads, _SHARD_SIZE)
        uids = [p.user_id for p in cohort]
        oracle = self._oracle(cohort)
        shard_dir = tmp_path / "shard-000"
        tier = ShardedTier(shards=1, data_dir=tmp_path)
        tier.put_batch(cohort)
        snap_bytes = snapshot_path(shard_dir, 1).stat().st_size
        batches = _reupload_batches(cohort, _BATCH)
        segment = 0
        for batch in batches:
            if segment + _wal_bytes(batch) >= snap_bytes:
                break  # this batch takes the segment to the snapshot's size
            tier.put_batch(batch)
            for p in batch:
                oracle.put(p)
            segment += _wal_bytes(batch)
        assert latest_seq(shard_dir) == 1
        attempts = []
        real_snapshot = ShardState._snapshot

        def counting(state):
            attempts.append(state)
            return real_snapshot(state)

        monkeypatch.setattr(ShardState, "_snapshot", counting)
        with monkeypatch.context() as patch:
            _fail_once(patch, *_SIZE_SNAPSHOT_FAULTS[fault])
            with caplog.at_level("WARNING", logger="smatch"):
                tier.put_batch(batch)
        assert "event=shard_snapshot_failed" in caplog.text
        assert len(attempts) == 1
        for p in batch:
            oracle.put(p)
        # committed and routed; these reads do not retry the snapshot
        TestBatchRouting._agree(tier, oracle, uids)
        assert len(attempts) == 1
        follow_up = _drifted(cohort[0], 99)
        tier.put_batch([follow_up])
        oracle.put(follow_up)
        assert len(attempts) == 2
        assert len(list(shard_dir.glob("snap-*.bin"))) == 1
        assert len(list(shard_dir.glob("wal-*.log"))) == 1
        tier.close()

        with ShardedTier(shards=1, data_dir=tmp_path) as reopened:
            TestBatchRouting._agree(reopened, oracle, uids)


class TestSnapshotTrigger:
    """A shard snapshots once its live WAL segment holds as many bytes as
    its newest snapshot, and at least DEFAULT_SNAPSHOT_EVERY records have
    committed since that snapshot (the floor, pinned by
    ``TestShardStateRecovery::test_snapshot_cadence_is_automatic``)."""

    def test_snapshot_waits_for_the_segment_to_reach_the_snapshot(
        self, payloads, tmp_path
    ):
        cohort = _cohort(payloads, _SHARD_SIZE)
        state = ShardState(0, directory=tmp_path)
        try:
            # no snapshot yet, so the floor alone takes snapshot 1
            state.apply([("put", p) for p in cohort])
            assert latest_seq(tmp_path) == 1
            snap_bytes = snapshot_path(tmp_path, 1).stat().st_size
            segment = records = 0
            for batch in _reupload_batches(cohort, _BATCH):
                state.apply([("put", p) for p in batch])
                segment += _wal_bytes(batch)
                records += len(batch)
                if segment >= snap_bytes:
                    break
                assert latest_seq(tmp_path) == 1
                assert wal_path(tmp_path, 1).stat().st_size == segment
            # well past the floor before the segment reached the snapshot
            assert records - _BATCH > DEFAULT_SNAPSHOT_EVERY
            assert latest_seq(tmp_path) == 2
            assert sorted(p.name for p in tmp_path.iterdir()) == [
                "snap-00000002.bin",
                "wal-00000002.log",
            ]
            assert wal_path(tmp_path, 2).stat().st_size == 0
        finally:
            state.close()

    def test_disk_and_snapshot_count_stay_bounded(self, payloads, tmp_path):
        cohort = _cohort(payloads, _SHARD_SIZE)
        state = ShardState(0, directory=tmp_path)
        try:
            state.apply([("put", p) for p in cohort])
            written = _wal_bytes(cohort)
            sizes = {}  # snapshot seq -> its length
            uploads = 0
            for batch in _reupload_batches(cohort, _BATCH):
                if uploads >= 5 * _SHARD_SIZE:
                    break
                state.apply([("put", p) for p in batch])
                uploads += len(batch)
                batch_bytes = _wal_bytes(batch)
                written += batch_bytes
                seq = latest_seq(tmp_path)
                newest = sizes.setdefault(
                    seq, snapshot_path(tmp_path, seq).stat().st_size
                )
                on_disk = sum(p.stat().st_size for p in tmp_path.iterdir())
                assert on_disk <= 2 * newest + batch_bytes
            taken = latest_seq(tmp_path)
            assert taken >= 4  # the stream crossed several snapshots
            assert taken <= written // min(sizes.values()) + 1
        finally:
            state.close()

    def test_recovered_segment_counts_toward_the_next_snapshot(
        self, payloads, tmp_path
    ):
        cohort = _cohort(payloads, _SHARD_SIZE)
        uids = [p.user_id for p in cohort]
        oracle = TestFailedSnapshot._oracle(cohort)
        shard_dir = tmp_path / "shard-000"
        tier = ShardedTier(shards=1, data_dir=tmp_path)
        tier.put_batch(cohort)
        snap_bytes = snapshot_path(shard_dir, 1).stat().st_size
        batches = _reupload_batches(cohort, _BATCH)
        segment = records = 0
        while records <= DEFAULT_SNAPSHOT_EVERY:
            batch = next(batches)
            tier.put_batch(batch)
            for p in batch:
                oracle.put(p)
            segment += _wal_bytes(batch)
            records += len(batch)
        # past the floor, short of the snapshot: abandoned without close
        assert segment < snap_bytes
        assert latest_seq(shard_dir) == 1

        reopened = ShardedTier(shards=1, data_dir=tmp_path)
        try:
            TestBatchRouting._agree(reopened, oracle, uids)
            for batch in batches:
                reopened.put_batch(batch)
                segment += _wal_bytes(batch)
                if segment >= snap_bytes:
                    break
                assert latest_seq(shard_dir) == 1
            assert latest_seq(shard_dir) == 2
        finally:
            reopened.close()


# -- the equivalence matrix ----------------------------------------------------


def _churn_workload(payloads):
    """(mutations, queried-uids): upload all, drift some, move one, drop some."""
    uids = [p.user_id for p in payloads]
    other_key = payloads[-1].key_index
    ops = [("put", p) for p in payloads]
    ops += [("put", _drifted(p)) for p in payloads[::3]]
    ops += [("put", _moved(payloads[2], other_key))]
    ops += [("remove", uids[7]), ("remove", uids[11])]
    remaining = [u for u in uids if u not in (uids[7], uids[11])]
    return ops, remaining


def _entries(store, uids):
    return tuple(
        ResultEntry(user_id=uid, auth=store.get(uid).auth) for uid in uids
    )


def _oracle_results(payloads, k=3):
    """The churn workload on a bare ``ProfileStore``."""
    store = ProfileStore()
    ops, remaining = _churn_workload(payloads)
    for op in ops:
        if op[0] == "put":
            store.put(op[1])
        else:
            store.remove(op[1])
    return {
        uid: QueryResult(
            query_id=uid,
            timestamp=3,
            entries=_entries(store, store.match(uid, k)),
        ).encode()
        for uid in remaining
    }


def _apply_churn(tier, ops):
    """Feed churn ops to a tier: each run of puts as one batch."""
    puts = []
    for op in ops:
        if op[0] == "put":
            puts.append(op[1])
        else:
            tier.put_batch(puts)
            puts = []
            tier.remove(op[1])
    if puts:
        tier.put_batch(puts)


def _tier_results(tier, payloads, k=3):
    ops, remaining = _churn_workload(payloads)
    _apply_churn(tier, ops)
    return {
        uid: QueryResult(
            query_id=uid, timestamp=3, entries=tier.query(uid, k=k)
        ).encode()
        for uid in remaining
    }


def _server_results(server, payloads):
    ops, remaining = _churn_workload(payloads)
    for op in ops:
        if op[0] == "put":
            server.handle_message(UploadMessage(payload=op[1]))
        else:
            server.tier.remove(op[1])
    assert server.uploads_accepted == sum(1 for op in ops if op[0] == "put")
    return {
        uid: server.handle_message(
            QueryRequest(query_id=uid, timestamp=3, user_id=uid)
        ).encode()
        for uid in remaining
    }


class TestEquivalenceMatrix:
    @pytest.fixture(scope="class")
    def oracle(self, payloads):
        return _oracle_results(payloads)

    @pytest.mark.parametrize("shards", [1, 3])
    def test_inline_shards_match_legacy(self, payloads, oracle, shards):
        with ShardedTier(shards=shards, mode="inline") as tier:
            assert _tier_results(tier, payloads) == oracle

    def test_process_shards_match_legacy(self, payloads, oracle, tmp_path):
        with ShardedTier(shards=2, mode="process", data_dir=tmp_path) as tier:
            assert _tier_results(tier, payloads) == oracle

    def test_durable_tier_reopen_matches_legacy(
        self, payloads, oracle, tmp_path
    ):
        with ShardedTier(shards=3, mode="inline", data_dir=tmp_path) as tier:
            results = _tier_results(tier, payloads)
            assert results == oracle
        # cold reopen: snapshot + WAL tail + manifest routing rebuild
        with ShardedTier(shards=3, mode="inline", data_dir=tmp_path) as reopened:
            _, remaining = _churn_workload(payloads)
            for uid in remaining:
                entries = reopened.query(uid, k=3)
                assert (
                    QueryResult(
                        query_id=uid, timestamp=3, entries=entries
                    ).encode()
                    == oracle[uid]
                )

    def test_sharded_server_behind_handle_message(self, payloads, oracle):
        with SMatchServer(query_k=3, shards=3) as server:
            assert _server_results(server, payloads) == oracle

    def test_default_server_behind_handle_message(self, payloads, oracle):
        with SMatchServer(query_k=3) as server:
            assert _server_results(server, payloads) == oracle


class TestCrossShardMove:
    """A re-upload that moves a user to a group on another shard and is
    refused there leaves the tier as a bare ``ProfileStore`` leaves it."""

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the old shard applies the remove before the new shard "
        "refuses the put, so the user's previous record is lost",
    )
    @pytest.mark.parametrize("durable", [False, True], ids=["memory", "disk"])
    def test_refused_move_keeps_the_previous_record(
        self, payloads, tmp_path, durable
    ):
        tier = ShardedTier(shards=2, data_dir=tmp_path if durable else None)
        tier.put_batch(payloads)
        group_sizes = {}
        for p in payloads:
            group_sizes[p.key_index] = group_sizes.get(p.key_index, 0) + 1
        mover = next(p for p in payloads if group_sizes[p.key_index] > 1)
        home = tier.placement.shard_of(mover.key_index)
        away = next(
            p.key_index
            for p in payloads
            if tier.placement.shard_of(p.key_index) != home
        )
        # a chain one element longer than the away group's: refused there
        refused = _widened(_moved(mover, away))
        store = ProfileStore()
        for p in payloads:
            store.put(p)
        with pytest.raises(ParameterError):
            store.put(refused)
        uids = [p.user_id for p in payloads]
        try:
            with pytest.raises(ParameterError):
                tier.put_batch([refused])
            TestBatchRouting._agree(tier, store, uids)
            if durable:
                tier.close()
                tier = ShardedTier(shards=2, data_dir=tmp_path)
                TestBatchRouting._agree(tier, store, uids)
        finally:
            tier.close()


class TestBatchRouting:
    """The routing table names exactly the users the shards hold, batch
    by batch, as a bare store fed the same uploads one at a time does."""

    @staticmethod
    def _agree(tier, store, uids):
        exported = tier.export_store()
        assert len(tier) == len(exported) == len(store)
        assert dict(exported.all_profiles()) == dict(store.all_profiles())
        for uid in uids:
            assert tier.query(uid, k=3) == _entries(
                store, store.match(uid, 3)
            )

    @pytest.mark.parametrize("durable", [False, True], ids=["memory", "disk"])
    def test_committed_shard_routes_when_a_later_shard_refuses(
        self, payloads, tmp_path, durable
    ):
        base, new = payloads[:-1], payloads[-1]
        data_dir = tmp_path if durable else None
        tier = ShardedTier(shards=2, data_dir=data_dir)
        tier.put_batch(base)
        new_shard = tier.placement.shard_of(new.key_index)
        group_sizes = {}
        for p in base:
            group_sizes[p.key_index] = group_sizes.get(p.key_index, 0) + 1
        # a re-upload with one chain element more than its group's, on the
        # other shard: refused there after the new user's shard committed
        refused = _widened(
            next(
                p
                for p in base
                if group_sizes[p.key_index] > 1
                and tier.placement.shard_of(p.key_index) != new_shard
            )
        )
        store = ProfileStore()
        for p in base + [new]:
            store.put(p)
        with pytest.raises(ParameterError):
            store.put(refused)
        with pytest.raises(ParameterError):
            tier.put_batch([new, refused])
        uids = [p.user_id for p in payloads]
        self._agree(tier, store, uids)
        if durable:
            tier.close()
            tier = ShardedTier(shards=2, data_dir=tmp_path)
            self._agree(tier, store, uids)
        tier.close()

    def test_user_moved_away_and_back_in_one_batch(self, payloads):
        with ShardedTier(shards=2) as tier:
            tier.put_batch(payloads)
            home = payloads[0]
            home_shard = tier.placement.shard_of(home.key_index)
            away_key = next(
                p.key_index
                for p in payloads
                if tier.placement.shard_of(p.key_index) != home_shard
            )
            batch = [_moved(home, away_key), _drifted(home)]
            store = ProfileStore()
            for p in payloads + batch:
                store.put(p)
            tier.put_batch(batch)
            self._agree(tier, store, [p.user_id for p in payloads])


# -- crash recovery ------------------------------------------------------------


class TestCrashRecovery:
    @pytest.mark.parametrize(
        "killed", [[0], [0, 1]], ids=["shard0", "shard0and1"]
    )
    def test_kill_shard_mid_churn_converges_to_oracle(
        self, payloads, tmp_path, killed
    ):
        oracle = _oracle_results(payloads)
        with ShardedTier(shards=2, mode="process", data_dir=tmp_path) as tier:
            ops, remaining = _churn_workload(payloads)
            half = len(ops) // 2

            def run(op):
                if op[0] == "put":
                    tier.put(op[1])
                else:
                    tier.remove(op[1])

            for op in ops[: half // 2]:
                run(op)
            for shard in tier._shards:
                shard.apply([("snapshot",)])
            for op in ops[half // 2 : half]:
                run(op)
            for shard_id in killed:
                tail = tmp_path / f"shard-{shard_id:03d}" / "wal-00000001.log"
                assert tail.stat().st_size > 0
                # hard-kill the shard mid-churn; the crash op dies on the
                # retry too, so the typed error escapes — exactly once
                with pytest.raises(WorkerCrashError):
                    tier._shards[shard_id].apply([("crash",)])
            # churn continues with a batch that touches both shards: each
            # killed worker restarts and recovers from its snapshot + WAL
            # tail when its part of the batch reaches it
            rest = ops[half:]
            batch = itertools.takewhile(lambda op: op[0] == "put", rest)
            assert {
                tier.placement.shard_of(op[1].key_index) for op in batch
            } == {0, 1}
            _apply_churn(tier, rest)
            for uid in remaining:
                assert (
                    QueryResult(
                        query_id=uid, timestamp=3, entries=tier.query(uid, k=3)
                    ).encode()
                    == oracle[uid]
                )

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc fd links"
    )
    def test_no_worker_holds_a_sibling_exit_sentinel(
        self, payloads, tmp_path
    ):
        # a pool notices a dead worker when the worker's end of its exit
        # sentinel pipe closes; a sibling forked while that end was still
        # open in the coordinator keeps a copy, and the death goes unseen
        # (the crash then hangs instead of raising WorkerCrashError)
        import multiprocessing

        def write_ends(pid):
            links = set()
            try:
                fds = os.listdir(f"/proc/{pid}/fd")
            except OSError:
                return links  # a worker of an earlier pool, since exited
            for fd in fds:
                try:
                    link = os.readlink(f"/proc/{pid}/fd/{fd}")
                    with open(f"/proc/{pid}/fdinfo/{fd}") as info:
                        flags = next(
                            int(line.split()[1], 8)
                            for line in info
                            if line.startswith("flags:")
                        )
                except OSError:
                    continue  # closed while listing
                if flags & os.O_ACCMODE == os.O_WRONLY:
                    links.add(link)
            return links

        with ShardedTier(shards=3, mode="process", data_dir=tmp_path) as tier:
            tier.put_batch(payloads)
            children = multiprocessing.active_children()
            held = {child.pid: write_ends(child.pid) for child in children}
            for child in children:
                sentinel = os.readlink(f"/proc/self/fd/{child.sentinel}")
                holders = {
                    pid for pid, links in held.items() if sentinel in links
                }
                assert holders <= {child.pid}

    def test_crash_between_batches_loses_nothing(self, payloads, tmp_path):
        with ShardedTier(shards=1, mode="process", data_dir=tmp_path) as tier:
            tier.put_batch(payloads[:10])
            with pytest.raises(WorkerCrashError):
                tier._shards[0].apply([("crash",)])
            sizes = tier.shard_sizes()
            assert sum(sizes[0]) == 10


# -- tier lifecycle ------------------------------------------------------------


class TestTierLifecycle:
    def test_placement_mismatch_refused_on_reopen(self, payloads, tmp_path):
        with ShardedTier(shards=2, mode="inline", data_dir=tmp_path) as tier:
            tier.put_batch(payloads[:4])
        with pytest.raises(ParameterError):
            ShardedTier(shards=4, mode="inline", data_dir=tmp_path)

    def test_rebalance_is_explicit_and_versioned(self, payloads, tmp_path):
        tier = ShardedTier(shards=2, mode="inline", data_dir=tmp_path)
        tier.put_batch(payloads)
        before = {
            uid: tier.query(uid, k=3) for uid in (p.user_id for p in payloads)
        }
        old_version = tier.placement.version
        tier.rebalance(4)
        assert tier.placement.version == old_version + 1
        assert tier.shards == 4
        total = sum(sum(sizes) for sizes in tier.shard_sizes().values())
        assert total == len(payloads)
        for uid, entries in before.items():
            assert tier.query(uid, k=3) == entries
        tier.close()
        # the successor map is what a reopen must now be asked for
        reopened = ShardedTier(shards=4, mode="inline", data_dir=tmp_path)
        assert len(reopened) == len(payloads)
        reopened.close()

    def test_placement_map_is_written_atomically(
        self, payloads, tmp_path, monkeypatch
    ):
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            real_fsync(fd)

        def replace(src, dst):
            name = os.path.basename(dst)
            events.append(("replace", os.stat(src).st_ino, name))
            real_replace(src, dst)

        with monkeypatch.context() as patch:
            patch.setattr(os, "fsync", fsync)
            patch.setattr(os, "replace", replace)
            tier = ShardedTier(shards=2, data_dir=tmp_path)
            tier.put_batch(payloads[:6])
            tier.rebalance(3)
            tier.close()
        # the first map, then its successor
        installs = [
            at
            for at, event in enumerate(events)
            if event[0] == "replace" and event[2] == "placement.bin"
        ]
        assert len(installs) == 2
        directory = os.stat(tmp_path).st_ino
        bounds = [-1] + installs + [len(events)]
        for n, at in enumerate(installs):
            tmp_file = events[at][1]
            assert ("fsync", tmp_file) in events[bounds[n] + 1 : at]
            assert ("fsync", directory) in events[at + 1 : bounds[n + 2]]

    @pytest.mark.parametrize("damage", ["snapshot", "wal-record"])
    def test_failed_open_closes_the_shards_it_opened(
        self, payloads, tmp_path, monkeypatch, damage
    ):
        with ShardedTier(shards=2, data_dir=tmp_path) as tier:
            tier.put_batch(payloads)
            for shard in tier._shards:
                shard.apply([("snapshot",)])
        shard_dir = tmp_path / "shard-001"
        if damage == "snapshot":
            path = snapshot_path(shard_dir, 1)
            data = bytearray(path.read_bytes())
            data[-1] ^= 0x01
            path.write_bytes(bytes(data))
        else:
            # a whole frame whose record names no op: shard 1 fails while
            # replaying its open segment
            with ShardWal(wal_path(shard_dir, 1)) as wal:
                wal.append_record(b"\x00\x00\x00\x01\x63")
        closed = []
        real_close = ShardState.close

        def counting_close(state):
            closed.append(state.shard_id)
            real_close(state)

        monkeypatch.setattr(ShardState, "close", counting_close)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(PersistenceError):
                ShardedTier(shards=2, data_dir=tmp_path)
            gc.collect()
        assert closed == [0]
        assert not [w for w in caught if w.category is ResourceWarning]

    def test_rebalance_down_drains_dropped_shards(self, payloads):
        tier = ShardedTier(shards=3, mode="inline")
        tier.put_batch(payloads)
        tier.rebalance(1)
        assert tier.shards == 1
        sizes = tier.shard_sizes()
        assert sum(sizes[0]) == len(payloads)
        tier.close()

    def test_unknown_users(self, payloads):
        with ShardedTier(shards=2, mode="inline") as tier:
            tier.put_batch(payloads[:3])
            assert tier.query(999_999, k=3) == ()
            with pytest.raises(MatchingError):
                tier.remove(999_999)

    def test_export_import_roundtrip(self, payloads):
        with ShardedTier(shards=3, mode="inline") as tier:
            tier.put_batch(payloads)
            exported = tier.export_store()
        with ShardedTier(shards=2, mode="inline") as fresh:
            fresh.import_profiles(list(exported.all_profiles().values()))
            assert len(fresh) == len(payloads)
            total = sum(sum(s) for s in fresh.shard_sizes().values())
            assert total == len(payloads)
            assert dict(fresh.export_store().all_profiles()) == {
                p.user_id: p for p in payloads
            }

    def test_validation(self):
        with pytest.raises(ParameterError):
            ShardedTier(shards=0)
        with pytest.raises(ParameterError):
            ShardedTier(shards=1, mode="quantum")

    def test_max_distance_queries_route_too(self, payloads):
        store = ProfileStore()
        for payload in payloads:
            store.put(payload)
        with ShardedTier(shards=3, mode="inline") as tier:
            tier.put_batch(payloads)
            for payload in payloads[:8]:
                uid = payload.user_id
                assert tier.query(uid, k=3, max_distance=4) == _entries(
                    store, store.match_within(uid, 4)
                )
