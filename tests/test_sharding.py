"""Tests for the sharded, durable server tier (repro.server.sharding).

Covers the four layers bottom-up — placement ring, WAL, snapshots,
shard state — then the coordinator-level contracts: the equivalence matrix
(shards=1 vs shards=N vs process-backed shards vs a durable reopen vs the
default ``SMatchServer`` behind ``handle_message``, each checked for
byte-identical ``QueryResult`` encodings against a bare ``ProfileStore`` +
``ServerMatcher`` oracle) and kill-a-shard-mid-churn crash recovery
against the same oracle.
"""

import dataclasses
import errno
import os
import pathlib

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
from repro.server.matcher import ServerMatcher
from repro.server.service import SMatchServer
from repro.server.sharding import (
    PlacementMap,
    ShardState,
    ShardWal,
    ShardedTier,
    SnapshotStore,
)
from repro.server.sharding.snapshot import load_snapshot, write_snapshot
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


def _group_table(payloads):
    groups = {}
    for payload in payloads:
        groups.setdefault(payload.key_index, {})[payload.user_id] = payload
    return groups


class TestSnapshots:
    def test_full_snapshot_compacts_the_chain(self, payloads, tmp_path):
        store = SnapshotStore(tmp_path)
        store.write(1, _group_table(payloads[:2]))
        with ShardWal(store.wal_path(1)) as wal:
            wal.append_record(encode_put(payloads[2]))
        groups = _group_table(payloads[:4])
        store.write(2, groups)
        assert [p.name for p in tmp_path.iterdir()] == ["snap-00000002.bin"]
        assert store.load_latest() == (groups, 2)

    def test_digest_corruption_is_a_typed_error(self, payloads, tmp_path):
        path = write_snapshot(tmp_path, 1, _group_table(payloads[:3]))
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(PersistenceError):
            load_snapshot(path)

    def test_renamed_snapshot_is_a_typed_error(self, payloads, tmp_path):
        path = write_snapshot(tmp_path, 1, _group_table(payloads[:2]))
        path.rename(tmp_path / "snap-00000002.bin")
        with pytest.raises(PersistenceError):
            SnapshotStore(tmp_path).load_latest()


# -- shard state recovery ------------------------------------------------------


class TestShardStateRecovery:
    def test_snapshot_plus_tail_replay(self, payloads, tmp_path):
        state = ShardState(0, directory=tmp_path)
        state.apply([("put", p) for p in payloads[:6]])
        state.snapshot_now()
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
        assert SnapshotStore(tmp_path).latest_seq() == 1
        state.close()

    def test_group_move_survives_snapshot_and_reopen(
        self, payloads, tmp_path
    ):
        a, b = payloads[0], payloads[1]
        state = ShardState(0, directory=tmp_path)
        state.apply([("put", a), ("put", b)])
        state.snapshot_now()
        # a's fuzzy key drifts into b's group, emptying a's old group
        state.apply([("put", _moved(a, b.key_index))])
        state.snapshot_now()
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
        state.snapshot_now()
        state.apply(
            [("put", p) for p in payloads[6:10]]
            + [("remove", payloads[0].user_id)]
        )
        real_unlink = pathlib.Path.unlink

        def unlink_fails_once(path, *args, **kwargs):
            monkeypatch.setattr(pathlib.Path, "unlink", real_unlink)
            raise OSError(errno.EIO, "input/output error")

        monkeypatch.setattr(pathlib.Path, "unlink", unlink_fails_once)
        with pytest.raises(OSError):
            state.snapshot_now()
        # snapshot 2 is in place and snapshot 1 is not yet deleted; the
        # shard is abandoned here, without close
        assert len(list(tmp_path.glob("snap-*.bin"))) == 2
        held = dict(state.store.all_profiles())
        assert held == {p.user_id: p for p in payloads[1:10]}

        reopened = ShardState(0, directory=tmp_path)
        try:
            assert dict(reopened.store.all_profiles()) == held
            reopened.snapshot_now()
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
    """The churn workload on a bare ``ProfileStore`` + ``ServerMatcher``."""
    store = ProfileStore()
    matcher = ServerMatcher(store)
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
            entries=_entries(store, matcher.match(uid, k)),
        ).encode()
        for uid in remaining
    }


def _tier_results(tier, payloads, k=3):
    ops, remaining = _churn_workload(payloads)
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
    out = {}
    bulk = tier.query_bulk(remaining, k=k)
    for uid in remaining:
        single = tier.query(uid, k=k)
        assert single == bulk[uid]
        out[uid] = QueryResult(
            query_id=uid, timestamp=3, entries=bulk[uid]
        ).encode()
    return out


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


# -- crash recovery ------------------------------------------------------------


class TestCrashRecovery:
    def test_kill_shard_mid_churn_converges_to_oracle(
        self, payloads, tmp_path
    ):
        oracle = _oracle_results(payloads)
        with ShardedTier(shards=2, mode="process", data_dir=tmp_path) as tier:
            ops, remaining = _churn_workload(payloads)
            half = len(ops) // 2
            crashed = False

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
            tail = tmp_path / "shard-000" / "wal-00000001.log"
            assert tail.stat().st_size > 0
            # hard-kill shard 0 mid-churn; the crash op dies on the retry
            # too, so the typed error escapes — exactly once
            try:
                tier._shards[0].apply([("crash",)])
            except WorkerCrashError:
                crashed = True
            assert crashed
            # churn continues: the next batch restarts the worker, which
            # recovers from its snapshot + WAL tail
            for op in ops[half:]:
                run(op)
            bulk = tier.query_bulk(remaining, k=3)
            for uid in remaining:
                assert (
                    QueryResult(
                        query_id=uid, timestamp=3, entries=bulk[uid]
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
            assert tier.query_bulk([999_999], k=3) == {999_999: ()}
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
        matcher = ServerMatcher(store)
        for payload in payloads:
            store.put(payload)
        with ShardedTier(shards=3, mode="inline") as tier:
            tier.put_batch(payloads)
            for payload in payloads[:8]:
                uid = payload.user_id
                assert tier.query(uid, max_distance=4) == _entries(
                    store, matcher.match_within(uid, 4)
                )
