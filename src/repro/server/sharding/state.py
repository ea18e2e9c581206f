"""One shard's live state: store + matcher + WAL/snapshot durability.

A :class:`ShardState` is the unit that runs inside a shard worker process,
and is itself the shard handle of an inline tier (the default
``SMatchServer`` engine): its own
:class:`~repro.server.storage.ProfileStore` and
:class:`~repro.server.matcher.ServerMatcher`, plus an optional
:class:`ShardDurability` wiring the write-ahead log and snapshots
underneath every mutation.

The batch protocol (:meth:`ShardState.apply`) is a list of plain
tuples — the picklable shape the coordinator ships across the process
boundary:

``("put", profile)``
    insert/replace one encrypted profile (WAL-logged);
``("remove", user_id)``
    delete one profile — **tolerant** of an already-absent user, so
    at-least-once redelivery after a crash converges;
``("query", user_id, k)``
    kNN match → a tuple of :class:`~repro.net.messages.ResultEntry`
    (empty for an unknown user or singleton group);
``("query_within", user_id, max_distance)``
    MAX-distance match, same result shape;
``("manifest",)``
    ``((user_id, key_index), ...)`` — the routing table the coordinator
    rebuilds from after reopening a durable tier;
``("export",)`` / ``("export_group", key_index)``
    stored profiles (all, or one group) — the rebalance/import-export path;
``("sizes",)``
    the shard's group sizes;
``("snapshot",)``
    force a snapshot now (tests and explicit WAL truncation);
``("crash",)``
    hard-kill the process via ``os._exit`` — the recovery-drill hook the
    kill-shard-mid-churn tests use; never emitted by the coordinator.

Write-ahead ordering: each mutation is appended to the WAL buffer *before*
it is applied, and the whole batch is made durable by one fsync'd
:meth:`~repro.server.sharding.wal.ShardWal.commit` after the last op.  A
crash anywhere before the commit loses the entire batch (the process dies
with it), so the coordinator's retry-once-on-crash policy plus tolerant
replay gives exactly the convergence the equivalence tests pin.  A batch
that *raises* instead is undone in memory as well as in the WAL buffer, so
the live store always equals what a reopen would recover.
"""

from __future__ import annotations

import os
import pathlib
from typing import List, Optional, Sequence, Tuple, Union, cast

from repro.core.scheme import EncryptedProfile
from repro.errors import MatchingError, ParameterError
from repro.net.messages import ResultEntry
from repro.obs.metrics import (
    M_SHARD_OPS,
    M_SHARD_QUERIES,
    M_SHARD_RECOVERIES,
    M_SHARD_WAL_REPLAYED,
    metric_inc,
)
from repro.server.matcher import ServerMatcher
from repro.server.sharding.snapshot import GroupTable, SnapshotStore
from repro.server.sharding.wal import (
    OP_PUT,
    ShardWal,
    decode_op,
    encode_put,
    encode_remove,
)
from repro.server.storage import ProfileStore

__all__ = ["ShardDurability", "ShardState"]

#: Shard op: a plain tuple, first element the op name (see module docs).
ShardOp = Tuple[object, ...]

#: One undo entry: a mutated user and their record before the mutation
#: (``None`` when the user was absent).
_Undo = Tuple[int, Optional[EncryptedProfile]]

#: Snapshot cadence: a shard snapshots once this many WAL records have
#: accumulated since its last snapshot.
DEFAULT_SNAPSHOT_EVERY = 256

#: Always ``1``: every snapshot is full.  Kept only because
#: ``perfbench/churn.py`` records it in its provenance.
DEFAULT_FULL_EVERY = 1


class ShardDurability:
    """The WAL + snapshot pair of one shard directory.

    Single-writer: exactly one live :class:`ShardState` may own a shard
    directory at a time (the tier guarantees this — one worker per shard).
    :meth:`recover` is the only entry point that opens the log, so the
    snapshot load and the torn-tail truncation always happen together, in
    the right order.
    """

    def __init__(self, directory: Union[str, pathlib.Path]) -> None:
        self._snapshots = SnapshotStore(directory)
        self._seq = 0
        self._wal: Optional[ShardWal] = None

    @property
    def directory(self) -> pathlib.Path:
        """The shard directory (snapshots + live WAL segment)."""
        return self._snapshots.directory

    def recover(self) -> Tuple[GroupTable, Tuple[bytes, ...]]:
        """``(snapshot groups, WAL tail records)`` and open the live log.

        The tail is what :class:`ShardWal` read when it opened the
        segment, before it cut any torn tail away: exactly the committed
        suffix the caller replays on top of the newest snapshot.
        """
        groups, self._seq = self._snapshots.load_latest()
        self._wal = ShardWal(self._snapshots.wal_path(self._seq))
        return groups, self._wal.recovered

    def _live_wal(self) -> ShardWal:
        if self._wal is None:
            raise ParameterError("durability not recovered (or closed)")
        return self._wal

    def log_put(self, payload: EncryptedProfile) -> None:
        """Buffer a put record (durable at the next :meth:`commit`)."""
        self._live_wal().append_record(encode_put(payload))

    def log_remove(self, user_id: int) -> None:
        """Buffer a remove record (durable at the next :meth:`commit`)."""
        self._live_wal().append_record(encode_remove(user_id))

    def commit(self) -> int:
        """Make all buffered records durable; returns the record count."""
        return self._live_wal().commit()

    def rollback(self) -> None:
        """Drop buffered, uncommitted records after a failed batch."""
        if self._wal is not None:
            self._wal.rollback()

    def snapshot(self, store: ProfileStore) -> None:
        """Snapshot every group and rotate the WAL.

        In order: close the live segment (committing anything buffered),
        write the snapshot, delete the older snapshot and segments, open
        the next segment.  A crash at any point recovers from the newest
        snapshot on disk plus the segment named after it.
        """
        new_seq = self._seq + 1
        self._live_wal().close()
        self._wal = None
        self._snapshots.write(new_seq, dict(store.groups()))
        self._seq = new_seq
        self._wal = ShardWal(self._snapshots.wal_path(new_seq))

    def close(self) -> None:
        """Commit and close the live WAL segment (idempotent)."""
        if self._wal is not None:
            self._wal.close()
            self._wal = None


class ShardState:
    """One shard's store + matcher, with optional durability underneath."""

    def __init__(
        self,
        shard_id: int,
        order_method: str = "rank",
        directory: Optional[Union[str, pathlib.Path]] = None,
    ) -> None:
        self.shard_id = shard_id
        self.store = ProfileStore()
        self.matcher = ServerMatcher(self.store, order_method=order_method)
        self._records_since_snapshot = 0
        self._durability: Optional[ShardDurability] = None
        if directory is not None:
            durability = ShardDurability(directory)
            self._durability = durability
            self._recover(durability)

    def _recover(self, durability: ShardDurability) -> None:
        groups, tail = durability.recover()
        for members in groups.values():
            for payload in members.values():
                self.store.put(payload)
        for raw in tail:
            op, value = decode_op(raw)
            if op == OP_PUT:
                self.store.put(cast(EncryptedProfile, value))
            else:
                user_id = cast(int, value)
                # tolerant: a redelivered remove of an absent user is a no-op
                if self.store.contains(user_id):
                    self.store.remove(user_id)
        # replayed records count toward the snapshot cadence so a shard
        # that crashes right before every snapshot still converges to one
        self._records_since_snapshot = len(tail)
        if groups or tail:
            metric_inc(M_SHARD_WAL_REPLAYED, len(tail))
            metric_inc(M_SHARD_RECOVERIES)

    # -- mutations -------------------------------------------------------------

    def _put(self, payload: EncryptedProfile, undo: List[_Undo]) -> None:
        previous = self.store.all_profiles().get(payload.user_id)
        if self._durability is not None:
            self._durability.log_put(payload)
        self.store.put(payload)
        undo.append((payload.user_id, previous))

    def _remove(self, user_id: int, undo: List[_Undo]) -> None:
        previous = self.store.all_profiles().get(user_id)
        if previous is None:
            return  # tolerant: replay/redelivery idempotence
        if self._durability is not None:
            self._durability.log_remove(user_id)
        self.store.remove(user_id)
        undo.append((user_id, previous))

    def _undo(self, undo: List[_Undo]) -> None:
        """Restore every undo entry's prior record, newest first."""
        for user_id, previous in reversed(undo):
            if previous is None:
                self.store.remove(user_id)
            else:
                self.store.put(previous)

    # -- queries ---------------------------------------------------------------

    def _entries(self, matches: Sequence[int]) -> Tuple[ResultEntry, ...]:
        return tuple(
            ResultEntry(user_id=uid, auth=self.store.get(uid).auth)
            for uid in matches
        )

    def _query(self, user_id: int, k: int) -> Tuple[ResultEntry, ...]:
        try:
            return self._entries(self.matcher.match(user_id, k))
        except MatchingError:
            return ()  # unknown user or singleton group: empty result

    def _query_within(
        self, user_id: int, max_distance: int
    ) -> Tuple[ResultEntry, ...]:
        try:
            return self._entries(
                self.matcher.match_within(user_id, max_distance)
            )
        except MatchingError:
            return ()

    # -- the batch protocol ----------------------------------------------------

    def start(self) -> None:
        """Nothing to start inline (``ProcessShard.start`` forks)."""

    def apply(self, ops: Sequence[ShardOp]) -> List[object]:
        """Apply one op batch in order; one result slot per op.

        Mutations are WAL-buffered as they apply and committed once at the
        end of the batch.  A failed op or a failed commit undoes the
        batch's in-memory mutations and rolls the uncommitted buffer back
        before the error propagates, so neither the store nor the log
        holds anything from a batch the coordinator saw fail.  Mutations a
        mid-batch ``("snapshot",)`` already made durable stay applied.
        """
        results: List[object] = []
        undo: List[_Undo] = []
        mutations = 0
        queries = 0
        try:
            for op in ops:
                kind = op[0]
                if kind == "put":
                    self._put(cast(EncryptedProfile, op[1]), undo)
                    mutations += 1
                    results.append(None)
                elif kind == "remove":
                    self._remove(int(op[1]), undo)  # type: ignore[arg-type]
                    mutations += 1
                    results.append(None)
                elif kind == "query":
                    queries += 1
                    results.append(
                        self._query(int(op[1]), int(op[2]))  # type: ignore[arg-type]
                    )
                elif kind == "query_within":
                    queries += 1
                    results.append(
                        self._query_within(int(op[1]), int(op[2]))  # type: ignore[arg-type]
                    )
                elif kind == "manifest":
                    results.append(
                        tuple(
                            (uid, key_index)
                            for key_index, members in self.store.groups()
                            for uid in sorted(members)
                        )
                    )
                elif kind == "export":
                    results.append(
                        tuple(self.store.all_profiles().values())
                    )
                elif kind == "export_group":
                    key_index = cast(bytes, op[1])
                    results.append(
                        tuple(
                            self.store.group_by_index(key_index).values()
                        )
                    )
                elif kind == "sizes":
                    results.append(tuple(self.store.group_sizes()))
                elif kind == "snapshot":
                    self.snapshot_now()
                    if self._durability is not None:
                        undo.clear()  # the snapshot made them durable
                    results.append(None)
                elif kind == "crash":
                    os._exit(21)  # recovery-drill hook: die mid-batch
                else:
                    raise ParameterError(f"unknown shard op {kind!r}")
            if self._durability is not None:
                self._records_since_snapshot += self._durability.commit()
        except BaseException:
            self._undo(undo)
            if self._durability is not None:
                self._durability.rollback()
            raise
        if self._records_since_snapshot >= DEFAULT_SNAPSHOT_EVERY:
            self.snapshot_now()
        if mutations:
            metric_inc(M_SHARD_OPS, mutations)
        if queries:
            metric_inc(M_SHARD_QUERIES, queries)
        return results

    def snapshot_now(self) -> None:
        """Snapshot immediately (no-op without durability)."""
        if self._durability is None:
            return
        self._durability.snapshot(self.store)
        self._records_since_snapshot = 0

    def close(self) -> None:
        """Flush and close the durability layer (idempotent)."""
        if self._durability is not None:
            self._durability.close()
