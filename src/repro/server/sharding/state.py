"""One shard: its store, and the WAL and snapshots that make it durable.

A :class:`ShardState` is the unit that runs inside a shard worker process,
and is itself the shard handle of an inline tier (the default
``SMatchServer`` engine).  Its own
:class:`~repro.server.storage.ProfileStore` stores the shard's uploads and
answers its queries.  Given a directory, the shard is durable: it owns the
directory, the live :class:`~repro.server.sharding.wal.ShardWal` segment
there, and the sequence number and length of its newest snapshot
(:mod:`repro.server.sharding.snapshot` names and writes the files).  It
recovers itself when built, logs every mutation before applying it, and
snapshots itself.

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
    ``((key_index, (user_id, ...)), ...)``, one entry per key group — the
    routing table the coordinator rebuilds from after reopening a durable
    tier;
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

Snapshots follow the size rule of log compaction (Ongaro & Ousterhout,
USENIX ATC 2014, §7): after a batch that commits a record, a shard
snapshots once its live WAL segment holds at least as many bytes as its
newest snapshot, and at least :data:`DEFAULT_SNAPSHOT_EVERY` records have
committed since that snapshot.  Whatever the shard's size, the snapshot
bytes written per upload then stay near the upload's own WAL bytes, the
directory near twice the live bytes, and a reopen replays less than one
snapshot's worth of records.
"""

from __future__ import annotations

import os
import pathlib
from typing import List, Optional, Sequence, Tuple, Union, cast

from repro.core.scheme import EncryptedProfile
from repro.errors import MatchingError, ParameterError, PersistenceError
from repro.net.messages import ResultEntry
from repro.obs.logs import get_logger
from repro.obs.metrics import (
    M_SHARD_OPS,
    M_SHARD_QUERIES,
    M_SHARD_RECOVERIES,
    M_SHARD_WAL_REPLAYED,
    metric_inc,
)
from repro.obs.trace import span
from repro.server.sharding.snapshot import (
    latest_seq,
    load_latest,
    make_directory,
    snapshot_path,
    wal_path,
    write_snapshot,
)
from repro.server.sharding.wal import (
    OP_PUT,
    ShardWal,
    decode_op,
    encode_put,
    encode_remove,
)
from repro.server.storage import ProfileStore

__all__ = ["ShardState"]

_log = get_logger("server.sharding")

#: Shard op: a plain tuple, first element the op name (see module docs).
ShardOp = Tuple[object, ...]

#: One undo entry: a mutated user and their record before the mutation
#: (``None`` when the user was absent).
_Undo = Tuple[int, Optional[EncryptedProfile]]

#: The fewest committed records between automatic snapshots.  A shard
#: whose snapshot is smaller than this many records' worth of WAL
#: snapshots every this many records.
DEFAULT_SNAPSHOT_EVERY = 256

#: Always ``1``: every snapshot is full.  Kept only because
#: ``perfbench/churn.py`` records it in its provenance.
DEFAULT_FULL_EVERY = 1


class ShardState:
    """One shard's store, durable when it is given a directory.

    Single-writer: exactly one live :class:`ShardState` may own a shard
    directory at a time (the tier guarantees this — one handle per shard).
    Building one on a directory is the only way its log opens, so the
    snapshot load and the torn-tail truncation always happen together, in
    the right order.
    """

    def __init__(
        self,
        shard_id: int,
        directory: Optional[Union[str, pathlib.Path]] = None,
    ) -> None:
        self.shard_id = shard_id
        self.store = ProfileStore()
        self._records_since_snapshot = 0
        #: the shard directory and its live WAL segment; None in memory
        self._dir: Optional[pathlib.Path] = None
        self._wal: Optional[ShardWal] = None
        #: the newest snapshot's sequence number; 0 when none exists
        self._seq = 0
        #: the newest snapshot's length; 0 when none or a snapshot failed
        self._snapshot_bytes = 0
        if directory is not None:
            self._dir = pathlib.Path(directory)
            make_directory(self._dir)
            self._recover(self._dir)

    def _recover(self, directory: pathlib.Path) -> None:
        """Load the newest snapshot, open the live segment named after it,
        and replay the committed records that segment held.

        The tail is what :class:`ShardWal` read when it opened the
        segment, before it cut any torn tail away: exactly the committed
        suffix to replay on top of the snapshot.  A replay that raises
        closes the segment again.
        """
        with span("server.sharding.recover") as current:
            uploads, self._seq = load_latest(directory)
            if self._seq:
                path = snapshot_path(directory, self._seq)
                self._snapshot_bytes = path.stat().st_size
            wal = self._wal = ShardWal(wal_path(directory, self._seq))
            # hand the tail over: the live segment would otherwise hold up
            # to a snapshot's worth of replayed records until the next
            # snapshot
            tail, wal.recovered = wal.recovered, ()
            current.set_attr("records", len(tail))
            try:
                for payload in uploads:
                    self.store.put(payload)
                for raw in tail:
                    op, value = decode_op(raw)
                    if op == OP_PUT:
                        self.store.put(cast(EncryptedProfile, value))
                    else:
                        user_id = cast(int, value)
                        # tolerant: a redelivered remove of an absent user
                        # is a no-op
                        if self.store.contains(user_id):
                            self.store.remove(user_id)
            except BaseException:
                wal.close()
                raise
        # replayed records count toward the snapshot floor, and the
        # recovered segment's bytes toward the size rule, so a shard that
        # crashes right before every snapshot still converges to one
        self._records_since_snapshot = len(tail)
        if uploads or tail:
            metric_inc(M_SHARD_WAL_REPLAYED, len(tail))
            metric_inc(M_SHARD_RECOVERIES)

    # -- mutations -------------------------------------------------------------

    def _put(self, payload: EncryptedProfile, undo: List[_Undo]) -> None:
        previous = self.store.all_profiles().get(payload.user_id)
        if self._wal is not None:
            self._wal.append_record(encode_put(payload))
        self.store.put(payload)
        undo.append((payload.user_id, previous))

    def _remove(self, user_id: int, undo: List[_Undo]) -> None:
        previous = self.store.all_profiles().get(user_id)
        if previous is None:
            return  # tolerant: replay/redelivery idempotence
        if self._wal is not None:
            self._wal.append_record(encode_remove(user_id))
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
        profiles = self.store.all_profiles()
        return tuple(
            ResultEntry(user_id=uid, auth=profiles[uid].auth)
            for uid in matches
        )

    def _query(self, user_id: int, k: int) -> Tuple[ResultEntry, ...]:
        try:
            return self._entries(self.store.match(user_id, k))
        except MatchingError:
            return ()  # unknown user or singleton group: empty result

    def _query_within(
        self, user_id: int, max_distance: int
    ) -> Tuple[ResultEntry, ...]:
        try:
            return self._entries(self.store.match_within(user_id, max_distance))
        except MatchingError:
            return ()

    # -- the batch protocol ----------------------------------------------------

    def apply(self, ops: Sequence[ShardOp]) -> List[object]:
        """Apply one op batch in order; one result slot per op.

        Mutations are WAL-buffered as they apply and committed once at the
        end of the batch.  A failed op or a failed commit undoes the
        batch's in-memory mutations and rolls the uncommitted buffer back
        before the error propagates, so neither the store nor the log
        holds anything from a batch the coordinator saw fail.  A mid-batch
        ``("snapshot",)`` commits the mutations before it first, so they
        stay applied even when the snapshot itself fails.

        The automatic snapshot is tried only after a batch whose commit
        wrote a record, and only once the shard has committed at least
        :data:`DEFAULT_SNAPSHOT_EVERY` records since its newest snapshot
        and its live segment holds at least as many bytes as that
        snapshot.  A failed one is logged, not raised, and leaves the shard
        due, so the next such batch tries it again; reads never re-encode
        the shard.
        """
        results: List[object] = []
        undo: List[_Undo] = []
        mutations = 0
        queries = 0
        committed = 0
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
                            (key_index, tuple(group))
                            for key_index, group in self.store.groups()
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
                    if self._wal is not None:
                        self._records_since_snapshot += self._wal.commit()
                        undo.clear()  # durable now, whatever the snapshot does
                    self._snapshot()
                    results.append(None)
                elif kind == "crash":
                    os._exit(21)  # recovery-drill hook: die mid-batch
                else:
                    raise ParameterError(f"unknown shard op {kind!r}")
            if self._wal is not None:
                committed = self._wal.commit()
                self._records_since_snapshot += committed
        except BaseException:
            self._undo(undo)
            if self._wal is not None:
                self._wal.rollback()
            raise
        if (
            self._wal is not None
            and committed
            and self._records_since_snapshot >= DEFAULT_SNAPSHOT_EVERY
            and self._wal.committed_bytes >= self._snapshot_bytes
        ):
            try:
                self._snapshot()
            except PersistenceError:
                # the batch is committed; the next writing batch tries again
                _log.warning(
                    "shard_snapshot_failed",
                    shard=self.shard_id,
                    records=self._records_since_snapshot,
                )
        if mutations:
            metric_inc(M_SHARD_OPS, mutations)
        if queries:
            metric_inc(M_SHARD_QUERIES, queries)
        return results

    def _snapshot(self) -> None:
        """Snapshot every stored upload and rotate the WAL (no-op in
        memory).

        In order: close the live segment (committing anything buffered),
        write the snapshot, delete the older snapshot and segments, open
        the next segment.  A crash at any point recovers from the newest
        snapshot on disk plus the segment named after it.  On success the
        new snapshot's length, taken from its encoding, is what the live
        segment must reach before the size rule holds again.

        A failed snapshot write or delete raises :class:`PersistenceError`
        and still leaves a live segment open: the one named after the
        newest snapshot on disk.  That is the old segment, which holds
        every commit, unless the new snapshot was already in place.  A
        failed close is a failed commit (see :meth:`ShardWal.commit`).
        Either way the recorded snapshot length is 0, so the shard stays
        due and the next snapshot also clears what this one left behind.

        Traced as ``server.sharding.snapshot`` (``seq``, and ``bytes`` once
        written) around ``server.sharding.snapshot_encode`` and
        ``server.sharding.snapshot_write``.
        """
        directory, wal = self._dir, self._wal
        if directory is None or wal is None:
            return
        new_seq = self._seq + 1
        self._snapshot_bytes = 0
        with span("server.sharding.snapshot", seq=new_seq) as current:
            wal.close()
            try:
                size = write_snapshot(
                    directory, new_seq, self.store.all_profiles()
                )
            except OSError as exc:
                raise PersistenceError(f"snapshot {new_seq} failed") from exc
            finally:
                # log on after whichever snapshot a reopen would load
                self._seq = latest_seq(directory)
                self._wal = ShardWal(wal_path(directory, self._seq))
            current.set_attr("bytes", size)
        self._snapshot_bytes = size
        self._records_since_snapshot = 0

    def close(self) -> None:
        """Commit and close the live WAL segment (idempotent)."""
        if self._wal is not None:
            self._wal.close()
