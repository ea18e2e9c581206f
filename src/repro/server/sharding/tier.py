"""The shard coordinator: routing, fan-out, rebalance, import/export.

A :class:`ShardedTier` owns N shard handles (inline
:class:`~repro.server.sharding.state.ShardState` objects, or process-backed
:class:`~repro.server.sharding.worker.ProcessShard` workers), a versioned
:class:`~repro.server.sharding.placement.PlacementMap`, and the routing
side table ``user_id -> key_index`` (queries carry only ``ID_v``, so the
coordinator must remember which group — and therefore which shard — each
user lives in).

Hot-path guarantees:

* **zero cross-shard traffic**: an upload or query touches exactly the
  shard owning its key group (an upload that *moves* a user between
  groups additionally sends one remove to the old shard — the only
  two-shard op, and the two halves commute);
* **submission-order merge**: ``query_bulk`` fans per-shard op batches out
  in parallel (one thread per shard; the GIL is irrelevant because shard
  workers are separate processes) and reassembles results in the caller's
  submission order, so results are byte-identical to serial evaluation;
* **explicit placement**: the map is written atomically next to the
  shard directories and validated at open — a tier can never silently
  come up with a different group → shard assignment than the one its
  WALs and snapshots were written under.  Changing the shard count is
  only possible through :meth:`rebalance`, which installs a successor
  map and migrates exactly the groups :meth:`PlacementMap.moved_keys`
  names.
"""

from __future__ import annotations

import pathlib
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.scheme import EncryptedProfile
from repro.errors import (
    MatchingError,
    ParameterError,
    PersistenceError,
    ProtocolError,
)
from repro.net.messages import ResultEntry
from repro.obs.trace import current_tracer, span
from repro.parallel import absorb_telemetry, run_captured
from repro.server.sharding.placement import PlacementMap
from repro.server.sharding.snapshot import write_atomic
from repro.server.sharding.state import ShardOp, ShardState
from repro.server.sharding.worker import ProcessShard, ShardSpec
from repro.server.storage import ProfileStore

__all__ = ["ShardedTier"]

_MODES = ("inline", "process")

#: One shard handle: ShardState or ProcessShard (same ``apply`` protocol).
ShardHandle = Union[ShardState, ProcessShard]


class ShardedTier:
    """N shard workers behind one put/remove/query surface."""

    def __init__(
        self,
        shards: int = 1,
        order_method: str = "rank",
        mode: str = "inline",
        data_dir: Optional[Union[str, pathlib.Path]] = None,
    ) -> None:
        if shards < 1:
            raise ParameterError("shards must be >= 1")
        if mode not in _MODES:
            raise ParameterError(
                f"mode must be one of {_MODES}, got {mode!r}"
            )
        self._order_method = order_method
        self._mode = mode
        self._data_dir = (
            pathlib.Path(data_dir) if data_dir is not None else None
        )
        self._placement = self._open_placement(shards)
        self._shards: List[ShardHandle] = [
            self._make_shard(shard_id)
            for shard_id in range(self._placement.shards)
        ]
        self._pool: Optional[ThreadPoolExecutor] = None
        self._user_key_index: Dict[int, bytes] = {}
        if self._data_dir is not None:
            self._reload_routing()

    # -- construction ----------------------------------------------------------

    def _open_placement(self, shards: int) -> PlacementMap:
        if self._data_dir is None:
            return PlacementMap.build(shards)
        self._data_dir.mkdir(parents=True, exist_ok=True)
        path = self._data_dir / "placement.bin"
        if path.exists():
            try:
                persisted = PlacementMap.decode(path.read_bytes())
            except (ParameterError, ProtocolError) as exc:
                raise PersistenceError(
                    f"{path.name}: damaged placement map"
                ) from exc
            if persisted.shards != shards:
                raise ParameterError(
                    f"shard directory was written under a "
                    f"{persisted.shards}-shard placement (version "
                    f"{persisted.version}); open it with "
                    f"shards={persisted.shards} and call rebalance({shards}) "
                    "— placement never changes implicitly"
                )
            return persisted
        placement = PlacementMap.build(shards)
        self._persist_placement(placement)
        return placement

    def _persist_placement(self, placement: PlacementMap) -> None:
        if self._data_dir is not None:
            write_atomic(self._data_dir / "placement.bin", placement.encode())

    def _make_shard(self, shard_id: int) -> ShardHandle:
        shard_dir: Optional[str] = None
        if self._data_dir is not None:
            shard_dir = str(self._data_dir / f"shard-{shard_id:03d}")
        spec = ShardSpec(
            shard_id=shard_id,
            order_method=self._order_method,
            data_dir=shard_dir,
        )
        if self._mode == "process":
            return ProcessShard(spec)
        return spec.build_state()

    def _reload_routing(self) -> None:
        """Rebuild ``user -> key_index`` from the shards' recovered state."""
        manifests = self._fanout(
            {sid: [("manifest",)] for sid in range(len(self._shards))}
        )
        self._user_key_index.clear()
        for results in manifests.values():
            for uid, key_index in results[0]:  # type: ignore[union-attr]
                self._user_key_index[uid] = key_index

    # -- fan-out ---------------------------------------------------------------

    def _fanout(
        self, ops_by_shard: Dict[int, List[ShardOp]]
    ) -> Dict[int, List[object]]:
        """Apply per-shard op batches, shard-parallel in process mode.

        Pool threads have no tracer of their own, so when the caller is
        tracing each thread captures its spans (the shard worker's spliced
        subtree included) and they are spliced back under the caller's
        open tier span, the same way the execution backends splice theirs.
        """
        if self._mode == "inline" or len(ops_by_shard) <= 1:
            return {
                sid: self._shards[sid].apply(ops)
                for sid, ops in ops_by_shard.items()
            }
        for sid in ops_by_shard:
            # fork any missing shard worker here, one at a time, before the
            # fan-out threads run (ProcessBackend.start says why)
            self._shards[sid].start()
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=len(self._shards),
                thread_name_prefix="smatch-shard",
            )
        capture_spans = current_tracer() is not None
        futures = {
            sid: self._pool.submit(
                run_captured,
                self._shards[sid].apply,
                (ops,),
                "server.shard_tier.shard",
                {"shard": sid},
                capture_spans,
            )
            for sid, ops in ops_by_shard.items()
        }
        return {
            sid: absorb_telemetry(future.result())
            for sid, future in futures.items()
        }

    # -- mutations -------------------------------------------------------------

    def put(self, payload: EncryptedProfile) -> None:
        """Insert or replace one profile on the shard owning its group."""
        self.put_batch([payload])

    def put_batch(self, payloads: Sequence[EncryptedProfile]) -> None:
        """Route a batch of uploads, one op list per touched shard.

        A re-upload whose fuzzy key drifted to a group on another shard
        turns into remove-on-old + put-on-new; per-shard op order follows
        batch order, which is all the cross-shard commutativity argument
        in the module docs needs.
        """
        ops_by_shard: Dict[int, List[ShardOp]] = {}
        routed: Dict[int, bytes] = {}
        for payload in payloads:
            uid = payload.user_id
            previous = routed.get(uid, self._user_key_index.get(uid))
            new_shard = self._placement.shard_of(payload.key_index)
            if previous is not None and previous != payload.key_index:
                old_shard = self._placement.shard_of(previous)
                if old_shard != new_shard:
                    ops_by_shard.setdefault(old_shard, []).append(
                        ("remove", uid)
                    )
            ops_by_shard.setdefault(new_shard, []).append(("put", payload))
            routed[uid] = payload.key_index
        with span(
            "server.shard_tier.put_batch",
            uploads=len(payloads),
            shards=len(ops_by_shard),
        ):
            self._fanout(ops_by_shard)
        self._user_key_index.update(routed)

    def remove(self, user_id: int) -> None:
        """Delete a user's record; raises when absent (store parity)."""
        key_index = self._user_key_index.get(user_id)
        if key_index is None:
            raise MatchingError(f"unknown user {user_id}")
        shard = self._shards[self._placement.shard_of(key_index)]
        shard.apply([("remove", user_id)])
        del self._user_key_index[user_id]

    # -- queries ---------------------------------------------------------------

    def query(
        self,
        user_id: int,
        k: int = 5,
        max_distance: Optional[int] = None,
    ) -> Tuple[ResultEntry, ...]:
        """Match one user on their shard; unknown users (and singleton
        groups) get an empty tuple."""
        key_index = self._user_key_index.get(user_id)
        if key_index is None:
            return ()
        op: ShardOp
        if max_distance is not None:
            op = ("query_within", user_id, max_distance)
        else:
            op = ("query", user_id, k)
        shard = self._shards[self._placement.shard_of(key_index)]
        return shard.apply([op])[0]  # type: ignore[return-value]

    def query_bulk(
        self, query_users: Sequence[int], k: int = 5
    ) -> Dict[int, Tuple[ResultEntry, ...]]:
        """Many-requester fan-out, merged in submission order.

        Each shard answers its own users' queries in parallel with the
        others; the returned dict is keyed in the caller's submission
        order, with unknown users mapped to empty tuples.
        """
        query_users = list(query_users)
        ops_by_shard: Dict[int, List[ShardOp]] = {}
        slots: Dict[int, List[int]] = {}  # shard -> query_users positions
        for position, uid in enumerate(query_users):
            key_index = self._user_key_index.get(uid)
            if key_index is None:
                continue
            shard_id = self._placement.shard_of(key_index)
            ops_by_shard.setdefault(shard_id, []).append(("query", uid, k))
            slots.setdefault(shard_id, []).append(position)
        with span(
            "server.shard_tier.query_bulk",
            queries=len(query_users),
            shards=len(ops_by_shard),
        ):
            answers = self._fanout(ops_by_shard)
        merged: List[Tuple[ResultEntry, ...]] = [()] * len(query_users)
        for shard_id, results in answers.items():
            for position, result in zip(slots[shard_id], results):
                merged[position] = result  # type: ignore[assignment]
        return {
            uid: merged[position]
            for position, uid in enumerate(query_users)
        }

    # -- introspection ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._user_key_index)

    @property
    def shards(self) -> int:
        """The live shard count."""
        return len(self._shards)

    @property
    def placement(self) -> PlacementMap:
        """The installed placement map (immutable; swap via rebalance)."""
        return self._placement

    def shard_sizes(self) -> Dict[int, Tuple[int, ...]]:
        """Per-shard group-size lists (the m of the PR-KK bound, per shard)."""
        sizes = self._fanout(
            {sid: [("sizes",)] for sid in range(len(self._shards))}
        )
        return {sid: results[0] for sid, results in sizes.items()}  # type: ignore[misc]

    # -- rebalance -------------------------------------------------------------

    def rebalance(self, shards: int) -> PlacementMap:
        """Install the successor placement map and migrate moved groups.

        The only way the shard count ever changes.  Exports each moved
        group from its old shard, replays it as puts on the new shard and
        removes on the old (both WAL-logged, so a crash mid-migration
        recovers into a consistent — if partially migrated — state), then
        persists the successor map.
        """
        successor = self._placement.rebalanced(shards)
        while len(self._shards) < shards:
            self._shards.append(self._make_shard(len(self._shards)))
        moved = self._placement.moved_keys(
            successor, set(self._user_key_index.values())
        )
        exports: Dict[int, List[ShardOp]] = {}
        export_keys: Dict[int, List[bytes]] = {}
        for key_index, (old_shard, _) in moved.items():
            exports.setdefault(old_shard, []).append(
                ("export_group", key_index)
            )
            export_keys.setdefault(old_shard, []).append(key_index)
        with span("server.shard_tier.rebalance", moved=len(moved)):
            exported = self._fanout(exports)
            migration: Dict[int, List[ShardOp]] = {}
            for old_shard, results in exported.items():
                for key_index, profiles in zip(
                    export_keys[old_shard], results
                ):
                    new_shard = moved[key_index][1]
                    for payload in profiles:  # type: ignore[union-attr]
                        migration.setdefault(new_shard, []).append(
                            ("put", payload)
                        )
                        migration.setdefault(old_shard, []).append(
                            ("remove", payload.user_id)
                        )
            self._fanout(migration)
        if shards < len(self._shards):
            for handle in self._shards[shards:]:
                handle.close()
            del self._shards[shards:]
            self._reset_pool()
        self._placement = successor
        self._persist_placement(successor)
        return successor

    # -- import / export ------------------------------------------------------

    def export_store(self) -> ProfileStore:
        """Every stored profile folded into one in-memory ``ProfileStore``
        (shard order, then each shard's insertion order)."""
        exported = self._fanout(
            {sid: [("export",)] for sid in range(len(self._shards))}
        )
        store = ProfileStore()
        for results in exported.values():
            for payload in results[0]:  # type: ignore[union-attr]
                store.put(payload)
        return store

    def import_profiles(
        self, payloads: Sequence[EncryptedProfile]
    ) -> None:
        """Load profiles (e.g. another tier's ``export_store``) through
        routing, as one batch per shard."""
        self.put_batch(list(payloads))

    # -- lifecycle -------------------------------------------------------------

    def _reset_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def close(self) -> None:
        """Close every shard handle and the fan-out pool (idempotent)."""
        for handle in self._shards:
            handle.close()
        self._reset_pool()

    def __enter__(self) -> "ShardedTier":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
