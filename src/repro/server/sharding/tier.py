"""The shard coordinator: routing, rebalance, import/export.

A :class:`ShardedTier` owns N shard handles (inline
:class:`~repro.server.sharding.state.ShardState` objects, or
:class:`~repro.server.sharding.worker.ProcessShard` handles, each one
worker process behind one pipe), a versioned
:class:`~repro.server.sharding.placement.PlacementMap`, and the routing
side table ``user_id -> key_index`` (queries carry only ``ID_v``, so the
coordinator must remember which group — and therefore which shard — each
user lives in).  Every call runs on the calling thread: a batch that
touches several shards applies each shard's op list in turn.

Hot-path guarantees:

* **zero cross-shard traffic**: an upload or query touches exactly the
  shard owning its key group (an upload that *moves* a user to a group on
  another shard additionally sends one remove to the old shard — the only
  two-shard op).  The two halves do not commute.  A lone move's remove
  applies first, so when the new shard then refuses the put (a chain
  whose length differs from the new group's), the user's previous record
  is already gone, where a bare ``ProfileStore`` keeps it;
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
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.scheme import EncryptedProfile
from repro.errors import (
    MatchingError,
    ParameterError,
    PersistenceError,
    ProtocolError,
)
from repro.net.messages import ResultEntry
from repro.obs.trace import span
from repro.server.sharding.placement import PlacementMap
from repro.server.sharding.snapshot import make_directory, write_atomic
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
        mode: str = "inline",
        data_dir: Optional[Union[str, pathlib.Path]] = None,
    ) -> None:
        if shards < 1:
            raise ParameterError("shards must be >= 1")
        if mode not in _MODES:
            raise ParameterError(
                f"mode must be one of {_MODES}, got {mode!r}"
            )
        self._mode = mode
        self._data_dir = (
            pathlib.Path(data_dir) if data_dir is not None else None
        )
        self._placement = self._open_placement(shards)
        self._shards: List[ShardHandle] = []
        self._user_key_index: Dict[int, bytes] = {}
        try:
            for shard_id in range(self._placement.shards):
                self._shards.append(self._make_shard(shard_id))
            if self._data_dir is not None:
                self._reload_routing()
        except BaseException:
            # a shard that fails to open leaves the ones before it open
            self.close()
            raise

    # -- construction ----------------------------------------------------------

    def _open_placement(self, shards: int) -> PlacementMap:
        if self._data_dir is None:
            return PlacementMap.build(shards)
        make_directory(self._data_dir)
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
        spec = ShardSpec(shard_id=shard_id, data_dir=shard_dir)
        if self._mode == "process":
            return ProcessShard(spec)
        return spec.build_state()

    def _reload_routing(self) -> None:
        """Rebuild ``user -> key_index`` from the shards' recovered state.

        Each shard's manifest names a group's key index once, so every
        user of a group routes to that one key object.
        """
        self._user_key_index.clear()
        for shard in self._shards:
            manifest = shard.apply([("manifest",)])[0]
            for key_index, user_ids in manifest:  # type: ignore[attr-defined]
                self._user_key_index.update(dict.fromkeys(user_ids, key_index))

    # -- mutations -------------------------------------------------------------

    def put(self, payload: EncryptedProfile) -> None:
        """Insert or replace one profile on the shard owning its group."""
        self.put_batch([payload])

    def put_batch(self, payloads: Sequence[EncryptedProfile]) -> None:
        """Route a batch of uploads, one op list per touched shard.

        A re-upload whose fuzzy key drifted to a group on another shard
        turns into remove-on-old + put-on-new, and per-shard op order
        follows batch order.  The shards' lists run one after another, in
        the order the batch first touched each shard, and each shard's
        routing is folded in as soon as its list has applied: when a later
        shard refuses its part, the routing table still names every user
        the earlier shards now hold.  The two halves of a move are not
        atomic: a remove that applied before its put was refused stays
        applied (see the module docs).
        """
        ops_by_shard: Dict[int, List[ShardOp]] = {}
        # per shard, each touched user's group there once its ops have run
        # (None: the shard removed the user)
        routes_by_shard: Dict[int, Dict[int, Optional[bytes]]] = {}
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
                    routes_by_shard.setdefault(old_shard, {})[uid] = None
            ops_by_shard.setdefault(new_shard, []).append(("put", payload))
            routes_by_shard.setdefault(new_shard, {})[uid] = payload.key_index
            routed[uid] = payload.key_index
        with span(
            "server.shard_tier.put_batch",
            uploads=len(payloads),
            shards=len(ops_by_shard),
        ):
            for shard_id, ops in ops_by_shard.items():
                self._shards[shard_id].apply(ops)
                self._route(shard_id, routes_by_shard[shard_id])

    def _route(
        self, shard_id: int, routes: Dict[int, Optional[bytes]]
    ) -> None:
        """Fold one shard's applied ops into ``user -> key_index``.

        A user the shard now holds routes to its group there.  A user the
        shard removed stops routing to it, but keeps a route that an
        earlier-applied shard's put already pointed elsewhere.
        """
        index = self._user_key_index
        for uid, key_index in routes.items():
            if key_index is not None:
                index[uid] = key_index
            elif (
                uid in index
                and self._placement.shard_of(index[uid]) == shard_id
            ):
                del index[uid]

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
        k: int,
        max_distance: Optional[int] = None,
    ) -> Tuple[ResultEntry, ...]:
        """Match one user on their shard: kNN with ``k``, or MAX-distance
        when ``max_distance`` is given; unknown users (and singleton
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
        return {
            shard_id: shard.apply([("sizes",)])[0]  # type: ignore[misc]
            for shard_id, shard in enumerate(self._shards)
        }

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
        for key_index, (old_shard, _) in moved.items():
            exports.setdefault(old_shard, []).append(
                ("export_group", key_index)
            )
        with span("server.shard_tier.rebalance", moved=len(moved)):
            migration: Dict[int, List[ShardOp]] = {}
            for old_shard, ops in exports.items():
                results = self._shards[old_shard].apply(ops)
                for (_, key_index), profiles in zip(ops, results):
                    new_shard = moved[key_index][1]  # type: ignore[index]
                    for payload in profiles:  # type: ignore[union-attr]
                        migration.setdefault(new_shard, []).append(
                            ("put", payload)
                        )
                        migration.setdefault(old_shard, []).append(
                            ("remove", payload.user_id)
                        )
            for shard_id, ops in migration.items():
                self._shards[shard_id].apply(ops)
        if shards < len(self._shards):
            for handle in self._shards[shards:]:
                handle.close()
            del self._shards[shards:]
        self._placement = successor
        self._persist_placement(successor)
        return successor

    # -- import / export ------------------------------------------------------

    def export_store(self) -> ProfileStore:
        """Every stored profile folded into one in-memory ``ProfileStore``
        (shard order, then each shard's insertion order)."""
        store = ProfileStore()
        for shard in self._shards:
            for payload in shard.apply([("export",)])[0]:  # type: ignore[attr-defined]
                store.put(payload)
        return store

    def import_profiles(
        self, payloads: Sequence[EncryptedProfile]
    ) -> None:
        """Load profiles (e.g. another tier's ``export_store``) through
        routing, as one batch per shard."""
        self.put_batch(list(payloads))

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Close every shard handle (idempotent)."""
        for handle in self._shards:
            handle.close()

    def __enter__(self) -> "ShardedTier":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
