"""Sharded, durable server tier (docs/PERFORMANCE.md §4).

Profiles only ever interact within their ``h(K_p)`` key-index group at
match time, so groups are a natural unit of placement: a versioned
consistent hash ring (:mod:`repro.server.sharding.placement`) assigns each
group to one of N shards, each shard runs its own
:class:`~repro.server.storage.ProfileStore`
(:mod:`repro.server.sharding.state`) — inline, or in a dedicated worker
process built on the :mod:`repro.parallel` machinery
(:mod:`repro.server.sharding.worker`) — and the coordinator
(:mod:`repro.server.sharding.tier`) routes uploads/queries by group key
with zero cross-shard traffic on the hot path.

Durability is per shard: an append-only CRC'd write-ahead log
(:mod:`repro.server.sharding.wal`) plus full snapshots that truncate it
once it has grown to the newest snapshot's size
(:mod:`repro.server.sharding.snapshot`); crash recovery loads the newest
snapshot and replays the WAL tail.
"""

from repro.server.sharding.placement import PlacementMap
from repro.server.sharding.state import ShardState
from repro.server.sharding.tier import ShardedTier
from repro.server.sharding.wal import ShardWal, WalReplay
from repro.server.sharding.worker import (
    ProcessShard,
    ShardSpec,
    shard_ops_chunk,
)

__all__ = [
    "PlacementMap",
    "ProcessShard",
    "ShardSpec",
    "ShardState",
    "ShardWal",
    "ShardedTier",
    "WalReplay",
    "shard_ops_chunk",
]
