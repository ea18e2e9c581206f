"""Consistent placement of key-index groups across shards.

The shard key is the paper's own filter key: profiles only interact within
their ``h(K_p)`` group, so placing whole groups is free of cross-shard
traffic at match time.  Placement is a **fixed, versioned map** — a hash
ring with a deterministic set of virtual nodes per shard — so the group →
shard assignment is a pure function of ``(map, key_index)``: rebalancing
only ever happens by *explicitly* installing a successor map
(:meth:`PlacementMap.rebalanced`) and migrating the groups named by
:meth:`PlacementMap.moved_keys`, never implicitly.

The ring hashes the (already public) 32-byte key index through a domain-
separated SHA-256, so placement reveals nothing the key index itself does
not already reveal, and clusters cannot be steered onto one shard without
inverting the hash.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from repro.crypto.kdf import sha256
from repro.errors import ParameterError, ProtocolError
from repro.utils.serial import FieldReader, FieldWriter

__all__ = ["PlacementMap"]

_RING_DOMAIN = b"smatch-shard-ring"
_KEY_DOMAIN = b"smatch-shard-point"
_MAGIC = b"SMATCH-PLACEMENT"
_VERSION = 1

#: Virtual nodes per shard: enough that a 2-of-4 split stays within a few
#: percent of even for hash-uniform key indexes.
DEFAULT_VNODES = 64


def _ring_point(data: bytes) -> int:
    return int.from_bytes(sha256(_RING_DOMAIN, data), "big")


@dataclass(frozen=True)
class PlacementMap:
    """A versioned, immutable group → shard assignment.

    ``version`` is a monotone installation counter: a tier persists the map
    it was built with and refuses to open against a different shard count
    without an explicit rebalance, so placement can never drift silently
    between runs.
    """

    version: int
    shards: int
    vnodes: int = DEFAULT_VNODES
    _ring: Tuple[Tuple[int, int], ...] = field(default=(), repr=False)

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ParameterError("shards must be >= 1")
        if self.vnodes < 1:
            raise ParameterError("vnodes must be >= 1")
        if self.version < 1:
            raise ParameterError("placement version must be >= 1")
        if not self._ring:
            ring: List[Tuple[int, int]] = []
            for shard_id in range(self.shards):
                for vnode in range(self.vnodes):
                    point = _ring_point(
                        b"%d:%d" % (shard_id, vnode)
                    )
                    ring.append((point, shard_id))
            ring.sort()
            object.__setattr__(self, "_ring", tuple(ring))

    @classmethod
    def build(
        cls, shards: int, version: int = 1, vnodes: int = DEFAULT_VNODES
    ) -> "PlacementMap":
        """The canonical map for ``shards`` shards at ``version``."""
        return cls(version=version, shards=shards, vnodes=vnodes)

    def shard_of(self, key_index: bytes) -> int:
        """The shard owning a key-index group (pure, deterministic)."""
        if len(key_index) != 32:
            raise ParameterError("key index must be 32 bytes")
        if self.shards == 1:
            return 0  # every ring point is shard 0's: skip the hash
        point = int.from_bytes(sha256(_KEY_DOMAIN, key_index), "big")
        ring = self._ring
        pos = bisect_right(ring, (point, self.shards))
        if pos == len(ring):
            pos = 0  # wrap: the successor of the last point is the first
        return ring[pos][1]

    def rebalanced(self, shards: int) -> "PlacementMap":
        """The explicit successor map: new shard count, version + 1."""
        return PlacementMap(
            version=self.version + 1, shards=shards, vnodes=self.vnodes
        )

    def moved_keys(
        self, successor: "PlacementMap", key_indexes: Iterable[bytes]
    ) -> Dict[bytes, Tuple[int, int]]:
        """``{key_index: (old_shard, new_shard)}`` for groups that move."""
        moved: Dict[bytes, Tuple[int, int]] = {}
        for key_index in key_indexes:
            old = self.shard_of(key_index)
            new = successor.shard_of(key_index)
            if old != new:
                moved[key_index] = (old, new)
        return moved

    # -- persistence (the tier pins its map on disk) ---------------------------

    def encode(self) -> bytes:
        """Versioned wire bytes (``repro.utils.serial`` codec)."""
        w = FieldWriter()
        w.write_bytes(_MAGIC)
        w.write_int(_VERSION)
        w.write_int(self.version)
        w.write_int(self.shards)
        w.write_int(self.vnodes)
        return w.getvalue()

    @classmethod
    def decode(cls, raw: bytes) -> "PlacementMap":
        """Decode a persisted map, validating magic and format version."""
        reader = FieldReader(raw)
        if reader.read_bytes() != _MAGIC:
            raise ProtocolError("not an S-MATCH placement map")
        fmt = reader.read_int()
        if fmt != _VERSION:
            raise ProtocolError(f"unsupported placement format {fmt}")
        version = reader.read_int()
        shards = reader.read_int()
        vnodes = reader.read_int()
        reader.expect_end()
        return cls(version=version, shards=shards, vnodes=vnodes)
