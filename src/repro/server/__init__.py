"""The untrusted server: storage, matching, sharding, service, adversaries."""

from repro.server.storage import ProfileStore
from repro.server.service import SMatchServer
from repro.server.sharding import PlacementMap, ShardedTier
from repro.server.adversary import MaliciousBehavior, MaliciousServer

__all__ = [
    "PlacementMap",
    "ProfileStore",
    "SMatchServer",
    "ShardedTier",
    "MaliciousBehavior",
    "MaliciousServer",
]
