"""``churn`` and ``durable_churn``: a deployment-scale server under churn.

Both workloads build the same seeded world in set-up: a few hundred real
enrollments, tiled with fresh uids into about 10k users whose key groups are
clustered and heavy-tailed (the largest has more than 200 members), and a
stream of pre-encoded requests over those users.  Uploads and queries come
1:1 and are spread uniformly over users.  Each re-upload carries a fresh
chain made in set-up by the real ``init_data`` + ``encrypt`` under the key
of the real user it copies, and about 5% land in a different key group.
One query in ten uses MAX-distance matching.

The timed phase sends the stream one request at a time through
``decode_message`` -> ``handle_message`` -> ``QueryResult.encode()``.  There
is no channel and no Vf here; ``roundtrip`` covers those.

``churn`` serves the stream from the default in-memory engine, where the
matcher's incremental index and rank rescoring grow with group size and
crypto does no work.  ``durable_churn`` sends it to a process-sharded tier
with per-shard WAL + snapshots, then closes the tier, reopens its data
directory and times the recovery up to the first answered query.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import pathlib
import random
import shutil
import tempfile
import time
from array import array
from typing import Dict, List, Optional, Set, Tuple

from harness import (
    OUT_DIR,
    Phase,
    digest,
    filesystem_type,
    nproc,
    oracle_mismatches,
)
from repro.crypto.kdf import sha256
from repro.datasets import INFOCOM06
from repro.errors import ReproError
from repro.experiments.common import build_population, build_scheme
from repro.net.messages import QueryRequest, UploadMessage, decode_message
from repro.obs.metrics import M_SHARD_SNAPSHOTS, active_metrics
from repro.obs.trace import span
from repro.server.service import SMatchServer
from repro.server.sharding.state import DEFAULT_FULL_EVERY, DEFAULT_SNAPSHOT_EVERY
from repro.utils.rand import SystemRandomSource

#: Real users enrolled in set-up; their payloads are tiled into the world.
REAL_USERS = 300
#: Key groups of the tiled world.  Group ``i`` (from 1) has
#: ``max(2, round(10 * sqrt(TILES / i)))`` members: about 10k users in all,
#: the largest group 224 strong, the smallest 10.
TILES = 500
#: Real users each group copies, and fresh chains made per real user;
#: re-uploads of a copy cycle its real user's chains.
SOURCES = 3
FRESH_CHAINS = 4
#: Share of re-uploads that move the user to a different key group.
MOVE_SHARE = 0.05
#: Share of queries that use MAX-distance matching, and their radius.
WITHIN_SHARE = 0.1
MAX_DISTANCE = 4
#: First uid of the tiled users (real uids are small positive integers).
TILE_UID_BASE = 1_000_000
#: Stream requests consumed in set-up to warm the loop's code paths.
WARMUP_REQUESTS = 1000


@dataclasses.dataclass(frozen=True)
class Request:
    """One pre-encoded request of the stream."""

    raw: bytes
    user_id: int
    is_query: bool
    moved: bool = False


def tile_sizes() -> List[int]:
    return [max(2, round(10 * math.sqrt(TILES / i))) for i in range(1, TILES + 1)]


def _copy(real, user_id: int, key_index: bytes, chain: Tuple[int, ...]):
    """A real user's payload re-bound to a tiled uid, group and chain.

    The authenticator is bound to its uid, so the copy rebinds it; no Vf
    ever runs on tiled entries.
    """
    return dataclasses.replace(
        real,
        user_id=user_id,
        key_index=key_index,
        chain=chain,
        auth=dataclasses.replace(real.auth, user_id=user_id),
    )


class ChurnWorld:
    """The seeded inputs: the base population and the request stream."""

    def __init__(self, seed: int, requests: int) -> None:
        rnd = random.Random(seed)
        population = build_population(INFOCOM06, seed=seed)
        profiles = [u.profile for u in population.generate(REAL_USERS)]
        with span("experiments.build_scheme"):
            scheme = build_scheme(INFOCOM06, schema=population.schema, seed=seed)
        self.params = scheme.params
        uploads, keys = scheme.enroll_population(
            profiles, backend="serial", seed=seed
        )
        groups: Dict[bytes, list] = {}
        for profile in profiles:
            groups.setdefault(uploads[profile.user_id].key_index, []).append(
                profile
            )
        # every tile copies SOURCES members of a real group, so every seed
        # gives each group the same number of distinct chains to draw from
        sources = [
            members[:SOURCES]
            for members in groups.values()
            if len(members) >= SOURCES
        ]
        chain_rng = SystemRandomSource(seed=seed)
        fresh: Dict[int, List[Tuple[int, ...]]] = {}
        for members in sources:
            for profile in members:
                key = keys[profile.user_id]
                fresh[profile.user_id] = [
                    scheme.encrypt(
                        profile,
                        key,
                        scheme.init_data(profile, rng=chain_rng),
                        rng=chain_rng,
                    )
                    for _ in range(FRESH_CHAINS)
                ]

        real_of_tile: List[List[int]] = []
        tile_keys: List[bytes] = []
        for tile in range(TILES):
            members = sources[rnd.randrange(len(sources))]
            real_of_tile.append([p.user_id for p in members])
            tile_keys.append(
                sha256(
                    b"perfbench-tile",
                    tile.to_bytes(4, "big")
                    + uploads[members[0].user_id].key_index,
                )
            )

        # (tile, slot in the tile's real group, chain version) per user
        state: Dict[int, List[int]] = {}
        self.base: List[UploadMessage] = []
        #: the first member of every group, queried to settle the indexes
        self.probe_users: List[int] = []
        uid = TILE_UID_BASE
        for tile, size in enumerate(tile_sizes()):
            real = real_of_tile[tile]
            self.probe_users.append(uid)
            for member in range(size):
                slot, version = member % len(real), member // len(real)
                real_uid = real[slot]
                chain = fresh[real_uid][version % FRESH_CHAINS]
                self.base.append(
                    UploadMessage(
                        payload=_copy(
                            uploads[real_uid], uid, tile_keys[tile], chain
                        )
                    )
                )
                state[uid] = [tile, slot, version]
                uid += 1

        users = sorted(state)
        tiles = range(TILES)
        cumulative = list(itertools.accumulate(tile_sizes()))
        self.stream: List[Request] = []
        for position in range(requests):
            user = users[rnd.randrange(len(users))]
            if position % 2:
                within = MAX_DISTANCE if rnd.random() < WITHIN_SHARE else None
                raw = QueryRequest(
                    query_id=position,
                    timestamp=position,
                    user_id=user,
                    max_distance=within,
                ).encode()
                self.stream.append(Request(raw, user, is_query=True))
                continue
            tile, slot, version = state[user]
            moved = rnd.random() < MOVE_SHARE
            if moved:
                # groups gain movers in proportion to their size, as they
                # lose them, so the size distribution holds over the stream
                target = tile
                while target == tile:
                    (target,) = rnd.choices(tiles, cum_weights=cumulative)
                tile, slot = target, rnd.randrange(SOURCES)
            version += 1
            state[user] = [tile, slot, version]
            real_uid = real_of_tile[tile][slot]
            payload = _copy(
                uploads[real_uid],
                user,
                tile_keys[tile],
                fresh[real_uid][version % FRESH_CHAINS],
            )
            raw = UploadMessage(payload=payload).encode()
            self.stream.append(Request(raw, user, is_query=False, moved=moved))

    def input_hash(self, name: str) -> str:
        return digest(
            [name.encode(), repr(self.params).encode()]
            + [m.encode() for m in self.base]
            + [r.raw for r in self.stream]
        )


class Churn:
    """Closed loop: one client sends the stream, one request at a time."""

    name = "churn"
    tail_pct = 99.0
    #: The report's name and scale (ns per unit) of each latency series.
    series = {"upload": ("upload_us", 1e3), "query": ("query_us", 1e3)}
    #: Requests the traced phase may run: its spans are held in memory.
    trace_limit: Optional[int] = 10_000
    #: Stream length; a phase that outruns it wraps around to the start.
    requests = 50_000

    def __init__(self, seed: int) -> None:
        self.world = ChurnWorld(seed, self.requests)
        self.server = self._open_server()
        self._load()
        for user in self.world.probe_users:  # settle every group's index
            self.server.handle_message(
                QueryRequest(query_id=0, timestamp=0, user_id=user)
            )
        self.next = 0
        # one hash per query in stream order (0 for a query that raised):
        # packed, so memory does not grow with the program's speed
        self.result_hashes = array("q")
        self.failed_positions: Set[int] = set()
        self.snapshot_upload_ns: List[int] = []
        self.run(math.inf, limit=WARMUP_REQUESTS)

    def _open_server(self) -> SMatchServer:
        return SMatchServer(query_k=5)

    def _load(self) -> None:
        for message in self.world.base:
            self.server.handle_message(message)

    def input_hash(self) -> str:
        return self.world.input_hash(self.name)

    def describe(self) -> Dict[str, object]:
        return {
            "users": len(self.world.base),
            "stream_requests": len(self.world.stream),
        }

    def run(self, seconds: float, limit: Optional[int] = None) -> Phase:
        phase = Phase()
        stream = self.world.stream
        size = len(stream)
        handle = self.server.handle_message
        registry = active_metrics()
        snapshots = (
            registry.counter(M_SHARD_SNAPSHOTS) if registry is not None else None
        )
        first = self.next
        now = start = time.perf_counter_ns()
        deadline = start + seconds * 1e9
        while now < deadline and phase.attempted != limit:
            position = self.next
            request = stream[position % size]
            self.next += 1
            phase.attempted += 1
            began = now
            try:
                if request.is_query:
                    with span("net.decode_message"):
                        message = decode_message(request.raw)
                    with span("server.handle_message.query"):
                        result = handle(message)
                    with span("net.encode_result"):
                        encoded = result.encode()
                    now = time.perf_counter_ns()
                    phase.record("query", now - began)
                    self.result_hashes.append(hash(encoded))
                else:
                    before = snapshots.value if snapshots is not None else 0
                    with span("net.decode_message"):
                        message = decode_message(request.raw)
                    with span("server.handle_message.upload"):
                        handle(message)
                    now = time.perf_counter_ns()
                    phase.record("upload", now - began)
                    if snapshots is not None and snapshots.value != before:
                        self.snapshot_upload_ns.append(now - began)
            except ReproError:
                phase.failed += 1
                self.failed_positions.add(position)
                if request.is_query:
                    self.result_hashes.append(0)
                now = time.perf_counter_ns()
                continue
            phase.completed += 1
        phase.wall_s = (now - start) / 1e9
        for position in range(first, self.next):
            request = stream[position % size]
            phase.counts["requests"] += 1
            if request.is_query:
                phase.counts["queries"] += 1
            else:
                phase.counts["uploads"] += 1
                phase.counts["upload_bytes"] += len(request.raw)
                phase.counts["moves"] += request.moved
        return phase

    def finish(self) -> None:
        """Nothing to do after the timed phase of the in-memory engine."""

    def layer_extras(self) -> Dict[str, float]:
        """Ledger inputs only the workload can measure."""
        snapshot_ns = self.snapshot_upload_ns
        return {
            "snapshot_upload_us": (
                sum(snapshot_ns) / len(snapshot_ns) / 1000 if snapshot_ns else 0.0
            )
        }

    def check(self) -> Dict[str, int]:
        """Every result equals the single-store oracle's."""
        return {
            "oracle_mismatches": oracle_mismatches(self.world.base, self._events())
        }

    def _events(self):
        stream, size = self.world.stream, len(self.world.stream)
        hashes = iter(self.result_hashes)
        for position in range(self.next):
            request = stream[position % size]
            result_hash = next(hashes) if request.is_query else None
            if position not in self.failed_positions:
                yield decode_message(request.raw), result_hash

    def close(self) -> None:
        self.server.close()


class DurableChurn(Churn):
    """The churn stream against a process-sharded, durable tier."""

    name = "durable_churn"
    requests = 20_000

    def _open_server(self) -> SMatchServer:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.data_dir = pathlib.Path(
            tempfile.mkdtemp(prefix="durable-", dir=OUT_DIR)
        )
        return self._reopen()

    def describe(self) -> Dict[str, object]:
        found = super().describe()
        found.update(
            shards=nproc(),
            data_dir_fs=filesystem_type(self.data_dir),
            fsync="every WAL commit",
            snapshot_every=DEFAULT_SNAPSHOT_EVERY,
            full_every=DEFAULT_FULL_EVERY,
        )
        return found

    def _reopen(self) -> SMatchServer:
        return SMatchServer(
            query_k=5,
            shards=nproc(),
            shard_mode="process",
            data_dir=self.data_dir,
        )

    def _load(self) -> None:
        # one batch per shard: a message at a time would cost a fsync each
        self.server.tier.import_profiles([m.payload for m in self.world.base])

    def layer_extras(self) -> Dict[str, float]:
        """Adds bytes on disk and the live bytes they hold."""
        found = super().layer_extras()
        found["disk_bytes"] = sum(
            path.stat().st_size
            for path in self.data_dir.rglob("*")
            if path.is_file()
        )
        live = {m.payload.user_id: len(m.encode()) for m in self.world.base}
        stream, size = self.world.stream, len(self.world.stream)
        for position in range(self.next):
            request = stream[position % size]
            if not request.is_query and position not in self.failed_positions:
                live[request.user_id] = len(request.raw)
        found["live_bytes"] = sum(live.values())
        return found

    def _probe(self) -> List[int]:
        return [
            hash(
                self.server.handle_message(
                    QueryRequest(query_id=0, timestamp=0, user_id=user)
                ).encode()
            )
            for user in self.world.probe_users
        ]

    def finish(self) -> None:
        """Close the tier, reopen its directory, time it to a first answer."""
        before = self._probe()
        self.server.close()
        started = time.perf_counter()
        self.server = self._reopen()
        first = self.server.handle_message(
            QueryRequest(
                query_id=0, timestamp=0, user_id=self.world.probe_users[0]
            )
        )
        self.recover_s = time.perf_counter() - started
        after = self._probe()
        after[0] = hash(first.encode())
        self.reopen_mismatches = sum(a != b for a, b in zip(before, after))

    def check(self) -> Dict[str, int]:
        """The oracle check, plus: results after reopen equal those before."""
        found = super().check()
        found["reopen_mismatches"] = getattr(self, "reopen_mismatches", 0)
        return found

    def close(self) -> None:
        self.server.close()
        shutil.rmtree(self.data_dir, ignore_errors=True)
