"""``roundtrip``: one new user's full protocol round trip, one at a time.

Stresses the client, crypto and channel layers.  Set-up enrolls a base
population of real users and uploads it through ``handle_message``; the
timed phase then brings in new users from the same population.  Each one
opens secure channels to the key service and the matching server, derives
its profile key through the networked OPRF, runs InitData/Enc/Auth,
uploads, queries, and runs Vf on every returned entry.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional

from harness import Event, Phase, PoolExhausted, digest, oracle_mismatches
from repro.client.client import MobileClient
from repro.client.remote_keygen import RemoteKeygenClient
from repro.core.scheme import EncryptedProfile, profile_enroll_seed
from repro.datasets import INFOCOM06
from repro.errors import ReproError
from repro.experiments.common import build_population, build_scheme
from repro.net.channel import SecureChannel
from repro.net.messages import UploadMessage
from repro.net.transport import InMemoryNetwork
from repro.obs.trace import span
from repro.server.keyservice import KeyGenService
from repro.server.service import SMatchServer
from repro.utils.rand import SystemRandomSource

#: Real users enrolled in set-up (the population new users join).
BASE_USERS = 400
#: New users available to timed phases.  One round trip takes about 25 ms
#: on a 2-core machine, so this covers a phase of over a minute; a phase
#: that still runs out raises instead of ending early.
POOL_USERS = 4000
#: Round trips run in set-up to warm lazy imports and first-call paths.
WARMUP_USERS = 2
#: Users per population cluster.  Cluster members share a key group and
#: arrive one after another, so all but the first five of each cluster get
#: the full k = 5 results.  With the population's default geometric sizes
#: (mean 4, at most 6) the median user would get one or two results
#: depending on the seed, and the median query latency would jump between
#: those two modes from seed to seed.
CLUSTER_SIZE = 16


class Roundtrip:
    """Closed loop: one client, one new user's round trip at a time."""

    name = "roundtrip"
    tail_pct = 95.0
    #: The report's name and scale (ns per unit) of each latency series.
    series = {"upload": ("enroll_ms", 1e6), "query": ("query_ms", 1e6)}
    trace_limit: Optional[int] = None

    def __init__(self, seed: int) -> None:
        self.seed = seed
        population = build_population(INFOCOM06, seed=seed)
        # a mean far above the cap makes every cluster exactly CLUSTER_SIZE
        users = population.generate(
            BASE_USERS + POOL_USERS,
            mean_cluster_size=CLUSTER_SIZE * 1e6,
            max_cluster_size=CLUSTER_SIZE,
        )
        self.base = [u.profile for u in users[:BASE_USERS]]
        self.pool = [u.profile for u in users[BASE_USERS:]]
        with span("experiments.build_scheme"):
            self.scheme = build_scheme(
                INFOCOM06, schema=population.schema, seed=seed
            )
        uploads, _ = self.scheme.enroll_population(
            self.base, backend="serial", seed=seed
        )
        self.base_uploads = [
            UploadMessage(payload=uploads[p.user_id]) for p in self.base
        ]
        self.server = SMatchServer(query_k=5)
        for message in self.base_uploads:
            self.server.handle_message(message)
        # the key service shares the scheme's fixed RSA key, so keys derived
        # over the wire match those of the enrolled base population
        self.keyservice = KeyGenService(oprf_server=self.scheme.oprf_server)
        self.network = InMemoryNetwork()
        self.keyservice_end = self.network.endpoint("keyservice")
        self.server_end = self.network.endpoint("server")
        self.next_user = 0
        # accepted uploads and answered queries, in arrival order: the
        # stream the oracle replays
        self.events: List[Event] = []
        self.vf_rejected_users = 0
        self.run(math.inf, limit=WARMUP_USERS)

    def input_hash(self) -> str:
        params = repr(self.scheme.params).encode()
        profiles = [
            repr((p.user_id, tuple(p.values))).encode()
            for p in self.base + self.pool
        ]
        return digest([self.name.encode(), params] + profiles)

    def describe(self) -> Dict[str, object]:
        return {"base_users": BASE_USERS}

    # -- the timed loop ----------------------------------------------------------

    def _serve_keyservice(self, channel: SecureChannel, client: str) -> None:
        with span("net.channel.recv"):
            request = channel.recv()
        response = self.keyservice.handle_message(client, request)
        with span("net.channel.send"):
            channel.send(response)

    def _round_trip(self, profile, phase: Phase) -> None:
        uid = profile.user_id
        rng = SystemRandomSource(seed=profile_enroll_seed(self.seed, uid))
        started = time.perf_counter_ns()
        phone_ks = self.network.endpoint(f"phone-{uid}-ks")
        phone_srv = self.network.endpoint(f"phone-{uid}-srv")
        ks_key, srv_key = rng.randbytes(32), rng.randbytes(32)
        to_keyservice = SecureChannel(phone_ks, "keyservice", ks_key, rng=rng)
        at_keyservice = SecureChannel(
            self.keyservice_end, phone_ks.name, ks_key, rng=rng
        )
        to_server = SecureChannel(phone_srv, "server", srv_key, rng=rng)
        at_server = SecureChannel(
            self.server_end, phone_srv.name, srv_key, rng=rng
        )

        keygen = RemoteKeygenClient(
            self.scheme.params.fuzzy_params, to_keyservice, rng=rng
        )
        request_id = keygen.request_public_key()
        self._serve_keyservice(at_keyservice, phone_ks.name)
        keygen.receive_public_key(request_id)
        with span("client.begin_derivation"):
            state = keygen.begin_derivation(profile)
        with span("net.channel.recv"):
            blinded = at_keyservice.recv()
        with span("server.keyservice.handle_message"):
            evaluated = self.keyservice.handle_message(phone_ks.name, blinded)
        with span("net.channel.send"):
            at_keyservice.send(evaluated)
        with span("client.finish_derivation"):
            key = keygen.finish_derivation(state)

        with span("core.init_data"):
            mapped = self.scheme.init_data(profile, rng=rng)
        with span("core.encrypt"):
            chain = self.scheme.encrypt(profile, key, mapped, rng=rng)
        with span("core.auth"):
            auth = self.scheme.auth(profile, key, rng=rng)
        payload = EncryptedProfile(
            user_id=uid, key_index=key.index, chain=chain, auth=auth
        )
        with span("net.channel.send"):
            to_server.send(UploadMessage(payload=payload))
        with span("net.channel.recv"):
            upload = at_server.recv()
        with span("server.handle_message.upload"):
            self.server.handle_message(upload)
        uploaded = time.perf_counter_ns()
        self.events.append((upload, None))

        client = MobileClient(profile, self.scheme, channel=to_server)
        # MobileClient has no public way to adopt a key derived through the
        # key service; without this it would re-derive it locally
        client._key = key
        request = client.query(timestamp=len(self.events))
        with span("net.channel.send"):
            to_server.send(request)
        with span("net.channel.recv"):
            query = at_server.recv()
        with span("server.handle_message.query"):
            result = self.server.handle_message(query)
        with span("net.channel.send"):
            at_server.send(result)
        with span("net.channel.recv"):
            received = to_server.recv()
        with span("client.verify_results"):
            verdict = client.verify_results(received)
        done = time.perf_counter_ns()

        phase.record("upload", uploaded - started)
        phase.record("query", done - uploaded)
        self.events.append((query, hash(received.encode())))
        phase.counts["entries"] += len(received.entries)
        phase.counts["rejected"] += len(verdict.rejected)
        if verdict.rejected:
            self.vf_rejected_users += 1

    def run(self, seconds: float, limit: Optional[int] = None) -> Phase:
        phase = Phase()
        start = time.perf_counter()
        deadline = start + seconds
        while phase.attempted != limit and time.perf_counter() < deadline:
            if self.next_user >= len(self.pool):
                raise PoolExhausted(
                    f"all {len(self.pool)} new users were used before the "
                    f"{seconds}s phase ended; raise POOL_USERS"
                )
            profile = self.pool[self.next_user]
            self.next_user += 1
            phase.attempted += 1
            try:
                self._round_trip(profile, phase)
            except ReproError:
                phase.failed += 1
                continue
            phase.completed += 1
        phase.wall_s = time.perf_counter() - start
        phase.counts["users"] = phase.completed
        phase.counts["uploads"] = phase.completed
        phase.counts["queries"] = phase.completed
        return phase

    def finish(self) -> None:
        """Nothing to do after the timed phase."""

    def layer_extras(self) -> Dict[str, float]:
        return {}

    # -- correctness ---------------------------------------------------------------

    def check(self) -> Dict[str, int]:
        """Vf accepts every entry; results equal the single-store oracle's."""
        return {
            "vf_rejected_users": self.vf_rejected_users,
            "oracle_mismatches": oracle_mismatches(
                self.base_uploads, self.events
            ),
        }

    def close(self) -> None:
        self.server.close()
