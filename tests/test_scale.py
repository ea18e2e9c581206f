"""Moderate-scale integration: hundreds of users, full pipeline.

The paper pitches S-MATCH as "a privacy-preserving profile matching scheme
in large scale mobile social networks"; these tests exercise the system at
a few hundred users (bounded so the suite stays fast) and check that the
structural properties — grouping, matching, verification, server-side
asymptotics — hold beyond toy sizes.
"""

import time

import pytest

from repro.datasets import WEIBO, ClusteredPopulation
from repro.experiments.common import build_scheme
from repro.net.messages import QueryRequest, UploadMessage
from repro.server.service import SMatchServer
from repro.utils.rand import SystemRandomSource

NUM_USERS = 300


@pytest.fixture(scope="module")
def big_world():
    rng = SystemRandomSource(seed=888)
    pop = ClusteredPopulation(WEIBO, theta=8, rng=rng)
    users = pop.generate(NUM_USERS)
    scheme = build_scheme(WEIBO, schema=pop.schema, seed=888)
    server = SMatchServer(query_k=5)
    keys = {}
    for user in users:
        payload, key = scheme.enroll(user.profile)
        keys[user.profile.user_id] = key
        server.handle_upload(UploadMessage(payload=payload))
    return pop, users, scheme, server, keys


class TestScale:
    def test_everyone_enrolled(self, big_world):
        _, users, _, server, _ = big_world
        assert len(server.tier) == NUM_USERS

    def test_group_structure(self, big_world):
        _, _, _, server, _ = big_world
        sizes = server.tier.export_store().group_sizes()
        assert sum(sizes) == NUM_USERS
        # clusters are capped at 6 in generation; merged groups stay small
        assert sizes[0] <= 30

    def test_queries_at_scale(self, big_world):
        _, users, scheme, server, keys = big_world
        sampled = users[:: max(1, NUM_USERS // 40)]
        verified_total = 0
        for user in sampled:
            uid = user.profile.user_id
            result = server.handle_query(
                QueryRequest(query_id=uid, timestamp=0, user_id=uid)
            )
            for entry in result.entries:
                if scheme.verify(entry.auth, keys[uid]):
                    verified_total += 1
        assert verified_total > 0

    def test_warm_queries_fast(self, big_world):
        """Cached group orders make repeat queries cheap (O(log V))."""
        _, users, _, server, _ = big_world
        uid = users[0].profile.user_id
        request = QueryRequest(query_id=1, timestamp=0, user_id=uid)
        server.handle_query(request)  # warm the cache
        start = time.perf_counter()
        for _ in range(50):
            server.handle_query(request)
        per_query_ms = (time.perf_counter() - start) / 50 * 1e3
        assert per_query_ms < 5.0

    def test_collusion_advantage_small_at_scale(self, big_world):
        from repro.attacks.games import PrKkGame

        _, users, _, server, keys = big_world
        uploads = server.tier.export_store().all_profiles()
        game = PrKkGame(uploads, keys)
        uid = users[0].profile.user_id
        assert game.play(uid).advantage <= 0.1  # m << N (Theorem 2 regime)
