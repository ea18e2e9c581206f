"""The incrementally maintained matcher equals a from-scratch rebuild.

Property tests for the performance layer's matcher (docs/PERFORMANCE.md):
after any interleaving of uploads and removals, ``match``/``match_within``
through the long-lived :class:`ServerMatcher` must agree with a matcher
built fresh from the same store, and dead groups must not linger in the
index.
"""

import dataclasses
import hashlib
import random

import pytest

from repro.net.messages import QueryResult, ResultEntry
from repro.obs.instrument import counting
from repro.server.matcher import ServerMatcher
from repro.server.storage import ProfileStore
from repro.utils.rand import SystemRandomSource


def _loaded(enrolled):
    _, _, uploads, _ = enrolled
    store = ProfileStore()
    matcher = ServerMatcher(store)
    for payload in uploads.values():
        store.put(payload)
    return store, matcher, uploads


@pytest.fixture(scope="module")
def fresh_uploads(enrolled):
    """Per user, the re-uploads a churning server sees: two fresh chains
    under the user's own key, and a move to another group's key index
    (the user's drifted profile encrypted under that group's key)."""
    scheme, users, uploads, keys = enrolled
    rng = SystemRandomSource(seed=2027)
    rnd = random.Random(2027)
    uids = sorted(uploads)
    fresh = {}
    for user in users:
        profile = user.profile
        uid = profile.user_id
        own = keys[uid]
        other = keys[
            rnd.choice([v for v in uids if keys[v].index != own.index])
        ]
        fresh[uid] = [
            dataclasses.replace(
                uploads[uid],
                key_index=key.index,
                chain=scheme.encrypt(profile, key, rng=rng),
            )
            for key in (own, own, other)
        ]
    return fresh


class TestIncrementalEqualsRebuild:
    def test_interleaved_churn_equivalence(self, enrolled):
        store, matcher, uploads = _loaded(enrolled)
        rnd = random.Random(1009)
        all_uids = list(uploads)
        alive = set(all_uids)
        for _ in range(250):
            roll = rnd.random()
            if roll < 0.45 or not alive:
                uid = rnd.choice(all_uids)
                store.put(uploads[uid])
                alive.add(uid)
            elif roll < 0.7 and len(alive) > 1:
                uid = rnd.choice(sorted(alive))
                store.remove(uid)
                alive.discard(uid)
            else:
                uid = rnd.choice(sorted(alive))
                fresh = ServerMatcher(store)
                assert matcher.match(uid, 3) == fresh.match(uid, 3)
                assert matcher.match_within(uid, 30) == fresh.match_within(
                    uid, 30
                )

    def test_fresh_chain_churn_equivalence(self, enrolled, fresh_uploads):
        store, matcher, uploads = _loaded(enrolled)
        rnd = random.Random(4099)
        all_uids = list(uploads)
        alive = set(all_uids)
        with counting() as ops:
            for _ in range(250):
                roll = rnd.random()
                if roll < 0.45 or not alive:
                    uid = rnd.choice(all_uids)
                    store.put(rnd.choice(fresh_uploads[uid]))
                    alive.add(uid)
                elif roll < 0.7 and len(alive) > 1:
                    uid = rnd.choice(sorted(alive))
                    store.remove(uid)
                    alive.discard(uid)
                else:
                    uid = rnd.choice(sorted(alive))
                    fresh = ServerMatcher(store)
                    assert matcher.match(uid, 3) == fresh.match(uid, 3)
                    assert matcher.match_within(
                        uid, 30
                    ) == fresh.match_within(uid, 30)
        # the traffic reached the incremental paths, not only cold rebuilds
        assert ops.get("server_index_update") > 0
        assert ops.get("server_rescore") > 0

    def test_remove_and_identical_reupload_is_a_no_op(self, enrolled):
        store, matcher, uploads = _loaded(enrolled)
        _, members = max(store.groups(), key=lambda p: len(p[1]))
        if len(members) < 2:
            pytest.skip("no multi-member group in this population")
        ids = iter(members)
        query_uid, churn_uid = next(ids), next(ids)
        before = matcher.match(query_uid, 3)
        for _ in range(3):
            payload = store.get(churn_uid)
            store.remove(churn_uid)
            store.put(payload)
            assert matcher.match(query_uid, 3) == before


class TestPinnedTraffic:
    """The matcher's op counts and results on a seeded churn-shaped stream.

    A matcher that rescored or rebuilt a group on every query would still
    equal a rebuild; these counts pin how much work the index does.
    """

    #: (server_rescore, server_index_update, server_sort, server_search)
    OPS = (144, 506, 29, 300)
    #: SHA-256 over the concatenated result encodings of the stream.
    RESULTS_DIGEST = (
        "a48a26c64f0953fe37a7876ebfe11ebc5c2d79efebd80c8c41ea4a300b744260"
    )

    def test_churn_stream(self, enrolled, fresh_uploads):
        store, matcher, uploads = _loaded(enrolled)
        rnd = random.Random(6007)
        uids = sorted(uploads)
        digest = hashlib.sha256()
        with counting() as ops:
            for position in range(600):
                uid = rnd.choice(uids)
                if position % 2 == 0:
                    # a fresh chain under the user's own key, or one time
                    # in ten a move to another group
                    *own, moved = fresh_uploads[uid]
                    if rnd.random() < 0.1:
                        store.put(moved)
                    else:
                        store.put(rnd.choice(own))
                    continue
                if rnd.random() < 0.2:
                    matches = matcher.match_within(uid, 10)
                else:
                    matches = matcher.match(uid, 3)
                result = QueryResult(
                    query_id=position,
                    timestamp=position,
                    entries=tuple(
                        ResultEntry(user_id=m, auth=store.get(m).auth)
                        for m in matches
                    ),
                )
                digest.update(result.encode())
        found = tuple(
            ops.get(name)
            for name in (
                "server_rescore",
                "server_index_update",
                "server_sort",
                "server_search",
            )
        )
        assert found == self.OPS
        assert digest.hexdigest() == self.RESULTS_DIGEST


class TestDeadGroupEviction:
    def test_emptied_group_leaves_the_index(self, enrolled):
        store, matcher, uploads = _loaded(enrolled)
        key_index, members = min(store.groups(), key=lambda p: len(p[1]))
        # force the group into the index, then drain it
        matcher._group_index(key_index)
        assert key_index in matcher._groups
        for member in list(members):
            store.remove(member)
        assert key_index not in matcher._groups

    def test_cold_groups_never_enter_the_index(self, enrolled):
        store, matcher, uploads = _loaded(enrolled)
        assert matcher._groups == {}
        uid = next(iter(uploads))
        store.remove(uid)
        assert matcher._groups == {}


class TestListenerLifecycle:
    def test_dead_matcher_listener_is_pruned(self, enrolled):
        _, _, uploads, _ = enrolled
        store = ProfileStore()
        matcher = ServerMatcher(store)
        assert len(store._listeners) == 1
        del matcher
        # the weakref is dead; the next notification prunes it silently
        store.put(next(iter(uploads.values())))
        assert store._listeners == []

    def test_listener_after_a_dead_one_still_hears_events(self, enrolled):
        _, _, uploads, _ = enrolled
        store = ProfileStore()
        doomed = ServerMatcher(store)
        matcher = ServerMatcher(store)
        for payload in uploads.values():
            store.put(payload)
        _, members = max(store.groups(), key=lambda p: len(p[1]))
        query_uid, other_uid = sorted(members)[:2]
        matcher.match(query_uid, 3)  # warm the index
        del doomed
        # this event prunes the dead ref and must still reach the matcher
        store.remove(other_uid)
        assert len(store._listeners) == 1
        everyone = 1 << 30
        assert matcher.match_within(query_uid, everyone) == ServerMatcher(
            store
        ).match_within(query_uid, everyone)

    def test_replacement_within_group_updates_index(self, enrolled):
        store, matcher, uploads = _loaded(enrolled)
        _, members = max(store.groups(), key=lambda p: len(p[1]))
        ids = iter(members)
        query_uid, other_uid = next(ids), next(ids)
        matcher.match(query_uid, 3)  # warm the index
        # re-upload (same uid, same group) must be folded in as
        # remove-then-add, keeping the index equal to a fresh rebuild
        store.put(uploads[other_uid])
        fresh = ServerMatcher(store)
        assert matcher.match(query_uid, 3) == fresh.match(
            query_uid, 3
        )
