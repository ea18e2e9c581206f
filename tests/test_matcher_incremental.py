"""The incrementally maintained matcher equals a from-scratch rebuild.

Property tests for the performance layer's matcher (docs/PERFORMANCE.md):
after any interleaving of uploads and removals, ``match``/``match_within``
through the long-lived :class:`ServerMatcher` must agree with a matcher
built fresh from the same store — for both order methods — and dead groups
must not linger in the index.
"""

import random

import pytest

from repro.server.matcher import ServerMatcher
from repro.server.storage import ProfileStore


def _loaded(enrolled, order_method):
    _, _, uploads, _ = enrolled
    store = ProfileStore()
    matcher = ServerMatcher(store, order_method=order_method)
    for payload in uploads.values():
        store.put(payload)
    return store, matcher, uploads


@pytest.mark.parametrize("order_method", ["rank", "value"])
class TestIncrementalEqualsRebuild:
    def test_interleaved_churn_equivalence(self, enrolled, order_method):
        store, matcher, uploads = _loaded(enrolled, order_method)
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
                fresh = ServerMatcher(store, order_method=order_method)
                assert matcher.match(uid, 3) == fresh.match(uid, 3)
                assert matcher.match_within(uid, 30) == fresh.match_within(
                    uid, 30
                )

    def test_remove_and_identical_reupload_is_a_no_op(
        self, enrolled, order_method
    ):
        store, matcher, uploads = _loaded(enrolled, order_method)
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

    def test_generation_advances_on_churn(self, enrolled, order_method):
        store, matcher, uploads = _loaded(enrolled, order_method)
        _, members = max(store.groups(), key=lambda p: len(p[1]))
        ids = iter(members)
        query_uid, churn_uid = next(ids), next(ids)
        matcher.match(query_uid, 3)  # build the group index
        first = matcher.group_generation(query_uid)
        payload = store.get(churn_uid)
        store.remove(churn_uid)
        store.put(payload)
        assert matcher.group_generation(query_uid) > first


class TestDeadGroupEviction:
    def test_emptied_group_leaves_the_index(self, enrolled):
        store, matcher, uploads = _loaded(enrolled, "rank")
        key_index, members = min(store.groups(), key=lambda p: len(p[1]))
        # force the group into the index, then drain it
        matcher._group_index(key_index)
        assert key_index in matcher._groups
        for member in list(members):
            store.remove(member)
        assert key_index not in matcher._groups

    def test_cold_groups_never_enter_the_index(self, enrolled):
        store, matcher, uploads = _loaded(enrolled, "rank")
        assert matcher._groups == {}
        uid = next(iter(uploads))
        store.remove(uid)
        assert matcher._groups == {}


class TestListenerLifecycle:
    def test_dead_matcher_listener_is_pruned(self, enrolled):
        _, _, uploads, _ = enrolled
        store = ProfileStore()
        matcher = ServerMatcher(store, order_method="rank")
        assert len(store._live_listeners()) == 1
        del matcher
        # the weakref is dead; the next notification prunes it silently
        store.put(next(iter(uploads.values())))
        assert store._live_listeners() == []

    def test_replacement_within_group_updates_index(self, enrolled):
        store, matcher, uploads = _loaded(enrolled, "rank")
        _, members = max(store.groups(), key=lambda p: len(p[1]))
        ids = iter(members)
        query_uid, other_uid = next(ids), next(ids)
        matcher.match(query_uid, 3)  # warm the index
        # re-upload (same uid, same group) must be folded in as
        # remove-then-add, keeping the index equal to a fresh rebuild
        store.put(uploads[other_uid])
        fresh = ServerMatcher(store, order_method="rank")
        assert matcher.match(query_uid, 3) == fresh.match(
            query_uid, 3
        )
