"""The store's incrementally maintained group indexes equal a rebuild.

Property tests for the performance layer's matcher (docs/PERFORMANCE.md):
after any interleaving of uploads and removals, ``match``/``match_within``
on the long-lived :class:`ProfileStore` must agree with a store rebuilt
from the same records, whose indexes are built cold, and dead groups must
not linger in the index.
"""

import dataclasses
import hashlib
import random

import pytest

from repro.net.messages import QueryResult, ResultEntry
from repro.obs.instrument import counting
from repro.server.storage import ProfileStore
from repro.utils.rand import SystemRandomSource


def _loaded(enrolled):
    _, _, uploads, _ = enrolled
    store = ProfileStore()
    for payload in uploads.values():
        store.put(payload)
    return store, uploads


def _rebuilt(store):
    """A second store holding ``store``'s records, with no index built."""
    fresh = ProfileStore()
    for payload in store.all_profiles().values():
        fresh.put(payload)
    return fresh


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
        store, uploads = _loaded(enrolled)
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
                fresh = _rebuilt(store)
                assert store.match(uid, 3) == fresh.match(uid, 3)
                assert store.match_within(uid, 30) == fresh.match_within(
                    uid, 30
                )

    def test_fresh_chain_churn_equivalence(self, enrolled, fresh_uploads):
        store, uploads = _loaded(enrolled)
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
                    fresh = _rebuilt(store)
                    assert store.match(uid, 3) == fresh.match(uid, 3)
                    assert store.match_within(
                        uid, 30
                    ) == fresh.match_within(uid, 30)
        # the traffic reached the incremental paths, not only cold rebuilds
        assert ops.get("server_index_update") > 0
        assert ops.get("server_rescore") > 0

    def test_remove_and_identical_reupload_is_a_no_op(self, enrolled):
        store, uploads = _loaded(enrolled)
        _, group = max(store.groups(), key=lambda p: len(p[1]))
        members = dict(group)  # the view would follow the churn below
        if len(members) < 2:
            pytest.skip("no multi-member group in this population")
        ids = iter(members)
        query_uid, churn_uid = next(ids), next(ids)
        before = store.match(query_uid, 3)
        for _ in range(3):
            payload = store.get(churn_uid)
            store.remove(churn_uid)
            store.put(payload)
            assert store.match(query_uid, 3) == before


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
        store, uploads = _loaded(enrolled)
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
                    matches = store.match_within(uid, 10)
                else:
                    matches = store.match(uid, 3)
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
        store, uploads = _loaded(enrolled)
        key_index, group = min(store.groups(), key=lambda p: len(p[1]))
        members = dict(group)  # the view would empty as the group drains
        # force the group into the index, then drain it
        store.match(next(iter(members)), 1)
        assert key_index in store._indexes
        for member in members:
            store.remove(member)
        assert key_index not in store._indexes

    def test_cold_groups_never_enter_the_index(self, enrolled):
        store, uploads = _loaded(enrolled)
        assert store._indexes == {}
        uid = next(iter(uploads))
        store.remove(uid)
        assert store._indexes == {}

    def test_sole_member_lengthening_its_chain_rebuilds_the_index(
        self, enrolled
    ):
        """A sole member may re-upload a longer chain; its emptied index
        goes, so the group is scored over the new width."""
        _, _, uploads, _ = enrolled
        first, second = list(uploads.values())[:2]
        key_index = b"\x5a" * 32
        store = ProfileStore()
        store.put(dataclasses.replace(first, key_index=key_index))
        assert store.match(first.user_id, 3) == []  # indexes the group
        # both longer chains share every value but the new last one, so
        # only a score over the new width tells the members apart
        store.put(
            dataclasses.replace(
                first, key_index=key_index, chain=first.chain + (1,)
            )
        )
        store.put(
            dataclasses.replace(
                second, key_index=key_index, chain=first.chain + (2,)
            )
        )
        fresh = _rebuilt(store)
        for uid in (first.user_id, second.user_id):
            assert store.match(uid, 3) == fresh.match(uid, 3)
            for radius in (0, 1):
                assert store.match_within(uid, radius) == (
                    fresh.match_within(uid, radius)
                )


class TestListenerLifecycle:
    """A replacement upload within one group reaches the group's index."""

    def test_replacement_within_group_updates_index(self, enrolled):
        store, uploads = _loaded(enrolled)
        _, group = max(store.groups(), key=lambda p: len(p[1]))
        ids = iter(dict(group))  # the view would follow the re-upload
        query_uid, other_uid = next(ids), next(ids)
        store.match(query_uid, 3)  # warm the index
        # re-upload (same uid, same group) must be folded in as
        # remove-then-add, keeping the index equal to a fresh rebuild
        store.put(uploads[other_uid])
        assert store.match(query_uid, 3) == _rebuilt(store).match(
            query_uid, 3
        )
