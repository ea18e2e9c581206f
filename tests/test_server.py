"""Tests for the untrusted server: storage, Match, service, adversaries."""

import dataclasses

import pytest

from repro.errors import MatchingError, ParameterError, ProtocolError
from repro.net.messages import QueryRequest, UploadMessage
from repro.server.adversary import MaliciousBehavior, MaliciousServer
from repro.server.service import SMatchServer
from repro.server.storage import ProfileStore
from repro.utils.rand import SystemRandomSource


@pytest.fixture
def loaded_server(enrolled):
    scheme, users, uploads, keys = enrolled
    server = SMatchServer(query_k=3)
    for payload in uploads.values():
        server.handle_upload(UploadMessage(payload=payload))
    return server, scheme, users, uploads, keys


@pytest.fixture
def loaded_store(enrolled):
    _, _, uploads, _ = enrolled
    store = ProfileStore()
    for payload in uploads.values():
        store.put(payload)
    return store, uploads


class TestStorage:
    def test_put_get(self, enrolled):
        _, _, uploads, _ = enrolled
        store = ProfileStore()
        payload = next(iter(uploads.values()))
        store.put(payload)
        assert store.get(payload.user_id) == payload
        assert len(store) == 1
        assert store.contains(payload.user_id)

    def test_groups_by_key_index(self, enrolled):
        _, _, uploads, _ = enrolled
        store = ProfileStore()
        for payload in uploads.values():
            store.put(payload)
        assert len(store) == len(uploads)
        assert sum(store.group_sizes()) == len(uploads)
        uid = next(iter(uploads))
        group = store.group_of(uid)
        assert all(
            p.key_index == uploads[uid].key_index for p in group.values()
        )

    def test_reupload_moves_between_groups(self, enrolled):
        from repro.core.scheme import EncryptedProfile

        _, _, uploads, _ = enrolled
        store = ProfileStore()
        ids = iter(uploads)
        a = uploads[next(ids)]
        b = uploads[next(ids)]
        store.put(a)
        store.put(b)
        groups_before = store.num_groups
        # user B re-uploads under A's key index (profile drifted)
        moved = EncryptedProfile(
            user_id=b.user_id,
            key_index=a.key_index,
            chain=b.chain,
            auth=b.auth,
        )
        store.put(moved)
        assert len(store) == 2
        assert store.get(b.user_id).key_index == a.key_index
        if a.key_index != b.key_index:
            assert store.num_groups == groups_before - 1

    def test_put_idempotent(self, enrolled):
        _, _, uploads, _ = enrolled
        store = ProfileStore()
        payload = next(iter(uploads.values()))
        store.put(payload)
        store.put(payload)
        assert len(store) == 1

    def test_remove(self, enrolled):
        _, _, uploads, _ = enrolled
        store = ProfileStore()
        payload = next(iter(uploads.values()))
        store.put(payload)
        store.remove(payload.user_id)
        assert len(store) == 0
        with pytest.raises(MatchingError):
            store.get(payload.user_id)

    def test_unknown_user(self):
        store = ProfileStore()
        with pytest.raises(MatchingError):
            store.group_of(404)
        with pytest.raises(MatchingError):
            store.remove(404)

    def test_bad_key_index(self):
        with pytest.raises(ParameterError):
            ProfileStore().group_by_index(b"short")


class TestMatcher:
    def test_match_returns_group_members(self, loaded_store):
        store, _ = loaded_store
        # pick a user in the biggest group
        biggest = max((g for _, g in store.groups()), key=len)
        if len(biggest) < 3:
            pytest.skip("no group big enough")
        uid = next(iter(biggest))
        result = store.match(uid, 2)
        assert len(result) == 2
        assert set(result) <= set(biggest) - {uid}

    def test_singleton_group_empty_result(self, loaded_store):
        store, _ = loaded_store
        singles = [next(iter(g)) for _, g in store.groups() if len(g) == 1]
        if not singles:
            pytest.skip("no singleton groups")
        assert store.match(singles[0], 5) == []

    def test_unknown_user_raises(self, loaded_store):
        store, _ = loaded_store
        with pytest.raises(MatchingError):
            store.match(987654, 3)

    def test_cache_consistency(self, loaded_store):
        store, uploads = loaded_store
        uid = next(iter(uploads))
        first = store.match(uid, 3)
        second = store.match(uid, 3)  # cached sort
        store.invalidate()
        third = store.match(uid, 3)  # cold sort
        assert first == second == third

    def test_match_within(self, loaded_store):
        store, _ = loaded_store
        biggest = max((g for _, g in store.groups()), key=len)
        if len(biggest) < 2:
            pytest.skip("no group big enough")
        uid = next(iter(biggest))
        everyone = store.match_within(uid, 10**12)
        assert set(everyone) == set(biggest) - {uid}
        with pytest.raises(ParameterError):
            store.match_within(uid, -1)


class TestService:
    def test_upload_then_query(self, loaded_server):
        server, scheme, users, uploads, keys = loaded_server
        uid = users[0].profile.user_id
        result = server.handle_query(
            QueryRequest(query_id=7, timestamp=5, user_id=uid)
        )
        assert result.query_id == 7
        assert result.timestamp == 5
        assert server.queries_served == 1
        for entry in result.entries:
            assert entry.auth.user_id == entry.user_id

    def test_max_distance_query(self, loaded_server):
        """A MAX-distance request returns the whole group at huge radius."""
        server, _, users, uploads, _ = loaded_server
        uid = users[0].profile.user_id
        group = {
            other
            for other, payload in uploads.items()
            if payload.key_index == uploads[uid].key_index
        }
        result = server.handle_query(
            QueryRequest(
                query_id=9, timestamp=0, user_id=uid, max_distance=10**12
            )
        )
        assert {e.user_id for e in result.entries} == set(group) - {uid}

    def test_max_distance_zero_returns_ties_only(self, loaded_server):
        server, _, users, _, _ = loaded_server
        uid = users[0].profile.user_id
        result = server.handle_query(
            QueryRequest(
                query_id=10, timestamp=0, user_id=uid, max_distance=0
            )
        )
        # radius zero returns only exact score ties (possibly none)
        assert isinstance(result.entries, tuple)

    def test_unknown_user_empty_result(self, loaded_server):
        server, _, _, _, _ = loaded_server
        result = server.handle_query(
            QueryRequest(query_id=1, timestamp=0, user_id=13371337)
        )
        assert result.entries == ()

    def test_handle_message_dispatch(self, loaded_server):
        server, _, users, uploads, _ = loaded_server
        payload = next(iter(uploads.values()))
        assert server.handle_message(UploadMessage(payload=payload)) is None
        response = server.handle_message(
            QueryRequest(query_id=1, timestamp=0, user_id=payload.user_id)
        )
        assert response is not None

    def test_unexpected_message_rejected(self, loaded_server):
        server, _, _, _, _ = loaded_server
        from repro.net.messages import QueryResult

        with pytest.raises(ProtocolError):
            server.handle_message(
                QueryResult(query_id=1, timestamp=0, entries=())
            )


class TestMismatchedChainUpload:
    """A re-upload whose chain length differs from its key group's is
    refused before it is stored, so one member cannot stop the group
    matching: every member's answer equals a server that never saw it."""

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_group_answers_unchanged(self, enrolled, warm):
        _, _, uploads, _ = enrolled
        payloads = [uploads[uid] for uid in sorted(uploads)]
        target = next(
            p
            for p in payloads
            if sum(q.key_index == p.key_index for q in payloads) > 1
        )
        group = [p.user_id for p in payloads if p.key_index == target.key_index]

        def loaded():
            server = SMatchServer(query_k=3)
            for payload in payloads:
                server.handle_message(UploadMessage(payload=payload))
            return server

        def answers(server):
            return [
                server.handle_message(
                    QueryRequest(query_id=uid, timestamp=0, user_id=uid)
                ).encode()
                for uid in group
            ]

        server = loaded()
        if warm:
            answers(server)  # index the group before the bad upload
        widened = dataclasses.replace(
            target, chain=target.chain + (target.chain[-1] + 1,)
        )
        with pytest.raises(ParameterError):
            server.handle_message(UploadMessage(payload=widened))
        assert answers(server) == answers(loaded())


class TestMaliciousServer:
    def load(self, enrolled, behavior):
        scheme, users, uploads, keys = enrolled
        server = MaliciousServer(
            behavior, query_k=3, rng=SystemRandomSource(seed=81)
        )
        for payload in uploads.values():
            server.handle_upload(UploadMessage(payload=payload))
        return server, scheme, users, uploads, keys

    def query_and_verify(self, server, scheme, users, keys):
        uid = users[0].profile.user_id
        result = server.handle_query(
            QueryRequest(query_id=1, timestamp=0, user_id=uid)
        )
        verified = [
            entry.user_id
            for entry in result.entries
            if scheme.verify(entry.auth, keys[uid])
        ]
        return result, verified

    def test_fake_users_all_rejected(self, enrolled):
        server, scheme, users, uploads, keys = self.load(
            enrolled, MaliciousBehavior.FAKE_USERS
        )
        result, verified = self.query_and_verify(server, scheme, users, keys)
        assert result.entries  # forgery happened
        assert verified == []

    def test_forged_auth_all_rejected(self, enrolled):
        server, scheme, users, uploads, keys = self.load(
            enrolled, MaliciousBehavior.FORGED_AUTH
        )
        result, verified = self.query_and_verify(server, scheme, users, keys)
        assert result.entries
        assert verified == []

    def test_swapped_auth_rejected(self, enrolled):
        server, scheme, users, uploads, keys = self.load(
            enrolled, MaliciousBehavior.SWAPPED_AUTH
        )
        result, verified = self.query_and_verify(server, scheme, users, keys)
        if len(result.entries) >= 2:
            assert verified == []

    def test_drop_results(self, enrolled):
        server, scheme, users, uploads, keys = self.load(
            enrolled, MaliciousBehavior.DROP_RESULTS
        )
        result, verified = self.query_and_verify(server, scheme, users, keys)
        assert result.entries == ()

    def test_forgery_counter(self, enrolled):
        server, scheme, users, uploads, keys = self.load(
            enrolled, MaliciousBehavior.FAKE_USERS
        )
        self.query_and_verify(server, scheme, users, keys)
        assert server.forgeries_sent >= 1


class TestStoreViews:
    """The documented read-only view contract of ProfileStore."""

    @pytest.fixture
    def store(self, enrolled):
        _, _, uploads, _ = enrolled
        store = ProfileStore()
        for payload in uploads.values():
            store.put(payload)
        return store

    def test_all_profiles_is_read_only(self, store):
        view = store.all_profiles()
        uid = next(iter(view))
        with pytest.raises(TypeError):
            view[uid] = view[uid]  # type: ignore[index]
        with pytest.raises(TypeError):
            del view[uid]  # type: ignore[attr-defined]

    def test_all_profiles_is_a_live_view(self, store):
        view = store.all_profiles()
        uid = next(iter(view))
        count = len(view)
        store.remove(uid)
        assert len(view) == count - 1 and uid not in view
        store.put(store.get(next(iter(view))))  # replace keeps the count
        assert len(view) == count - 1

    def test_groups_are_read_only_live_views(self, store):
        key_index, group = max(store.groups(), key=lambda p: len(p[1]))
        uid = next(iter(group))
        with pytest.raises(TypeError):
            group[uid] = group[uid]  # type: ignore[index]
        count = len(group)
        store.remove(uid)
        assert len(group) == count - 1 and uid not in group
        assert dict(group) == store.group_by_index(key_index)

    def test_all_profiles_matches_gets(self, store):
        for uid, payload in store.all_profiles().items():
            assert store.get(uid) == payload

    def test_group_sizes_is_a_sorted_snapshot(self, store):
        sizes = store.group_sizes()
        assert isinstance(sizes, tuple)
        assert list(sizes) == sorted(sizes, reverse=True)
        assert sum(sizes) == len(store)
        assert len(sizes) == store.num_groups
        # snapshot semantics: the tuple does not track later mutations...
        store.remove(next(iter(store.all_profiles())))
        assert sum(sizes) == len(store) + 1
        # ...and a fresh call reflects them (cache invalidated on mutation)
        assert sum(store.group_sizes()) == len(store)
