"""Tests for the S-MATCH scheme facade (Definition 5)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.scheme import EncryptedProfile, SMatchParams
from repro.errors import ParameterError
from repro.server.service import SMatchServer


class TestParams:
    def test_fuzzy_and_ope_params(self, small_schema):
        params = SMatchParams(schema=small_schema, theta=8, plaintext_bits=64)
        assert params.fuzzy_params.num_attributes == 6
        assert params.fuzzy_params.theta == 8
        assert params.ope_params.plaintext_bits == 64
        assert params.ope_params.expansion_bits == 0

    def test_validation(self):
        """k is set once, on the server, which refuses a k below 1."""
        with pytest.raises(ParameterError):
            SMatchServer(query_k=0)


class TestEncryptedProfile:
    def test_auth_binding_checked(self, enrolled):
        _, _, uploads, _ = enrolled
        payload = next(iter(uploads.values()))
        with pytest.raises(ParameterError):
            EncryptedProfile(
                user_id=payload.user_id + 1,
                key_index=payload.key_index,
                chain=payload.chain,
                auth=payload.auth,
            )

    def test_wire_bits_formula(self, enrolled):
        _, _, uploads, _ = enrolled
        payload = next(iter(uploads.values()))
        bits = payload.wire_bits(id_bits=32, ciphertext_bits=64)
        expected = 32 + 256 + payload.auth.wire_size * 8 + 64 * len(payload.chain)
        assert bits == expected


class TestPipeline:
    def test_chain_length_matches_schema(self, enrolled):
        scheme, users, uploads, _ = enrolled
        for payload in uploads.values():
            assert len(payload.chain) == len(scheme.params.schema)

    def test_ciphertexts_in_ope_range(self, enrolled):
        scheme, _, uploads, _ = enrolled
        limit = 1 << scheme.params.ope_params.ciphertext_bits
        for payload in uploads.values():
            assert all(0 <= ct < limit for ct in payload.chain)

    def test_same_cluster_same_group(self, enrolled):
        _, users, uploads, _ = enrolled
        by_cat = {}
        for u in users:
            by_cat.setdefault(u.categorical, []).append(u.profile.user_id)
        multi = [ids for ids in by_cat.values() if len(ids) > 1]
        assert multi, "population must contain clusters"
        agreements = 0
        total = 0
        for ids in multi:
            indexes = {uploads[i].key_index for i in ids}
            total += 1
            if len(indexes) == 1:
                agreements += 1
        assert agreements / total > 0.6

    def test_distinct_clusters_distinct_groups(self, enrolled):
        _, users, uploads, _ = enrolled
        reps = {}
        for u in users:
            reps.setdefault(u.categorical, u.profile.user_id)
        indexes = [uploads[uid].key_index for uid in reps.values()]
        # distinct categorical profiles should rarely share a key index
        assert len(set(indexes)) > len(indexes) // 2

    def test_match_in_group_returns_cluster_members(self, enrolled):
        scheme, users, uploads, _ = enrolled
        by_index = {}
        for uid, payload in uploads.items():
            by_index.setdefault(payload.key_index, {})[uid] = payload
        group = max(by_index.values(), key=len)
        if len(group) < 3:
            pytest.skip("population produced no group of size >= 3")
        query_user = next(iter(group))
        result = scheme.match_in_group(group, query_user, k=2)
        assert len(result) == 2
        assert query_user not in result
        assert set(result) <= set(group)

    def test_match_within_distance(self, enrolled):
        scheme, _, uploads, _ = enrolled
        by_index = {}
        for uid, payload in uploads.items():
            by_index.setdefault(payload.key_index, {})[uid] = payload
        group = max(by_index.values(), key=len)
        if len(group) < 2:
            pytest.skip("no non-trivial group")
        query_user = next(iter(group))
        huge = scheme.match_within_distance(group, query_user, 10**9)
        assert set(huge) == set(group) - {query_user}

    def test_verification_within_group(self, enrolled):
        scheme, _, uploads, keys = enrolled
        by_index = {}
        for uid, payload in uploads.items():
            by_index.setdefault(payload.key_index, []).append(uid)
        group = max(by_index.values(), key=len)
        if len(group) < 2:
            pytest.skip("no non-trivial group")
        a, b = group[0], group[1]
        assert scheme.verify(uploads[b].auth, keys[a])

    def test_verification_across_groups_fails(self, enrolled):
        scheme, _, uploads, keys = enrolled
        indexes = {}
        for uid, payload in uploads.items():
            indexes.setdefault(payload.key_index, []).append(uid)
        if len(indexes) < 2:
            pytest.skip("population collapsed to one group")
        groups = list(indexes.values())
        a = groups[0][0]
        b = groups[1][0]
        assert not scheme.verify(uploads[b].auth, keys[a])

    def test_verify_matches_rejects_a_relabelled_entry(self, enrolled):
        from repro.net.messages import ResultEntry

        scheme, _, uploads, keys = enrolled
        by_index = {}
        for uid, payload in uploads.items():
            by_index.setdefault(payload.key_index, []).append(uid)
        group = max(by_index.values(), key=len)
        if len(group) < 3:
            pytest.skip("no group of three")
        querier, a, b = group[:3]
        # a's authenticator passes Vf under the group key whatever id the
        # entry names; the entry must name a itself
        assert scheme.verify(uploads[a].auth, keys[querier])
        entries = (
            ResultEntry(user_id=a, auth=uploads[a].auth),
            ResultEntry(user_id=b, auth=uploads[a].auth),
        )
        assert scheme.verify_matches(entries, keys[querier]) == ((a,), (b,))

    def test_encrypt_consistent_for_same_mapped_values(self, enrolled, population):
        scheme, users, _, keys = enrolled
        profile = users[0].profile
        key = keys[profile.user_id]
        mapped = scheme.init_data(profile)
        assert scheme.encrypt(profile, key, mapped) == scheme.encrypt(
            profile, key, mapped
        )

    def test_init_data_one_to_n(self, enrolled):
        scheme, users, _, _ = enrolled
        profile = users[0].profile
        outputs = {tuple(scheme.init_data(profile)) for _ in range(5)}
        assert len(outputs) > 1  # one-to-N mapping is randomized

    def test_order_preserved_through_pipeline(self, enrolled):
        """Raw value order survives mapping + OPE within one key group."""
        scheme, users, _, keys = enrolled
        profile = users[0].profile
        key = keys[profile.user_id]
        lo = profile.with_values(tuple(0 for _ in profile.values))
        hi = profile.with_values(
            tuple(s.cardinality - 1 for s in profile.schema.attributes)
        )
        lo_chain = scheme.encrypt(lo, key)
        hi_chain = scheme.encrypt(hi, key)
        assert sum(lo_chain) < sum(hi_chain)


@pytest.fixture(scope="module")
def claimed_entries(enrolled):
    """``(scheme, querier key, entries, per-entry verdicts)``.

    The entries are the querier's honest group members, the same members'
    authenticators relabelled to another member's id, and the results a
    ``server.adversary`` server forges with each strategy.  A verdict is
    per-entry Vf plus the relabel check.
    """
    from repro.net.messages import QueryRequest, ResultEntry, UploadMessage
    from repro.server.adversary import MaliciousBehavior, MaliciousServer
    from repro.utils.rand import SystemRandomSource

    scheme, _, uploads, keys = enrolled
    by_index = {}
    for uid, payload in uploads.items():
        by_index.setdefault(payload.key_index, []).append(uid)
    group = max(by_index.values(), key=len)
    if len(group) < 3:
        pytest.skip("no group of three")
    querier, first, *others = group
    entries = [ResultEntry(user_id=u, auth=uploads[u].auth) for u in group[1:]]
    entries += [ResultEntry(user_id=first, auth=uploads[u].auth) for u in others]
    for behavior in (
        MaliciousBehavior.FAKE_USERS,
        MaliciousBehavior.FORGED_AUTH,
        MaliciousBehavior.SWAPPED_AUTH,
    ):
        server = MaliciousServer(behavior, rng=SystemRandomSource(seed=31))
        for payload in uploads.values():
            server.handle_message(UploadMessage(payload=payload))
        forged = server.handle_message(
            QueryRequest(query_id=querier, timestamp=1, user_id=querier)
        )
        entries += forged.entries
    key = keys[querier]
    verdicts = [
        e.auth.user_id == e.user_id and scheme.verifier.verify(e.auth, key)
        for e in entries
    ]
    assert any(verdicts) and not all(verdicts)
    return scheme, key, entries, verdicts


class TestVerifyMatches:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_verdicts_equal_per_entry_vf(self, claimed_entries, data):
        scheme, key, entries, verdicts = claimed_entries
        # drawn with replacement: results may repeat an entry
        picks = data.draw(
            st.lists(st.integers(0, len(entries) - 1), max_size=8)
        )
        chosen = [entries[i] for i in picks]
        assert scheme.verify_matches(chosen, key) == (
            tuple(entries[i].user_id for i in picks if verdicts[i]),
            tuple(entries[i].user_id for i in picks if not verdicts[i]),
        )

    def test_one_vf_span_per_bound_entry_and_one_aes_pass(
        self, claimed_entries, monkeypatch
    ):
        from repro.crypto.aes import AES
        from repro.obs.trace import tracing

        scheme, key, entries, _ = claimed_entries
        passes = []
        real = AES.encrypt_runs

        def counted(self, runs):
            passes.append(len(runs))
            return real(self, runs)

        monkeypatch.setattr(AES, "encrypt_runs", counted)
        with tracing("run") as tracer:
            scheme.verify_matches(entries, key)
        bound = [e for e in entries if e.auth.user_id == e.user_id]
        vf = tracer.find("verification.vf")
        assert [s.attrs["claimed_user"] for s in vf] == [
            e.user_id for e in bound
        ]
        assert len(passes) == 1
        (parent,) = tracer.find("scheme.verify_matches")
        assert parent.ops["verify"] == len(bound)
        assert all("aes_block" not in s.ops for s in vf)
