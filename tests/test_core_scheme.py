"""Tests for the S-MATCH scheme facade (Definition 5)."""

import pytest

from repro.core.scheme import EncryptedProfile, SMatchParams
from repro.errors import ParameterError


class TestParams:
    def test_fuzzy_and_ope_params(self, small_schema):
        params = SMatchParams(schema=small_schema, theta=8, plaintext_bits=64)
        assert params.fuzzy_params.num_attributes == 6
        assert params.fuzzy_params.theta == 8
        assert params.ope_params.plaintext_bits == 64
        assert params.ope_params.expansion_bits == 0

    def test_validation(self, small_schema):
        with pytest.raises(ParameterError):
            SMatchParams(schema=small_schema, query_k=0)
        with pytest.raises(ParameterError):
            SMatchParams(schema=small_schema, order_method="bogus")


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
