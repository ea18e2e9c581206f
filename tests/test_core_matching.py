"""Tests for the Definition-4 matching algorithms."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.matching import knn_match, max_distance_match, rank_sum
from repro.core.scheme import EncryptedProfile
from repro.core.verification import AuthInfo
from repro.crypto.modes import AeadCiphertext
from repro.errors import MatchingError, ParameterError
from repro.server.storage import ProfileStore


class TestRankSum:
    def test_empty(self):
        assert rank_sum({}) == {}

    def test_single_user(self):
        assert rank_sum({1: [10, 20]}) == {1: 0}

    def test_dense_ranks(self):
        chains = {1: [10, 10], 2: [20, 20], 3: [10, 20]}
        scores = rank_sum(chains)
        assert scores == {1: 0, 2: 2, 3: 1}

    def test_ties_share_rank(self):
        chains = {1: [5], 2: [5], 3: [9]}
        scores = rank_sum(chains)
        assert scores[1] == scores[2] == 0
        assert scores[3] == 1

    def test_inconsistent_lengths(self):
        with pytest.raises(ParameterError):
            rank_sum({1: [1, 2], 2: [1]})

    @given(
        st.dictionaries(
            st.integers(min_value=1, max_value=50),
            st.lists(st.integers(min_value=0, max_value=1000), min_size=3, max_size=3),
            min_size=2,
            max_size=10,
        )
    )
    @settings(max_examples=30)
    def test_rank_invariant_under_monotone_map(self, chains):
        """Ranks depend only on order — the OPE-replaceability property."""
        mapped = {
            u: [v * 7 + 13 for v in chain] for u, chain in chains.items()
        }
        assert rank_sum(chains) == rank_sum(mapped)


class TestPaperExample:
    def test_worked_example_still_pairs_a_with_b(self):
        """The paper sums raw values: A 12|8 -> 20, B 34|2 -> 36,
        C 50|48 -> 98.  Dense ranks score A 1, B 1, C 4: A still matches B."""
        chains = {1: [12, 8], 2: [34, 2], 3: [50, 48]}
        assert rank_sum(chains) == {1: 1, 2: 1, 3: 4}
        assert knn_match(chains, 1, 1) == [2]


class TestKnn:
    CHAINS = {i: [i * 10, i * 10] for i in range(1, 8)}

    def test_returns_k_nearest(self):
        result = knn_match(self.CHAINS, 4, 2)
        assert set(result) == {3, 5}

    def test_excludes_query_user(self):
        assert 4 not in knn_match(self.CHAINS, 4, 6)

    def test_k_larger_than_group(self):
        assert len(knn_match(self.CHAINS, 4, 100)) == 6

    def test_unknown_user(self):
        with pytest.raises(MatchingError):
            knn_match(self.CHAINS, 99, 2)

    def test_invalid_k(self):
        with pytest.raises(ParameterError):
            knn_match(self.CHAINS, 4, 0)

    def test_deterministic_tie_break(self):
        chains = {1: [10], 2: [20], 3: [20], 4: [30]}
        assert knn_match(chains, 1, 2) == knn_match(chains, 1, 2)


class TestMaxDistance:
    CHAINS = {i: [i * 10] for i in range(1, 6)}

    def test_radius_zero(self):
        chains = {1: [5], 2: [5], 3: [9]}
        assert max_distance_match(chains, 1, 0) == [2]

    def test_radius_includes_near(self):
        result = max_distance_match(self.CHAINS, 3, 1)
        assert set(result) == {2, 4}

    def test_negative_radius(self):
        with pytest.raises(ParameterError):
            max_distance_match(self.CHAINS, 3, -1)

    def test_ascending_score(self):
        """The server's order: ascending (score, id), so a nearer member
        may come later and id 2 precedes id 10 at one score."""
        chains = {1: [20], 2: [0], 3: [30], 4: [10], 10: [0]}
        assert max_distance_match(chains, 1, 2) == [2, 10, 4, 3]


def _stored(chains):
    """A one-group :class:`ProfileStore` holding ``chains``."""
    store = ProfileStore()
    sealed = AeadCiphertext(iv=b"\x01" * 16, body=b"\x02" * 96, tag=b"\x03" * 32)
    for uid, chain in chains.items():
        store.put(
            EncryptedProfile(
                user_id=uid,
                key_index=b"\x07" * 32,
                chain=tuple(chain),
                auth=AuthInfo(user_id=uid, sealed=sealed),
            )
        )
    return store


class TestLibraryEqualsServer:
    """The library's Match selects what the server's store selects,
    element for element, over tie-heavy groups whose ids sort differently
    as numbers and as strings."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_knn_and_max_distance(self, data):
        width = data.draw(st.integers(min_value=1, max_value=4))
        chains = data.draw(
            st.dictionaries(
                st.integers(min_value=1, max_value=30),
                st.lists(
                    st.integers(min_value=0, max_value=6),
                    min_size=width,
                    max_size=width,
                ),
                min_size=2,
                max_size=12,
            )
        )
        query = data.draw(st.sampled_from(sorted(chains)))
        k = data.draw(st.integers(min_value=1, max_value=6))
        radius = data.draw(st.integers(min_value=0, max_value=6))
        store = _stored(chains)
        assert knn_match(chains, query, k) == store.match(query, k)
        assert max_distance_match(chains, query, radius) == (
            store.match_within(query, radius)
        )
