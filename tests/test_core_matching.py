"""Tests for the Definition-4 matching algorithms."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.matching import (
    knn_match,
    max_distance_match,
    rank_sum,
    score_table,
    value_sum,
)
from repro.errors import MatchingError, ParameterError


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


class TestValueSum:
    def test_paper_example(self):
        """User A 12|8 -> 20, B 34|2 -> 36, C 50|48 -> 98; A matches B."""
        chains = {"A": [12, 8], "B": [34, 2], "C": [50, 48]}
        scores = value_sum(chains)
        assert scores == {"A": 20, "B": 36, "C": 98}
        assert knn_match(chains, "A", 1, method="value") == ["B"]

    def test_dispatch(self):
        chains = {1: [1], 2: [5]}
        assert score_table(chains, "value") == value_sum(chains)
        assert score_table(chains, "rank") == rank_sum(chains)
        with pytest.raises(ParameterError):
            score_table(chains, "nope")


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

    def test_sorted_by_distance(self):
        chains = {1: [0], 2: [3], 3: [1], 4: [10]}
        result = max_distance_match(chains, 1, 5, method="value")
        assert result == [3, 2]
