"""Cross-cutting property-based tests on scheme-level invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.matching import knn_match
from repro.errors import ProtocolError, ReproError
from repro.net.messages import decode_message
from repro.rs.fuzzy import FuzzyExtractor, FuzzyParams
from repro.utils.rand import SystemRandomSource


class TestFuzzyKeyCompleteness:
    """Close profiles anchored near a codeword derive equal fuzzy vectors."""

    PARAMS = FuzzyParams(num_attributes=6, theta=8)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_bounded_noise_collides(self, data):
        fx = FuzzyExtractor(self.PARAMS)
        seed = data.draw(st.integers(min_value=0, max_value=10**6))
        rng = SystemRandomSource(seed=seed)
        cw = fx.random_codeword(rng)
        center = fx.codeword_center_values(cw, 1 << 18)
        # noise within the same bucket: |eps| <= step//2 - 1 keeps every
        # attribute in its bucket, so the vectors must collide exactly
        step = self.PARAMS.resolved_step
        eps = data.draw(
            st.lists(
                st.integers(
                    min_value=-(step // 2 - 1), max_value=step // 2 - 1
                ),
                min_size=6,
                max_size=6,
            )
        )
        noisy = [c + e for c, e in zip(center, eps)]
        assert fx.fuzzy_vector(noisy) == tuple(cw)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_up_to_t_bucket_flips_still_collide(self, data):
        fx = FuzzyExtractor(self.PARAMS)
        seed = data.draw(st.integers(min_value=0, max_value=10**6))
        rng = SystemRandomSource(seed=seed)
        cw = fx.random_codeword(rng)
        center = fx.codeword_center_values(cw, 1 << 18)
        step = self.PARAMS.resolved_step
        t = self.PARAMS.tolerated_errors
        flip_positions = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=5),
                min_size=0,
                max_size=t,
                unique=True,
            )
        )
        noisy = list(center)
        for pos in flip_positions:
            direction = data.draw(st.sampled_from([-1, 1]))
            noisy[pos] = max(0, center[pos] + direction * step)
        assert fx.fuzzy_vector(noisy) == tuple(cw)


class TestMessageFuzzing:
    """decode_message never raises anything but ProtocolError family."""

    @given(st.binary(max_size=400))
    @settings(max_examples=100)
    def test_random_bytes(self, raw):
        try:
            decode_message(raw)
        except ReproError:
            pass  # ProtocolError/ParameterError are acceptable rejections
        except OverflowError:
            pytest.fail("decoder leaked an OverflowError")

    @given(st.binary(min_size=1, max_size=60))
    @settings(max_examples=50)
    def test_truncations_of_valid_message(self, prefix):
        from repro.net.messages import QueryRequest

        encoded = QueryRequest(query_id=7, timestamp=9, user_id=3).encode()
        for cut in range(0, len(encoded), 3):
            try:
                msg = decode_message(encoded[:cut])
                # decoding a prefix should only succeed for the full message
                assert encoded[:cut] == encoded
            except ReproError:
                pass


class TestMatcherAgainstReference:
    """Match's windowed selection matches score-distance semantics."""

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_window_distances_optimal(self, data):
        from repro.core.matching import rank_sum

        n = data.draw(st.integers(min_value=3, max_value=12))
        chains = {
            uid: [
                data.draw(st.integers(min_value=0, max_value=100))
                for _ in range(3)
            ]
            for uid in range(1, n + 1)
        }
        k = data.draw(st.integers(min_value=1, max_value=n - 1))
        query = 1
        result = knn_match(chains, query, k)
        assert len(result) == min(k, n - 1)
        scores = rank_sum(chains)
        mine = scores[query]
        chosen = sorted(abs(scores[u] - mine) for u in result)
        others = sorted(
            abs(scores[u] - mine) for u in chains if u != query
        )
        # the selected distances are the k smallest achievable
        assert chosen == others[: len(chosen)]


class TestPipelineOrderInvariant:
    """End-to-end: mapped+chained+OPE totals preserve dominance order."""

    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_dominated_profiles_rank_lower(self, data, small_scheme):
        schema = small_scheme.params.schema
        base_values = [
            data.draw(
                st.integers(min_value=0, max_value=s.cardinality - 2)
            )
            for s in schema.attributes
        ]
        from repro.core.profile import Profile

        lo = Profile(1, schema, tuple(base_values))
        hi = Profile(
            2,
            schema,
            tuple(
                min(v + s.cardinality // 2, s.cardinality - 1)
                for v, s in zip(base_values, schema.attributes)
            ),
        )
        key = small_scheme.keygen(lo)
        lo_chain = small_scheme.encrypt(lo, key)
        hi_chain = small_scheme.encrypt(hi, key)
        assert sum(lo_chain) <= sum(hi_chain)
