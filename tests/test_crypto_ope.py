"""Tests for order-preserving encryption."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.ope import (
    OPE,
    AdaptiveOPE,
    OpeParams,
    _hypergeometric_logpmf,
    _hypergeometric_ppf,
)
from repro.errors import CiphertextError, KeyError_, ParameterError
from repro.utils.mac import HmacSha256
from repro.utils.rand import DeterministicStream, draw_below

KEY = b"ope-test-key-32-bytes-long......"


def _stream_draw(key, tag, bounds, lo, hi):
    """A node draw as a stream object makes it: the label is
    ``tag|dlo|dhi|rlo|rhi``, each bound minimal big-endian."""
    label = tag + b"|" + b"|".join(
        v.to_bytes((v.bit_length() + 7) // 8 or 1, "big") for v in bounds
    )
    return DeterministicStream(key, label).randint(lo, hi)


@pytest.fixture(scope="module")
def ope16():
    return OPE(KEY, OpeParams(plaintext_bits=16))


class TestParams:
    def test_sizes(self):
        p = OpeParams(plaintext_bits=16, expansion_bits=8)
        assert p.ciphertext_bits == 24
        assert p.domain_size == 1 << 16
        assert p.range_size == 1 << 24

    def test_invalid(self):
        with pytest.raises(ParameterError):
            OpeParams(plaintext_bits=0)
        with pytest.raises(ParameterError):
            OpeParams(plaintext_bits=8, expansion_bits=-1)
        with pytest.raises(ParameterError):
            OpeParams(plaintext_bits=8, split="weird")

    def test_hypergeometric_domain_cap(self):
        with pytest.raises(ParameterError):
            OpeParams(plaintext_bits=32, split="hypergeometric")

    def test_key_size_enforced(self):
        with pytest.raises(KeyError_):
            OPE(b"short", OpeParams(plaintext_bits=8))


class TestOrderPreservation:
    @given(
        st.lists(
            st.integers(min_value=0, max_value=(1 << 16) - 1),
            min_size=2,
            max_size=30,
            unique=True,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_strictly_monotone(self, ope16, values):
        values.sort()
        cts = [ope16.encrypt(v) for v in values]
        assert cts == sorted(cts)
        assert len(set(cts)) == len(cts)

    def test_deterministic(self, ope16):
        assert ope16.encrypt(1234) == ope16.encrypt(1234)

    def test_key_dependence(self):
        a = OPE(KEY, OpeParams(plaintext_bits=16))
        b = OPE(b"another-key-32-bytes-long.......", OpeParams(plaintext_bits=16))
        cts_a = [a.encrypt(v) for v in (10, 500, 60000)]
        cts_b = [b.encrypt(v) for v in (10, 500, 60000)]
        assert cts_a != cts_b

    def test_domain_endpoints(self, ope16):
        lo = ope16.encrypt(0)
        hi = ope16.encrypt((1 << 16) - 1)
        assert 0 <= lo < hi < (1 << ope16.params.ciphertext_bits)

    def test_out_of_domain_rejected(self, ope16):
        with pytest.raises(ParameterError):
            ope16.encrypt(1 << 16)
        with pytest.raises(ParameterError):
            ope16.encrypt(-1)


class TestNodeDraw:
    """The descent's node and leaf draws are byte for byte the draws of a
    fresh :class:`DeterministicStream` per node."""

    @given(
        st.binary(min_size=16, max_size=40),
        st.sampled_from([b"node", b"leaf"]),
        st.tuples(*[st.integers(min_value=0, max_value=1 << 96)] * 4),
        st.integers(min_value=0, max_value=1 << 80),
        st.one_of(
            st.integers(min_value=1, max_value=1 << 90),
            # just above a power of two, where rejection is likeliest
            st.integers(min_value=0, max_value=90).map(lambda k: (1 << k) + 1),
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_stream_randint(self, key, tag, bounds, lo, span):
        ope = OPE(key, OpeParams(plaintext_bits=16))
        hi = lo + span - 1
        assert ope._draw(tag, *bounds, lo, hi) == _stream_draw(
            key, tag, bounds, lo, hi
        )

    def test_draw_that_crosses_a_block(self):
        # 91-bit candidates take 12 bytes: a third candidate straddles the
        # first 32-byte block, and a fourth needs the next one
        ope = OPE(KEY, OpeParams(plaintext_bits=16))
        span = (1 << 90) + 1
        crossed = 0
        for dlo in range(200):
            bounds = (dlo, dlo + 1, 0, span)
            label = b"node|" + b"|".join(
                v.to_bytes((v.bit_length() + 7) // 8 or 1, "big")
                for v in bounds
            )
            _, counter, _ = draw_below(HmacSha256(KEY), label, 0, b"", span)
            if counter < 2:
                continue
            crossed += 1
            assert ope._draw(b"node", *bounds, 0, span - 1) == _stream_draw(
                KEY, b"node", bounds, 0, span - 1
            )
        assert crossed > 0

    def test_levels_counted_once_per_walk(self, ope16):
        from repro.obs.instrument import counting

        with counting() as c:
            ope16.encrypt(1234)
            ope16.decrypt(ope16.encrypt(99))
        assert c.get("ope_level") == 3 * 16


class TestDecrypt:
    @given(st.integers(min_value=0, max_value=(1 << 16) - 1))
    @settings(max_examples=30, deadline=None)
    def test_inverts_encrypt(self, ope16, m):
        assert ope16.decrypt(ope16.encrypt(m)) == m

    def test_invalid_ciphertext_rejected(self, ope16):
        valid = ope16.encrypt(777)
        probe = valid + 1
        try:
            m = ope16.decrypt(probe)
            # if probe happens to be valid it must decrypt consistently
            assert ope16.encrypt(m) == probe
        except CiphertextError:
            pass

    def test_out_of_range_rejected(self, ope16):
        with pytest.raises(CiphertextError):
            ope16.decrypt(1 << ope16.params.ciphertext_bits)


class TestDegenerateAndLargeDomains:
    def test_zero_expansion_is_identity(self):
        ope = OPE(KEY, OpeParams(plaintext_bits=10, expansion_bits=0))
        assert all(ope.encrypt(v) == v for v in range(0, 1024, 37))

    def test_large_domain(self):
        ope = OPE(KEY, OpeParams(plaintext_bits=256))
        vals = [0, 1 << 128, (1 << 256) - 1]
        cts = [ope.encrypt(v) for v in vals]
        assert cts == sorted(cts)
        assert all(ope.decrypt(c) == v for v, c in zip(vals, cts))

    def test_hypergeometric_split_order(self):
        ope = OPE(
            KEY, OpeParams(plaintext_bits=12, expansion_bits=6, split="hypergeometric")
        )
        vals = list(range(0, 4096, 173))
        cts = [ope.encrypt(v) for v in vals]
        assert cts == sorted(cts)
        assert len(set(cts)) == len(cts)

    def test_hypergeometric_decrypt(self):
        ope = OPE(
            KEY, OpeParams(plaintext_bits=10, expansion_bits=4, split="hypergeometric")
        )
        for v in (0, 17, 512, 1023):
            assert ope.decrypt(ope.encrypt(v)) == v


def _walk(ope, m):
    """The binary descent :meth:`OPE.encrypt` runs at a nonzero expansion."""
    p = ope.params
    dlo, dhi, rlo, rhi = 0, p.domain_size - 1, 0, p.range_size - 1
    while dlo < dhi:
        dmid = (dlo + dhi) // 2
        rmid = ope._split_point(dlo, dhi, rlo, rhi)
        if m <= dmid:
            dhi, rhi = dmid, rmid
        else:
            dlo, rlo = dmid + 1, rmid + 1
    return ope._leaf_value(dlo, rlo, rhi)


class TestZeroExpansion:
    """At ``expansion_bits == 0`` the range is the domain, every split is
    forced, and encrypt/decrypt return their input without walking."""

    OPE64 = OPE(KEY, OpeParams(plaintext_bits=64, expansion_bits=0))
    HYPER = OPE(
        KEY,
        OpeParams(plaintext_bits=12, expansion_bits=0, split="hypergeometric"),
    )

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    @settings(max_examples=60, deadline=None)
    def test_identity_at_64_bits(self, m):
        assert self.OPE64.encrypt(m) == m == _walk(self.OPE64, m)
        assert self.OPE64.decrypt(m) == m

    @given(st.integers(min_value=0, max_value=(1 << 12) - 1))
    @settings(max_examples=60, deadline=None)
    def test_identity_under_the_hypergeometric_split(self, m):
        assert self.HYPER.encrypt(m) == m == _walk(self.HYPER, m)
        assert self.HYPER.decrypt(m) == m

    def test_same_range_checks_span_and_level_count(self):
        from repro.obs.instrument import counting
        from repro.obs.trace import tracing

        with pytest.raises(ParameterError):
            self.OPE64.encrypt(1 << 64)
        with pytest.raises(CiphertextError):
            self.OPE64.decrypt(1 << 64)
        with tracing("run") as tracer, counting() as ops:
            self.OPE64.encrypt(5)
            self.OPE64.decrypt(5)
        assert ops.get("ope_level") == 2 * 64
        assert [s.name for s in tracer.root.children] == [
            "ope.encrypt",
            "ope.decrypt",
        ]
        assert all(s.ops == {"ope_level": 64} for s in tracer.root.children)


class TestAdaptiveOPE:
    def test_low_entropy_gets_more_expansion(self):
        low = AdaptiveOPE.for_entropy(KEY, 64, measured_entropy=8.0)
        high = AdaptiveOPE.for_entropy(KEY, 64, measured_entropy=60.0)
        assert low.params.expansion_bits > high.params.expansion_bits

    def test_still_order_preserving(self):
        ope = AdaptiveOPE.for_entropy(KEY, 32, measured_entropy=10.0)
        vals = [0, 5, 1 << 20, (1 << 32) - 1]
        cts = [ope.encrypt(v) for v in vals]
        assert cts == sorted(cts)

    def test_entropy_validation(self):
        with pytest.raises(ParameterError):
            AdaptiveOPE.for_entropy(KEY, 16, measured_entropy=-1)
        with pytest.raises(ParameterError):
            AdaptiveOPE.for_entropy(KEY, 16, measured_entropy=17)


def _cdf_reference(k, total, good, draws):
    """CDF up to ``k`` by direct log-gamma PMF summation."""
    lo = max(0, draws - (total - good))
    return sum(
        math.exp(_hypergeometric_logpmf(j, total, good, draws))
        for j in range(lo, k + 1)
    )


class TestHypergeometricRecurrence:
    """The ratio-recurrence PPF still inverts the log-gamma CDF.

    The recurrence and a per-step log-gamma walk differ by float ULPs, so
    when ``u`` lands within rounding distance of a CDF jump the two walks
    may legitimately stop one step apart; the robust statement is the
    quantile bracket ``CDF(k-1) < u <= CDF(k)`` up to accumulated rounding.
    """

    EPS = 1e-9

    @given(
        st.integers(min_value=2, max_value=4000),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_recurrence_inverts_lgamma_cdf(self, total, u, seed):
        rnd = random.Random(seed)
        good = rnd.randint(1, total - 1)
        draws = rnd.randint(1, total - 1)
        lo = max(0, draws - (total - good))
        hi = min(draws, good)
        k = _hypergeometric_ppf(u, total, good, draws)
        assert lo <= k <= hi
        assert _cdf_reference(k, total, good, draws) + self.EPS >= u
        if k > lo:
            assert _cdf_reference(k - 1, total, good, draws) < u + self.EPS

    def test_support_endpoints(self):
        # u = 0 maps to the lower support end
        assert _hypergeometric_ppf(0.0, 100, 30, 40) == 0
        # draws exceed the bad pool: the lower support end is positive
        assert _hypergeometric_ppf(0.0, 10, 8, 9) == 7
        # u = 1 lands where the accumulated mass reaches 1.0 in floats,
        # which is within the support by construction
        assert _hypergeometric_ppf(1.0, 100, 30, 40) <= 30
