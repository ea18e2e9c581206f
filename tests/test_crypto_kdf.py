"""Tests for hashing / KDF / PRF helpers."""

import hashlib
import hmac as hmac_mod

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.kdf import hash_to_int, hash_to_range, hkdf, prf, sha256
from repro.errors import ParameterError


class TestSha256:
    def test_matches_hashlib(self):
        assert sha256(b"abc") == hashlib.sha256(b"abc").digest()

    def test_concatenates_parts(self):
        assert sha256(b"ab", b"c") == sha256(b"abc")

    def test_counts_op(self):
        from repro.obs.instrument import counting

        with counting() as c:
            sha256(b"x")
        assert c.get("hash") == 1


class TestHkdf:
    def test_rfc5869_case_1(self):
        # RFC 5869 test case 1
        ikm = bytes.fromhex("0b" * 22)
        salt = bytes.fromhex("000102030405060708090a0b0c")
        info = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9")
        okm = hkdf(ikm, info=info, salt=salt, length=42)
        assert okm.hex() == (
            "3cb25f25faacd57a90434f64d0362f2a"
            "2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865"
        )

    def test_length_control(self):
        assert len(hkdf(b"ikm", length=100)) == 100

    def test_distinct_infos_diverge(self):
        assert hkdf(b"k", info=b"a") != hkdf(b"k", info=b"b")

    def test_invalid_length(self):
        with pytest.raises(ParameterError):
            hkdf(b"k", length=0)

    @given(st.binary(min_size=1, max_size=64))
    @settings(max_examples=20)
    def test_deterministic(self, ikm):
        assert hkdf(ikm, info=b"x") == hkdf(ikm, info=b"x")


class TestPrf:
    def test_is_hmac_sha256(self):
        assert prf(b"key", b"msg") == hmac_mod.new(
            b"key", b"msg", hashlib.sha256
        ).digest()

    def test_multi_part(self):
        assert prf(b"key", b"m", b"sg") == prf(b"key", b"msg")


class TestHashToInt:
    def test_bit_bound(self):
        for bits in (1, 8, 255, 256, 300, 1024):
            v = hash_to_int(b"data", bits)
            assert 0 <= v < (1 << bits)

    def test_deterministic(self):
        assert hash_to_int(b"x", 512) == hash_to_int(b"x", 512)

    def test_invalid_bits(self):
        with pytest.raises(ParameterError):
            hash_to_int(b"x", 0)

    @given(st.binary(max_size=64), st.integers(min_value=1, max_value=10**30))
    @settings(max_examples=40)
    def test_hash_to_range_bound(self, data, modulus):
        assert 0 <= hash_to_range(data, modulus) < modulus

    def test_hash_to_range_invalid(self):
        with pytest.raises(ParameterError):
            hash_to_range(b"x", 0)
