"""Tests for hashing / KDF / PRF helpers."""

import hashlib
import hmac as hmac_mod

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.kdf import hash_to_int, hash_to_range, hkdf, prf, sha256
from repro.errors import ParameterError
from repro.utils.mac import HmacSha256

#: RFC 4231 HMAC-SHA-256 test cases 1-4, 6 and 7 (case 5 truncates the
#: output); cases 6 and 7 use 131-byte keys, which are hashed first.
RFC4231 = [
    (b"\x0b" * 20, b"Hi There",
     "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"),
    (b"Jefe", b"what do ya want for nothing?",
     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"),
    (b"\xaa" * 20, b"\xdd" * 50,
     "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"),
    (bytes(range(1, 26)), b"\xcd" * 50,
     "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"),
    (b"\xaa" * 131,
     b"Test Using Larger Than Block-Size Key - Hash Key First",
     "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"),
    (b"\xaa" * 131,
     b"This is a test using a larger than block-size key and a larger "
     b"than block-size data. The key needs to be hashed before being "
     b"used by the HMAC algorithm.",
     "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"),
]


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


class TestHmacSha256:
    @pytest.mark.parametrize(
        "key, message, expected", RFC4231, ids=["1", "2", "3", "4", "6", "7"]
    )
    def test_rfc4231(self, key, message, expected):
        assert HmacSha256(key).mac(message).hex() == expected

    @given(st.binary(max_size=200), st.binary(max_size=300))
    @settings(max_examples=200)
    def test_equals_stdlib_hmac(self, key, message):
        assert HmacSha256(key).mac(message) == hmac_mod.new(
            key, message, hashlib.sha256
        ).digest()

    def test_reusable_across_messages(self):
        keyed = HmacSha256(b"key")
        first = keyed.mac(b"one")
        keyed.mac(b"two")
        assert keyed.mac(b"one") == first

    def test_key_must_be_bytes(self):
        with pytest.raises(ParameterError):
            HmacSha256("key")  # type: ignore[arg-type]


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
