"""Tests for CTR mode and the encrypt-then-MAC composition."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.aes import AES
from repro.crypto.modes import (
    AeadCiphertext,
    EtMCipher,
    ctr_keystream,
    ctr_keystreams,
    ctr_xcrypt,
)
from repro.errors import IntegrityError, ParameterError
from repro.utils.rand import SystemRandomSource


class TestCtr:
    def test_nist_sp800_38a_ctr_vector(self):
        # NIST SP 800-38A F.5.1 CTR-AES128
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        counter = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
        pt = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
        ct = ctr_xcrypt(AES(key), counter, pt)
        assert ct.hex() == "874d6191b620e3261bef6864990db6ce"

    def test_keystream_length(self):
        cipher = AES(bytes(16))
        assert len(ctr_keystream(cipher, bytes(16), 33)) == 33
        assert len(ctr_keystream(cipher, bytes(16), 0)) == 0

    def test_counter_wraps(self):
        cipher = AES(bytes(16))
        ks = ctr_keystream(cipher, b"\xff" * 16, 32)
        assert len(ks) == 32

    def test_xcrypt_is_involution(self):
        cipher = AES(bytes(16))
        nonce = bytes(range(16))
        data = b"some data of arbitrary length!"
        assert ctr_xcrypt(cipher, nonce, ctr_xcrypt(cipher, nonce, data)) == data

    def test_bad_nonce_size(self):
        with pytest.raises(ParameterError):
            ctr_keystream(AES(bytes(16)), b"short", 10)
        with pytest.raises(ParameterError):
            ctr_keystreams(AES(bytes(16)), [(bytes(16), 3), (b"short", 0)])

    @given(
        st.lists(
            st.tuples(
                st.binary(min_size=16, max_size=16),
                st.integers(min_value=0, max_value=70),
            ),
            max_size=5,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_keystreams_equal_one_keystream_per_run(self, runs):
        cipher = AES(bytes(range(32)))
        assert ctr_keystreams(cipher, runs) == [
            ctr_keystream(cipher, nonce, length) for nonce, length in runs
        ]


class TestEtM:
    @given(st.binary(max_size=300), st.binary(max_size=32))
    @settings(max_examples=30, deadline=None)
    def test_seal_open_roundtrip(self, plaintext, aad):
        cipher = EtMCipher(b"master-key")
        rng = SystemRandomSource(seed=9)
        sealed = cipher.seal(plaintext, aad=aad, rng=rng)
        assert cipher.open(sealed, aad=aad) == plaintext

    def test_tampered_body_rejected(self):
        cipher = EtMCipher(b"master-key")
        sealed = cipher.seal(b"hello world", rng=SystemRandomSource(seed=1))
        bad = AeadCiphertext(
            iv=sealed.iv,
            body=bytes([sealed.body[0] ^ 1]) + sealed.body[1:],
            tag=sealed.tag,
        )
        with pytest.raises(IntegrityError):
            cipher.open(bad)

    def test_wrong_aad_rejected(self):
        cipher = EtMCipher(b"master-key")
        sealed = cipher.seal(b"data", aad=b"ctx1", rng=SystemRandomSource(seed=1))
        with pytest.raises(IntegrityError):
            cipher.open(sealed, aad=b"ctx2")

    def test_wrong_key_rejected(self):
        sealed = EtMCipher(b"key-a").seal(b"data", rng=SystemRandomSource(seed=1))
        with pytest.raises(IntegrityError):
            EtMCipher(b"key-b").open(sealed)

    def test_encode_decode(self):
        cipher = EtMCipher(b"master-key")
        sealed = cipher.seal(b"payload", rng=SystemRandomSource(seed=2))
        decoded = AeadCiphertext.decode(sealed.encode())
        assert decoded == sealed
        assert cipher.open(decoded) == b"payload"

    def test_decode_too_short(self):
        with pytest.raises(ParameterError):
            AeadCiphertext.decode(b"x" * 10)

    def test_wire_size(self):
        cipher = EtMCipher(b"master-key")
        sealed = cipher.seal(b"12345", rng=SystemRandomSource(seed=3))
        assert sealed.wire_size == 16 + 32 + 5
        assert len(sealed.encode()) == sealed.wire_size

    def test_fresh_iv_per_seal(self):
        cipher = EtMCipher(b"master-key")
        rng = SystemRandomSource(seed=4)
        a = cipher.seal(b"same", rng=rng)
        b = cipher.seal(b"same", rng=rng)
        assert a.iv != b.iv and a.body != b.body


def _variant(sealed: AeadCiphertext, kind: str) -> AeadCiphertext:
    """``sealed`` as is, or tampered or truncated the way ``kind`` names."""
    iv, body, tag = sealed.iv, sealed.body, sealed.tag
    if kind == "iv":
        iv = bytes([iv[0] ^ 1]) + iv[1:]
    elif kind == "tag":
        tag = tag[:-1] + bytes([tag[-1] ^ 0x80])
    elif kind == "body":
        body = bytes([body[0] ^ 1]) + body[1:] if body else b"\x00"
    elif kind == "truncated":
        if body:
            return AeadCiphertext.decode(sealed.encode()[:-1])
        tag = tag[:-1]
    return AeadCiphertext(iv=iv, body=body, tag=tag)


class TestOpenMany:
    """``open_many`` equals ``open`` per ciphertext, from one AES pass over
    the ciphertexts whose tag verified."""

    KINDS = ("valid", "empty", "iv", "tag", "body", "truncated")

    @given(
        st.lists(
            st.tuples(st.binary(max_size=70), st.sampled_from(KINDS)),
            max_size=6,
        ),
        st.binary(max_size=16),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_open_per_ciphertext(self, specs, aad):
        cipher = EtMCipher(b"master-key")
        rng = SystemRandomSource(seed=11)
        plaintexts = [b"" if kind == "empty" else pt for pt, kind in specs]
        sealed = [
            _variant(cipher.seal(pt, aad=aad, rng=rng), kind)
            for pt, (_, kind) in zip(plaintexts, specs)
        ]
        expected = [
            pt if kind in ("valid", "empty") else None
            for pt, (_, kind) in zip(plaintexts, specs)
        ]
        assert cipher.open_many(sealed, aad=aad) == expected
        for ct, want in zip(sealed, expected):
            if want is None:
                with pytest.raises(IntegrityError):
                    cipher.open(ct, aad=aad)
            else:
                assert cipher.open(ct, aad=aad) == want

    def test_one_pass_over_the_verified_ciphertexts(self, monkeypatch):
        from repro.obs.instrument import counting

        cipher = EtMCipher(b"master-key")
        rng = SystemRandomSource(seed=12)
        good = [cipher.seal(bytes(40), rng=rng) for _ in range(3)]
        bad = _variant(cipher.seal(bytes(40), rng=rng), "tag")
        passes = []
        real = AES.encrypt_runs

        def counted(self, runs):
            passes.append(list(runs))
            return real(self, runs)

        monkeypatch.setattr(AES, "encrypt_runs", counted)
        with counting() as c:
            opened = cipher.open_many([good[0], bad, good[1], good[2]])
        assert opened == [bytes(40), None, bytes(40), bytes(40)]
        # three bodies of three blocks each; nothing of the forged one
        assert [len(runs) for runs in passes] == [3]
        assert c.get("aes_block") == 9

    def test_no_pass_without_a_verified_body(self):
        from repro.obs.instrument import counting

        cipher = EtMCipher(b"master-key")
        rng = SystemRandomSource(seed=13)
        empty = cipher.seal(b"", rng=rng)
        forged = _variant(cipher.seal(b"x" * 20, rng=rng), "body")
        with counting() as c:
            assert cipher.open_many([]) == []
            assert cipher.open_many([empty, forged]) == [b"", None]
        assert c.get("aes_block") == 0
