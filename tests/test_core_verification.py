"""Tests for the Auth/Vf verification protocol."""

import pytest

from repro.core.keygen import ProfileKey
from repro.core.verification import AuthInfo, Verifier
from repro.crypto.modes import AeadCiphertext
from repro.errors import ParameterError
from repro.utils.rand import SystemRandomSource


@pytest.fixture(scope="module")
def verifier():
    return Verifier()


@pytest.fixture(scope="module")
def key():
    return ProfileKey(key=b"p" * 32, index=b"q" * 32)


@pytest.fixture(scope="module")
def other_key():
    return ProfileKey(key=b"z" * 32, index=b"w" * 32)


@pytest.fixture
def prng():
    return SystemRandomSource(seed=71)


class TestAuthVf:
    def test_completeness(self, verifier, key, prng):
        """Same profile key => Vf accepts (theta-close users verify)."""
        secret = verifier.make_secret(prng)
        auth = verifier.auth(42, secret, key, rng=prng)
        assert verifier.verify(auth, key)

    def test_wrong_key_rejected(self, verifier, key, other_key, prng):
        secret = verifier.make_secret(prng)
        auth = verifier.auth(42, secret, key, rng=prng)
        assert not verifier.verify(auth, other_key)

    def test_id_binding(self, verifier, key, prng):
        """An authenticator spliced under a different claimed ID fails —
        the malicious-server swap attack."""
        secret = verifier.make_secret(prng)
        auth = verifier.auth(42, secret, key, rng=prng)
        spliced = AuthInfo(user_id=43, sealed=auth.sealed)
        assert not verifier.verify(spliced, key)

    def test_forged_bytes_rejected(self, verifier, key, prng):
        forged = AuthInfo(
            user_id=42,
            sealed=AeadCiphertext(
                iv=prng.randbytes(16),
                body=prng.randbytes(96),
                tag=prng.randbytes(32),
            ),
        )
        assert not verifier.verify(forged, key)

    def test_tampered_body_rejected(self, verifier, key, prng):
        secret = verifier.make_secret(prng)
        auth = verifier.auth(42, secret, key, rng=prng)
        tampered = AuthInfo(
            user_id=42,
            sealed=AeadCiphertext(
                iv=auth.sealed.iv,
                body=bytes([auth.sealed.body[0] ^ 1]) + auth.sealed.body[1:],
                tag=auth.sealed.tag,
            ),
        )
        assert not verifier.verify(tampered, key)

    def test_different_secrets_different_auth(self, verifier, key, prng):
        a = verifier.auth(42, verifier.make_secret(prng), key, rng=prng)
        b = verifier.auth(42, verifier.make_secret(prng), key, rng=prng)
        assert a.sealed.body != b.sealed.body
        assert verifier.verify(a, key) and verifier.verify(b, key)

    def test_invalid_user_id(self, verifier, key, prng):
        with pytest.raises(ParameterError):
            verifier.auth(0, 1234, key, rng=prng)

    def test_wire_size_accounts_overhead(self, verifier, key, prng):
        auth = verifier.auth(42, verifier.make_secret(prng), key, rng=prng)
        # element + 32-byte hash + AEAD overhead (16 IV + 32 tag)
        expected = verifier.group.element_size + 32 + 48
        assert auth.wire_size == expected

    def test_secret_stays_hidden(self, verifier, key, prng):
        """The plaintext inside ciph reveals p^s, not s (DL-hard)."""
        secret = verifier.make_secret(prng)
        auth = verifier.auth(42, secret, key, rng=prng)
        from repro.crypto.modes import EtMCipher

        plaintext = EtMCipher(key.subkey(b"auth")).open(auth.sealed)
        width = verifier.group.element_size
        t1 = int.from_bytes(plaintext[:width], "big")
        assert t1 == verifier.group.power_of_g(secret)
        assert secret.to_bytes(64, "big") not in plaintext
