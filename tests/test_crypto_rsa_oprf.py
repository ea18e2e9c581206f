"""Tests for RSA and the RSA-OPRF protocol."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.fixtures import fixed_rsa_keypair
from repro.crypto.oprf import RsaOprfClient, RsaOprfServer
from repro.crypto.rsa import RSAKeyPair, RSAPublicKey
from repro.errors import CiphertextError, CryptoError, ParameterError
from repro.utils.rand import SystemRandomSource


@pytest.fixture(scope="module")
def keypair():
    return fixed_rsa_keypair(512)


class TestRsa:
    def test_roundtrip(self, keypair):
        m = 123456789
        assert keypair.raw_decrypt(keypair.public.raw_encrypt(m)) == m

    @given(st.integers(min_value=0, max_value=2**200))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_random(self, keypair, m):
        m %= keypair.public.n
        assert keypair.raw_decrypt(keypair.public.raw_encrypt(m)) == m

    def test_out_of_range_rejected(self, keypair):
        with pytest.raises(CiphertextError):
            keypair.public.raw_encrypt(keypair.public.n)
        with pytest.raises(CiphertextError):
            keypair.raw_decrypt(-1)

    def test_generate_bit_length(self):
        kp = RSAKeyPair.generate(bits=128, rng=SystemRandomSource(seed=8))
        assert kp.public.n.bit_length() == 128
        assert kp.public.modulus_bits == 128

    def test_from_primes_validates(self):
        with pytest.raises(ParameterError):
            RSAKeyPair.from_primes(13, 13)

    def test_public_key_validation(self):
        with pytest.raises(ParameterError):
            RSAPublicKey(n=10, e=65537)
        with pytest.raises(ParameterError):
            RSAPublicKey(n=15, e=4)

    def test_sign_raw_matches_decrypt(self, keypair):
        assert keypair.sign_raw(42) == keypair.raw_decrypt(42)


class TestOprf:
    @pytest.fixture(scope="class")
    def server(self, keypair):
        return RsaOprfServer(keypair=keypair)

    def test_consistency_across_blindings(self, server):
        rng = SystemRandomSource(seed=10)
        client = RsaOprfClient(server.public_key, rng=rng)
        out1 = client.evaluate(b"message", server)
        out2 = client.evaluate(b"message", server)
        assert out1 == out2

    def test_matches_unblinded_evaluation(self, server):
        client = RsaOprfClient(
            server.public_key, rng=SystemRandomSource(seed=11)
        )
        assert client.evaluate(b"m", server) == server.unblinded_evaluate(b"m")

    def test_different_inputs_differ(self, server):
        client = RsaOprfClient(
            server.public_key, rng=SystemRandomSource(seed=12)
        )
        assert client.evaluate(b"a", server) != client.evaluate(b"b", server)

    def test_blinding_hides_input(self, server):
        """Two blindings of the same message look unrelated to the server."""
        client = RsaOprfClient(
            server.public_key, rng=SystemRandomSource(seed=13)
        )
        s1 = client.blind(b"same message")
        s2 = client.blind(b"same message")
        assert s1.blinded != s2.blinded

    def test_blinded_value_is_uniformish(self, server):
        """The blinded value of fixed input equals h(m) * s^e: over random s
        it covers the group; spot-check it differs from the raw hash."""
        from repro.crypto.kdf import hash_to_range

        client = RsaOprfClient(
            server.public_key, rng=SystemRandomSource(seed=14)
        )
        hm = hash_to_range(b"oprf-input" + b"x", server.public_key.n)
        assert client.blind(b"x").blinded != hm

    def test_corrupted_response_detected(self, server):
        client = RsaOprfClient(
            server.public_key, rng=SystemRandomSource(seed=15)
        )
        state = client.blind(b"msg")
        response = server.evaluate_blinded(state.blinded)
        with pytest.raises(CryptoError):
            client.finalize(state, (response + 1) % server.public_key.n)

    def test_out_of_range_rejected(self, server):
        client = RsaOprfClient(
            server.public_key, rng=SystemRandomSource(seed=16)
        )
        state = client.blind(b"msg")
        with pytest.raises(ParameterError):
            client.finalize(state, server.public_key.n)
        with pytest.raises(ParameterError):
            server.evaluate_blinded(-1)

    def test_output_is_32_bytes(self, server):
        client = RsaOprfClient(
            server.public_key, rng=SystemRandomSource(seed=18)
        )
        assert len(client.evaluate(b"m", server)) == 32
