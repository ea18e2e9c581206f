"""AES known-answer (FIPS-197) and property tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.aes import AES
from repro.errors import KeyError_, ParameterError

PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")


class TestKnownAnswers:
    """FIPS-197 Appendix C example vectors."""

    def test_aes128(self):
        cipher = AES(bytes(range(16)))
        ct = cipher.encrypt_block(PLAINTEXT)
        assert ct.hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"

    def test_aes192(self):
        cipher = AES(bytes(range(24)))
        ct = cipher.encrypt_block(PLAINTEXT)
        assert ct.hex() == "dda97ca4864cdfe06eaf70a0ec0d7191"

    def test_aes256(self):
        cipher = AES(bytes(range(32)))
        ct = cipher.encrypt_block(PLAINTEXT)
        assert ct.hex() == "8ea2b7ca516745bfeafc49904b496089"

    def test_aes128_appendix_b(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        pt = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        assert AES(key).encrypt_block(pt).hex() == "3925841d02dc09fbdc118597196a0b32"


class TestRoundtrip:
    @given(st.binary(min_size=16, max_size=16), st.sampled_from([16, 24, 32]))
    @settings(max_examples=40, deadline=None)
    def test_decrypt_inverts_encrypt(self, block, key_size):
        cipher = AES(bytes(range(key_size)))
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block

    def test_different_keys_different_ciphertexts(self):
        a = AES(b"\x00" * 16).encrypt_block(PLAINTEXT)
        b = AES(b"\x01" + b"\x00" * 15).encrypt_block(PLAINTEXT)
        assert a != b

    def test_rounds_by_key_size(self):
        assert AES(bytes(16)).rounds == 10
        assert AES(bytes(24)).rounds == 12
        assert AES(bytes(32)).rounds == 14


class TestValidation:
    def test_bad_key_size(self):
        with pytest.raises(KeyError_):
            AES(b"short")

    def test_bad_block_size(self):
        with pytest.raises(ParameterError):
            AES(bytes(16)).encrypt_block(b"tiny")
        with pytest.raises(ParameterError):
            AES(bytes(16)).decrypt_block(b"x" * 17)

    def test_counter_run_needs_a_block(self):
        with pytest.raises(ParameterError):
            AES(bytes(16)).encrypt_counters(0, 0)

    def test_counts_ops(self):
        from repro.obs.instrument import counting

        with counting() as c:
            AES(bytes(16)).encrypt_block(PLAINTEXT)
        assert c.get("aes_block") == 1


class TestSeveralRuns:
    """``encrypt_runs`` is its runs' ``encrypt_counters`` outputs, joined."""

    @given(
        st.sampled_from([16, 24, 32]),
        st.lists(
            st.tuples(
                st.sampled_from([8, 32, 64, 128]),
                st.integers(min_value=1, max_value=6),
                st.integers(min_value=1, max_value=9),
                st.integers(min_value=0, max_value=(1 << 128) - 1),
            ),
            min_size=1,
            max_size=5,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_concatenated_single_runs(self, key_size, specs):
        cipher = AES(bytes(range(5, 5 + key_size)))
        # each run starts `back` blocks below the carry out of its low
        # `low_bits` bits; at 128 bits that is the wrap of the counter
        runs = [
            ((high >> low_bits << low_bits) + (1 << low_bits) - back, blocks)
            for low_bits, back, blocks, high in specs
        ]
        assert cipher.encrypt_runs(runs) == b"".join(
            cipher.encrypt_counters(counter, n) for counter, n in runs
        )

    def test_counts_every_block_once(self):
        from repro.obs.instrument import counting

        cipher = AES(bytes(32))
        with counting() as c:
            cipher.encrypt_runs([(0, 2), ((1 << 128) - 1, 3)])
        assert c.get("aes_block") == 5

    def test_every_run_needs_a_block(self):
        with pytest.raises(ParameterError):
            AES(bytes(16)).encrypt_runs([])
        with pytest.raises(ParameterError):
            AES(bytes(16)).encrypt_runs([(0, 1), (7, 0)])
