"""Tests for the number-theory substrate."""

import pytest

from repro.errors import ParameterError
from repro.ntheory.groups import SchnorrGroup
from repro.ntheory.modular import crt_pair, lcm, modexp, modinv
from repro.ntheory.primes import (
    generate_prime,
    generate_safe_prime,
    is_probable_prime,
    next_prime,
)
from repro.utils.rand import SystemRandomSource


class TestModular:
    def test_modinv(self):
        assert modinv(3, 7) == 5
        assert (3 * modinv(3, 10**9 + 7)) % (10**9 + 7) == 1

    def test_modinv_not_invertible(self):
        with pytest.raises(ParameterError):
            modinv(4, 8)

    def test_modinv_errors_name_no_operand(self):
        # callers invert modulo secrets such as phi(N)
        a, m = 1234567 * 7654321, 7654321 * 1000003
        for modulus in (m, -m):
            with pytest.raises(ParameterError) as info:
                modinv(a, modulus)
            assert str(a) not in str(info.value)
            assert str(m) not in str(info.value)

    def test_crt(self):
        x = crt_pair(2, 3, 3, 5)
        assert x % 3 == 2 and x % 5 == 3

    def test_crt_requires_coprime(self):
        with pytest.raises(ParameterError):
            crt_pair(1, 4, 3, 6)

    def test_lcm(self):
        assert lcm(4, 6) == 12
        assert lcm(0, 5) == 0

    def test_modexp_counts_op(self):
        from repro.obs.instrument import counting

        with counting() as c:
            assert modexp(2, 10, 1000) == 24
        assert c.get("modexp") == 1


class TestPrimes:
    def test_small_primes(self):
        assert is_probable_prime(2)
        assert is_probable_prime(3)
        assert is_probable_prime(97)
        assert not is_probable_prime(1)
        assert not is_probable_prime(0)
        assert not is_probable_prime(561)  # Carmichael number
        assert not is_probable_prime(2047)  # strong pseudoprime base 2

    def test_known_large_prime(self):
        assert is_probable_prime(2**127 - 1)  # Mersenne prime
        assert not is_probable_prime(2**128 + 1)

    def test_generate_prime_properties(self):
        rng = SystemRandomSource(seed=2)
        p = generate_prime(96, rng)
        assert p.bit_length() == 96
        assert is_probable_prime(p)

    def test_generate_prime_too_small(self):
        with pytest.raises(ParameterError):
            generate_prime(2)

    def test_safe_prime(self):
        rng = SystemRandomSource(seed=2)
        p = generate_safe_prime(64, rng)
        assert is_probable_prime(p)
        assert is_probable_prime((p - 1) // 2)

    def test_next_prime(self):
        assert next_prime(1) == 2
        assert next_prime(2) == 3
        assert next_prime(14) == 17
        assert next_prime(89) == 97


class TestSchnorrGroup:
    def test_default_group_valid(self):
        g = SchnorrGroup.default()
        assert pow(g.g, g.q, g.p) == 1

    def test_generated_group(self):
        g = SchnorrGroup.generate(bits=64, rng=SystemRandomSource(seed=3))
        assert pow(g.g, g.q, g.p) == 1
        assert g.g not in (1, g.p - 1)

    def test_exponent_arithmetic(self):
        g = SchnorrGroup.default()
        a, b = 12345, 67890
        lhs = g.exp(g.power_of_g(a), b)
        rhs = g.exp(g.power_of_g(b), a)
        assert lhs == rhs  # DH consistency

    def test_mul_inv(self):
        g = SchnorrGroup.default()
        x = g.power_of_g(777)
        assert g.mul(x, g.inv(x)) == 1

    def test_element_bytes_fixed_width(self):
        g = SchnorrGroup.default()
        assert len(g.element_bytes(1)) == g.element_size
        with pytest.raises(ParameterError):
            g.element_bytes(g.p)

    def test_rejects_non_safe_prime(self):
        with pytest.raises(ParameterError):
            SchnorrGroup(p=97, g=4)  # 97 is prime but (97-1)/2 is not

    def test_random_exponent_in_range(self):
        g = SchnorrGroup.default()
        rng = SystemRandomSource(seed=4)
        for _ in range(5):
            e = g.random_exponent(rng)
            assert 1 <= e < g.q


class TestFixedBasePower:
    """``power_of_g`` reads a precomputed table; it must equal ``pow``."""

    @pytest.mark.parametrize(
        "group",
        [
            SchnorrGroup.default(),
            SchnorrGroup.generate(bits=48, rng=SystemRandomSource(seed=48)),
        ],
        ids=["default", "generated48"],
    )
    def test_matches_pow(self, group):
        q = group.q
        rng = SystemRandomSource(seed=49)
        exponents = [0, 1, q - 1, q, q + 1, -1, 1 << 600]
        exponents += [rng.randrange(0, 1 << 600) for _ in range(20)]
        for e in exponents:
            assert group.power_of_g(e) == pow(group.g, e % q, group.p)

    def test_counts_one_modexp(self):
        from repro.obs.instrument import counting

        with counting() as c:
            SchnorrGroup.default().power_of_g(12345)
        assert c.get("modexp") == 1

    def test_default_is_one_instance(self):
        assert SchnorrGroup.default() is SchnorrGroup.default()

    def test_pickled_group_compares_equal(self):
        import pickle

        group = SchnorrGroup.default()
        group.power_of_g(5)  # the table exists; it must not ride along
        restored = pickle.loads(pickle.dumps(group))
        assert restored == group
        assert hash(restored) == hash(group)
        assert restored.power_of_g(5) == group.power_of_g(5)
