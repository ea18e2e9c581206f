"""Tests for fuzzy profile-key generation."""

import pytest

from repro.core.keygen import ProfileKey, ProfileKeygen
from repro.core.profile import Profile, ProfileSchema
from repro.errors import ParameterError
from repro.rs.fuzzy import FuzzyExtractor, FuzzyParams
from repro.utils.rand import SystemRandomSource

SCHEMA = ProfileSchema.uniform(["a", "b", "c", "d", "e", "f"], 1 << 16)
PARAMS = FuzzyParams(num_attributes=6, theta=8)


@pytest.fixture(scope="module")
def keygen(oprf_server):
    return ProfileKeygen(PARAMS, oprf_server, rng=SystemRandomSource(seed=61))


@pytest.fixture(scope="module")
def anchored_profiles():
    rng = SystemRandomSource(seed=62)
    fx = FuzzyExtractor(PARAMS)
    cw = fx.random_codeword(rng)
    center = fx.codeword_center_values(cw, 1 << 16)
    near = [v + 3 for v in center]
    far = [v + 900 for v in center]
    return (
        Profile(1, SCHEMA, tuple(center)),
        Profile(2, SCHEMA, tuple(near)),
        Profile(3, SCHEMA, tuple(far)),
    )


class TestProfileKey:
    def test_sizes_enforced(self):
        with pytest.raises(ParameterError):
            ProfileKey(key=b"short", index=b"x" * 32)
        with pytest.raises(ParameterError):
            ProfileKey(key=b"x" * 32, index=b"short")

    def test_subkeys_are_purpose_bound(self):
        pk = ProfileKey(key=b"k" * 32, index=b"i" * 32)
        assert pk.subkey(b"ope") != pk.subkey(b"auth")
        assert pk.subkey(b"ope") == pk.subkey(b"ope")
        assert len(pk.subkey(b"chain")) == 32


class TestDerivation:
    def test_close_profiles_same_key(self, keygen, anchored_profiles):
        center, near, _ = anchored_profiles
        k1 = keygen.derive(center)
        k2 = keygen.derive(near)
        assert k1.key == k2.key
        assert k1.index == k2.index

    def test_far_profiles_different_key(self, keygen, anchored_profiles):
        center, _, far = anchored_profiles
        assert keygen.derive(center).key != keygen.derive(far).key

    def test_index_is_hash_of_key(self, keygen, anchored_profiles):
        from repro.crypto.kdf import sha256

        key = keygen.derive(anchored_profiles[0])
        assert key.index == sha256(b"smatch-key-index", key.key)

    def test_deterministic(self, keygen, anchored_profiles):
        center, _, _ = anchored_profiles
        assert keygen.derive(center).key == keygen.derive(center).key

    def test_key_material_without_oprf(self, keygen, anchored_profiles):
        """The raw K' differs from the OPRF-strengthened key — an offline
        attacker who guesses the profile cannot reproduce the final key."""
        center, _, _ = anchored_profiles
        k_prime = keygen.derive_from_values(center.values)
        final = keygen.derive(center)
        assert k_prime != final.key
        assert len(k_prime) == 32
