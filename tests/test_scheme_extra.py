"""Scheme-level upload stability: re-enrollment keeps the key group and
re-randomizes the chain and the authenticator."""

import pytest

from repro.core.scheme import SMatch, SMatchParams
from repro.crypto.fixtures import fixed_rsa_keypair
from repro.crypto.oprf import RsaOprfServer
from repro.datasets import INFOCOM06, ClusteredPopulation
from repro.utils.rand import SystemRandomSource


@pytest.fixture(scope="module")
def enrolled_world():
    """An enrolled 24-user population."""
    rng = SystemRandomSource(seed=1100)
    pop = ClusteredPopulation(INFOCOM06, theta=8, rng=rng)
    users = pop.generate(24)
    scheme_rng = SystemRandomSource(seed=1101)
    scheme = SMatch(
        SMatchParams(schema=pop.schema, theta=8, plaintext_bits=64),
        oprf_server=RsaOprfServer(
            keypair=fixed_rsa_keypair(1024), rng=scheme_rng
        ),
        rng=scheme_rng,
    )
    uploads, keys = scheme.enroll_population([u.profile for u in users])
    return pop, users, scheme, uploads, keys


class TestUploadStability:
    def test_reenrollment_same_group(self, enrolled_world):
        """Re-enrolling an unchanged profile lands in the same key group
        (the chain ciphertexts differ — the one-to-N mapping is random —
        but the fuzzy key is deterministic)."""
        _, users, scheme, uploads, _ = enrolled_world
        profile = users[0].profile
        payload2, _ = scheme.enroll(profile)
        assert payload2.key_index == uploads[profile.user_id].key_index
        assert payload2.chain != uploads[profile.user_id].chain

    def test_auth_rerandomized_per_enrollment(self, enrolled_world):
        _, users, scheme, uploads, _ = enrolled_world
        profile = users[1].profile
        payload2, _ = scheme.enroll(profile)
        assert (
            payload2.auth.sealed.body
            != uploads[profile.user_id].auth.sealed.body
        )
