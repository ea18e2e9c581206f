"""Batch enrollment determinism.

The load-bearing property for ``enroll_population``: with a ``seed``, the
per-profile randomness is a pure function of ``(seed, user_id)``, so the
output is payload-for-payload identical for any backend, worker count,
chunking, or OPE cache configuration.
"""

import pytest

from repro.core.scheme import profile_enroll_seed
from repro.crypto.ope_cache import OpeNodeCache
from repro.datasets import INFOCOM06
from repro.errors import ParameterError
from repro.experiments.common import build_population, build_scheme
from repro.parallel import ProcessBackend


@pytest.fixture(scope="module")
def population():
    pop = build_population(INFOCOM06, seed=41)
    users = pop.generate(10)
    return pop, [u.profile for u in users]


def _fresh_scheme(pop, **kwargs):
    return build_scheme(INFOCOM06, schema=pop.schema, seed=41, **kwargs)


def _enroll_in_processes(pop, profiles, workers, **kwargs):
    with ProcessBackend(workers, mp_context="fork") as backend:
        return _fresh_scheme(pop).enroll_population(
            profiles, backend=backend, **kwargs
        )


def _assert_same_enrollment(result_a, result_b):
    uploads_a, keys_a = result_a
    uploads_b, keys_b = result_b
    assert set(uploads_a) == set(uploads_b)
    for uid in uploads_a:
        assert uploads_a[uid] == uploads_b[uid]
        assert keys_a[uid].key == keys_b[uid].key
        assert keys_a[uid].index == keys_b[uid].index


class TestSeededDeterminism:
    def test_workers_do_not_change_output(self, population):
        pop, profiles = population
        serial = _fresh_scheme(pop).enroll_population(
            profiles, backend="serial", seed=77
        )
        parallel = _enroll_in_processes(pop, profiles, 4, seed=77)
        _assert_same_enrollment(serial, parallel)

    def test_chunking_does_not_change_output(self, population):
        pop, profiles = population
        baseline = _fresh_scheme(pop).enroll_population(
            profiles, backend="serial", seed=77
        )
        chunked = _enroll_in_processes(
            pop, profiles, 3, seed=77, chunk_size=2
        )
        _assert_same_enrollment(baseline, chunked)

    def test_shared_ope_cache_does_not_change_output(self, population):
        pop, profiles = population
        cached = _fresh_scheme(
            pop,
            ope_expansion_bits=16,
            ope_cache=OpeNodeCache(capacity=512),
        ).enroll_population(profiles, backend="serial", seed=77, chunk_size=3)
        uncached = _fresh_scheme(
            pop, ope_expansion_bits=16, ope_cache=False
        ).enroll_population(profiles, backend="serial", seed=77)
        _assert_same_enrollment(cached, uncached)

    def test_profile_order_is_irrelevant_when_seeded(self, population):
        pop, profiles = population
        forward = _enroll_in_processes(pop, profiles, 2, seed=5)
        reversed_ = _enroll_in_processes(
            pop, list(reversed(profiles)), 2, seed=5
        )
        _assert_same_enrollment(forward, reversed_)

    def test_different_seeds_differ(self, population):
        pop, profiles = population
        a, _ = _fresh_scheme(pop).enroll_population(profiles, seed=1)
        b, _ = _fresh_scheme(pop).enroll_population(profiles, seed=2)
        assert any(a[uid] != b[uid] for uid in a)

    def test_enroll_seed_is_a_pure_function(self):
        assert profile_enroll_seed(7, 3) == profile_enroll_seed(7, 3)
        assert profile_enroll_seed(7, 3) != profile_enroll_seed(7, 4)
        assert profile_enroll_seed(7, 3) != profile_enroll_seed(8, 3)

    def test_parameter_validation(self, population):
        pop, profiles = population
        scheme = _fresh_scheme(pop)
        with pytest.raises(ParameterError):
            scheme.enroll_population(profiles, chunk_size=0)
        with pytest.raises(ParameterError):
            scheme.enroll_population(profiles, backend="vectorized")

    def test_legacy_sequential_path_unchanged(self, population, monkeypatch):
        # no backend and no seed must keep drawing from the instance RNG
        # exactly as the pre-batching loop did, whatever the environment
        monkeypatch.setenv("SMATCH_BACKEND", "process")
        pop, profiles = population
        batch = _fresh_scheme(pop).enroll_population(profiles)
        loop_scheme = _fresh_scheme(pop)
        loop = {}, {}
        for profile in profiles:
            payload, key = loop_scheme.enroll(profile)
            loop[0][profile.user_id] = payload
            loop[1][profile.user_id] = key
        _assert_same_enrollment(batch, loop)

