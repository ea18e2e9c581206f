"""Batch enrollment determinism and the batched OPRF wire round.

The load-bearing property for ``enroll_population``: with a ``seed``, the
per-profile randomness is a pure function of ``(seed, user_id)``, so the
output is payload-for-payload identical for any backend, worker count,
chunking, or OPE cache configuration.
"""

import pytest

from repro.client.remote_keygen import RemoteKeygenClient
from repro.core.scheme import profile_enroll_seed
from repro.crypto.ope_cache import OpeNodeCache
from repro.datasets import INFOCOM06
from repro.errors import ParameterError, ProtocolError
from repro.experiments.common import build_population, build_scheme
from repro.net.channel import SecureChannel
from repro.net.oprf_messages import BatchedBlindEvalRequest
from repro.net.transport import InMemoryNetwork
from repro.parallel import ProcessBackend
from repro.server.keyservice import KeyGenService, RateLimitExceeded


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


class TestBatchedOprfWireRound:
    @pytest.fixture()
    def wire(self, population):
        pop, profiles = population
        scheme = _fresh_scheme(pop)
        service = KeyGenService(
            oprf_server=scheme.oprf_server, max_requests_per_window=8
        )
        network = InMemoryNetwork()
        client_ch = SecureChannel(
            network.endpoint("client"), "service", b"batch-test"
        )
        service_ch = SecureChannel(
            network.endpoint("service"), "client", b"batch-test"
        )
        remote = RemoteKeygenClient(scheme.params.fuzzy_params, client_ch)
        rid = remote.request_public_key()
        service_ch.send(service.handle_message("c1", service_ch.recv()))
        remote.receive_public_key(rid)
        return scheme, service, remote, service_ch, profiles

    def test_batch_round_matches_local_derivation(self, wire):
        scheme, service, remote, service_ch, profiles = wire
        batch = profiles[:4]
        state = remote.begin_batch_derivation(batch)
        service_ch.send(service.handle_message("c1", service_ch.recv()))
        keys = remote.finish_batch_derivation(state)
        assert len(keys) == len(batch)
        for profile, key in zip(batch, keys):
            assert key.key == scheme.keygen(profile).key
        # the whole batch crossed the wire as one message pair
        assert service.evaluations_served == len(batch)

    def test_over_budget_batch_rejected_whole(self, wire):
        scheme, service, remote, service_ch, profiles = wire
        oversized = profiles[:9]  # window allows 8
        state = remote.begin_batch_derivation(oversized)
        with pytest.raises(RateLimitExceeded):
            service.handle_message("c1", service_ch.recv())
        # all-or-nothing: the failed batch consumed no budget at all
        assert service.remaining_budget("c1") == 8
        state = remote.begin_batch_derivation(profiles[:8])
        service_ch.send(service.handle_message("c1", service_ch.recv()))
        assert len(remote.finish_batch_derivation(state)) == 8
        assert service.remaining_budget("c1") == 0

    def test_empty_batch_rejected_client_side(self, wire):
        _, _, remote, _, _ = wire
        with pytest.raises(ProtocolError):
            remote.begin_batch_derivation([])

    def test_empty_batch_rejected_on_the_wire(self):
        with pytest.raises(ProtocolError):
            BatchedBlindEvalRequest(request_id=1, blinded=())
