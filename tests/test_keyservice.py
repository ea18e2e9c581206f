"""Tests for the networked OPRF key service and the remote keygen client."""

import pytest

from repro.client.remote_keygen import RemoteKeygenClient
from repro.core.keygen import ProfileKeygen
from repro.core.profile import Profile, ProfileSchema
from repro.errors import ProtocolError
from repro.net.channel import SecureChannel
from repro.net.messages import QueryRequest, decode_message
from repro.net.oprf_messages import (
    OprfKeyInfo,
    OprfKeyInfoRequest,
    OprfRequest,
    OprfResponse,
)
from repro.net.transport import InMemoryNetwork
from repro.rs.fuzzy import FuzzyExtractor, FuzzyParams
from repro.server.keyservice import KeyGenService, RateLimitExceeded
from repro.utils.rand import SystemRandomSource
from repro.utils.serial import FieldWriter

SCHEMA = ProfileSchema.uniform(["a", "b", "c", "d", "e", "f"], 1 << 16)
PARAMS = FuzzyParams(num_attributes=6, theta=8)


@pytest.fixture(scope="module")
def service(oprf_server):
    return KeyGenService(oprf_server=oprf_server, max_requests_per_window=5)


def make_link():
    network = InMemoryNetwork()
    client_end = network.endpoint("phone")
    service_end = network.endpoint("keyservice")
    return SecureChannel.pair(client_end, service_end, b"kdf-session")


def pump(service, channel, client="phone", now=0):
    """Serve exactly one pending request."""
    message = channel.recv()
    response = service.handle_message(client, message, now=now)
    channel.send(response)


class TestMessages:
    def test_roundtrips(self):
        for msg in (
            OprfRequest(request_id=1, blinded=12345),
            OprfResponse(request_id=1, evaluated=999),
            OprfKeyInfoRequest(request_id=2),
            OprfKeyInfo(request_id=2, modulus=15, exponent=65537),
        ):
            assert decode_message(msg.encode()) == msg

    @pytest.mark.parametrize("tag", [20, 21])
    def test_retired_batch_tags_are_refused(self, tag):
        # a well-formed one-element frame of the retired batched round:
        # request id, count, value
        frame = (
            FieldWriter().write_int(tag).write_int(1).write_int(1).write_int(5)
        )
        with pytest.raises(ProtocolError, match=f"unknown message tag {tag}"):
            decode_message(frame.getvalue())


class TestKeyGenService:
    def test_key_info(self, service, oprf_server):
        info = service.handle_message(
            "c1", OprfKeyInfoRequest(request_id=1)
        )
        assert isinstance(info, OprfKeyInfo)
        assert info.modulus == oprf_server.public_key.n

    def test_evaluation_matches_direct(self, oprf_server):
        service = KeyGenService(oprf_server=oprf_server)
        blinded = 0x1234567
        response = service.handle_message(
            "c1", OprfRequest(request_id=9, blinded=blinded)
        )
        assert response.evaluated == oprf_server.evaluate_blinded(blinded)

    def test_rate_limit_enforced(self, oprf_server):
        service = KeyGenService(
            oprf_server=oprf_server,
            max_requests_per_window=3,
            window_seconds=100,
        )
        for i in range(3):
            service.handle_message(
                "attacker", OprfRequest(request_id=i, blinded=7), now=0
            )
        with pytest.raises(RateLimitExceeded):
            service.handle_message(
                "attacker", OprfRequest(request_id=99, blinded=7), now=50
            )
        assert service.rejections == 1

    def test_rate_limit_per_client(self, oprf_server):
        service = KeyGenService(
            oprf_server=oprf_server, max_requests_per_window=1
        )
        service.handle_message("a", OprfRequest(request_id=1, blinded=7))
        # a different client still has budget
        service.handle_message("b", OprfRequest(request_id=1, blinded=7))
        with pytest.raises(RateLimitExceeded):
            service.handle_message("a", OprfRequest(request_id=2, blinded=7))

    def test_window_resets(self, oprf_server):
        service = KeyGenService(
            oprf_server=oprf_server,
            max_requests_per_window=1,
            window_seconds=10,
        )
        service.handle_message("a", OprfRequest(request_id=1, blinded=7), now=0)
        service.handle_message("a", OprfRequest(request_id=2, blinded=7), now=11)
        assert service.evaluations_served == 2

    def test_remaining_budget(self, oprf_server):
        service = KeyGenService(
            oprf_server=oprf_server, max_requests_per_window=4
        )
        assert service.remaining_budget("x") == 4
        service.handle_message("x", OprfRequest(request_id=1, blinded=7))
        assert service.remaining_budget("x") == 3

    def test_rejects_foreign_messages(self, service):
        with pytest.raises(ProtocolError):
            service.handle_message(
                "c1", QueryRequest(query_id=1, timestamp=0, user_id=1)
            )


class TestRemoteKeygen:
    def test_remote_matches_local_derivation(self, oprf_server):
        service = KeyGenService(oprf_server=oprf_server)
        client_ch, service_ch = make_link()
        rng = SystemRandomSource(seed=401)
        remote = RemoteKeygenClient(PARAMS, client_ch, rng=rng)

        # fetch parameters
        rid = remote.request_public_key()
        pump(service, service_ch)
        remote.receive_public_key(rid)

        # build an anchored profile so local/remote compare exactly
        fx = FuzzyExtractor(PARAMS)
        cw = fx.random_codeword(rng)
        profile = Profile(
            5, SCHEMA, tuple(fx.codeword_center_values(cw, 1 << 16))
        )

        state = remote.begin_derivation(profile)
        pump(service, service_ch)
        remote_key = remote.finish_derivation(state)

        local = ProfileKeygen(PARAMS, oprf_server, rng=rng)
        local_key = local.derive(profile)
        assert remote_key.key == local_key.key
        assert remote_key.index == local_key.index

    def test_public_key_required_first(self, oprf_server):
        client_ch, _ = make_link()
        remote = RemoteKeygenClient(PARAMS, client_ch)
        profile = Profile(1, SCHEMA, tuple([100] * 6))
        with pytest.raises(ProtocolError):
            remote.begin_derivation(profile)

    def test_mismatched_response_id_rejected(self, oprf_server):
        service = KeyGenService(oprf_server=oprf_server)
        client_ch, service_ch = make_link()
        rng = SystemRandomSource(seed=402)
        remote = RemoteKeygenClient(PARAMS, client_ch, rng=rng)
        rid = remote.request_public_key()
        pump(service, service_ch)
        remote.receive_public_key(rid)

        profile = Profile(1, SCHEMA, tuple([100] * 6))
        state = remote.begin_derivation(profile)
        request = service_ch.recv()
        # answer with a wrong request id
        service_ch.send(
            OprfResponse(
                request_id=request.request_id + 7,
                evaluated=oprf_server.evaluate_blinded(request.blinded),
            )
        )
        with pytest.raises(ProtocolError):
            remote.finish_derivation(state)

    def test_blinded_values_unlinkable(self, oprf_server):
        """Two derivations of the same profile send different blinded values."""
        service = KeyGenService(oprf_server=oprf_server)
        client_ch, service_ch = make_link()
        rng = SystemRandomSource(seed=403)
        remote = RemoteKeygenClient(PARAMS, client_ch, rng=rng)
        rid = remote.request_public_key()
        pump(service, service_ch)
        remote.receive_public_key(rid)

        profile = Profile(1, SCHEMA, tuple([321] * 6))
        seen = []
        for _ in range(2):
            state = remote.begin_derivation(profile)
            request = service_ch.recv()
            seen.append(request.blinded)
            service_ch.send(
                OprfResponse(
                    request_id=request.request_id,
                    evaluated=oprf_server.evaluate_blinded(request.blinded),
                )
            )
            remote.finish_derivation(state)
        assert seen[0] != seen[1]
