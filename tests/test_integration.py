"""Integration tests: the full protocol across modules.

These drive the complete S-MATCH flow — clustered population, enrollment
over secure channels, server matching, client verification — and check the
end-to-end security and correctness properties the paper claims.
"""

import pytest

from repro.client.client import MobileClient
from repro.datasets import INFOCOM06, ClusteredPopulation
from repro.experiments.common import build_scheme
from repro.net.channel import SecureChannel
from repro.net.messages import QueryRequest, UploadMessage
from repro.net.transport import InMemoryNetwork
from repro.server.adversary import MaliciousBehavior, MaliciousServer
from repro.server.service import SMatchServer
from repro.utils.rand import SystemRandomSource


@pytest.fixture(scope="module")
def world():
    """A 40-user Infocom06 world with server and scheme."""
    rng = SystemRandomSource(seed=301)
    pop = ClusteredPopulation(INFOCOM06, theta=8, rng=rng)
    users = pop.generate(40)
    scheme = build_scheme(INFOCOM06, schema=pop.schema, seed=301)
    uploads, keys = scheme.enroll_population([u.profile for u in users])
    server = SMatchServer(query_k=5)
    for payload in uploads.values():
        server.handle_upload(UploadMessage(payload=payload))
    return pop, users, scheme, uploads, keys, server


class TestEndToEnd:
    def test_every_user_can_query(self, world):
        _, users, scheme, _, keys, server = world
        for user in users:
            uid = user.profile.user_id
            result = server.handle_query(
                QueryRequest(query_id=uid, timestamp=0, user_id=uid)
            )
            for entry in result.entries:
                # verified entries always share the querier's fuzzy key
                if scheme.verify(entry.auth, keys[uid]):
                    assert True

    def test_verified_matches_are_similar(self, world):
        """Completeness + soundness: Vf-accepted matches share the fuzzy
        key, i.e. their profiles are close (up to the RS decoding radius)."""
        _, users, scheme, uploads, keys, server = world
        by_id = {u.profile.user_id: u for u in users}
        for user in users[:15]:
            uid = user.profile.user_id
            result = server.handle_query(
                QueryRequest(query_id=uid, timestamp=0, user_id=uid)
            )
            for entry in result.entries:
                if scheme.verify(entry.auth, keys[uid]):
                    assert (
                        uploads[entry.user_id].key_index
                        == uploads[uid].key_index
                    )

    def test_cross_group_auth_never_verifies(self, world):
        _, users, scheme, uploads, keys, _ = world
        groups = {}
        for uid, payload in uploads.items():
            groups.setdefault(payload.key_index, []).append(uid)
        group_list = list(groups.values())
        if len(group_list) < 2:
            pytest.skip("single group")
        a = group_list[0][0]
        for other_group in group_list[1:3]:
            b = other_group[0]
            assert not scheme.verify(uploads[b].auth, keys[a])

    def test_server_learns_only_ciphertexts(self, world):
        """The stored state contains no raw attribute values."""
        pop, users, scheme, uploads, _, server = world
        stored = server.tier.export_store().all_profiles()
        for user in users:
            payload = stored[user.profile.user_id]
            for raw, ct in zip(user.profile.values, payload.chain):
                # raw values are small; OPE chain blocks are 64-bit mapped
                assert ct != raw

    def test_profile_drift_reupload(self, world):
        """A user whose profile drifts far re-uploads into a new group."""
        pop, users, scheme, uploads, keys, server = world
        user = users[0]
        drifted_values = tuple(
            min(v + 40 * (8 + 1), s.cardinality - 1)
            for v, s in zip(user.profile.values, pop.schema.attributes)
        )
        drifted = user.profile.with_values(drifted_values)
        payload, new_key = scheme.enroll(drifted)
        old_index = uploads[user.profile.user_id].key_index
        server.handle_upload(UploadMessage(payload=payload))
        stored = server.tier.export_store()
        assert stored.get(user.profile.user_id).key_index != old_index
        # restore original upload for other tests
        server.handle_upload(
            UploadMessage(payload=uploads[user.profile.user_id])
        )


class TestChannelledProtocol:
    def test_full_flow_over_secure_channels(self, world):
        pop, users, scheme, uploads, keys, _ = world
        rng = SystemRandomSource(seed=302)
        server = SMatchServer(query_k=5)
        network = InMemoryNetwork()
        server_endpoint = network.endpoint("server")

        sessions = []
        for user in users[:10]:
            endpoint = network.endpoint(f"c{user.profile.user_id}")
            key = rng.randbytes(32)
            client_ch = SecureChannel(endpoint, "server", key)
            server_ch = SecureChannel(server_endpoint, endpoint.name, key)
            client = MobileClient(user.profile, scheme, channel=client_ch)
            client.upload()
            server.handle_upload(server_ch.recv())
            sessions.append((client, server_ch))
        assert server.uploads_accepted == 10

        client, server_ch = sessions[0]
        client.send_query(timestamp=42)
        response = server.handle_message(server_ch.recv())
        server_ch.send(response)
        outcome = client.receive_results()
        assert set(outcome.accepted).isdisjoint(outcome.rejected)

    def test_network_byte_accounting(self, world):
        pop, users, scheme, _, _, _ = world
        rng = SystemRandomSource(seed=303)
        network = InMemoryNetwork()
        server_endpoint = network.endpoint("server")
        endpoint = network.endpoint("phone")
        key = rng.randbytes(32)
        client_ch = SecureChannel(endpoint, "server", key)
        client = MobileClient(users[0].profile, scheme, channel=client_ch)
        sent = client.upload()
        assert network.bytes_sent == sent
        assert network.messages_sent == 1


class TestMaliciousServerEndToEnd:
    @pytest.mark.parametrize(
        "behavior",
        [
            MaliciousBehavior.FAKE_USERS,
            MaliciousBehavior.FORGED_AUTH,
            MaliciousBehavior.SWAPPED_AUTH,
        ],
    )
    def test_all_forgeries_detected(self, world, behavior):
        _, users, scheme, uploads, keys, _ = world
        server = MaliciousServer(
            behavior, query_k=5, rng=SystemRandomSource(seed=304)
        )
        for payload in uploads.values():
            server.handle_upload(UploadMessage(payload=payload))
        detections = 0
        forgeries = 0
        for user in users[:10]:
            uid = user.profile.user_id
            result = server.handle_query(
                QueryRequest(query_id=uid, timestamp=0, user_id=uid)
            )
            if not result.entries:
                continue
            client = MobileClient(user.profile, scheme)
            client._key = keys[uid]
            outcome = client.verify_results(result)
            honest_group = {
                v
                for v, payload in uploads.items()
                if payload.key_index == uploads[uid].key_index and v != uid
            }
            fake_accepted = set(outcome.accepted) - honest_group
            assert not fake_accepted, "a forged entry passed verification"
            forgeries += 1
            if outcome.forgery_detected:
                detections += 1
        assert forgeries > 0
        assert detections == forgeries  # detection rate 1.0
