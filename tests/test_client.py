"""Tests for the mobile client and device cost models."""

import pytest

from repro.client.client import MobileClient
from repro.client.device import DeviceProfile, NEXUS_ONE, PC_SERVER
from repro.errors import ParameterError, ProtocolError
from repro.net.channel import SecureChannel
from repro.net.messages import UploadMessage
from repro.net.transport import InMemoryNetwork
from repro.server.service import SMatchServer
from repro.obs.instrument import OpCounter, counting


class TestDeviceProfile:
    def test_modexp_cubic_scaling(self):
        assert NEXUS_ONE.modexp_ms(2048) == pytest.approx(
            NEXUS_ONE.modexp_ms_1024 * 8
        )

    def test_client_slower_than_server(self):
        assert NEXUS_ONE.modexp_ms_1024 > PC_SERVER.modexp_ms_1024

    def test_estimate_combines_counts(self):
        counter = OpCounter()
        counter.add("modexp", 2)
        counter.add("hash", 10)
        counter.add("aes_block", 5)
        est = NEXUS_ONE.estimate_ms(counter, modexp_bits=1024)
        expected = (
            2 * NEXUS_ONE.modexp_ms_1024
            + 10 * NEXUS_ONE.hash_ms
            + 5 * NEXUS_ONE.aes_block_ms
        )
        assert est == pytest.approx(expected)

    def test_paillier_charged_at_double_modulus(self):
        counter = OpCounter()
        counter.add("paillier_encrypt", 1)
        est = NEXUS_ONE.estimate_ms(counter, modexp_bits=1024)
        assert est == pytest.approx(NEXUS_ONE.modexp_ms(2048))

    def test_validation(self):
        with pytest.raises(ParameterError):
            DeviceProfile(
                name="bad",
                modexp_ms_1024=0,
                hash_ms=1,
                aes_block_ms=1,
                ope_level_ms=1,
            )
        with pytest.raises(ParameterError):
            NEXUS_ONE.modexp_ms(0)


class TestMobileClient:
    def make_connected(self, enrolled):
        scheme, users, uploads, keys = enrolled
        net = InMemoryNetwork()
        client_ch, server_ch = SecureChannel.pair(
            net.endpoint("phone"), net.endpoint("cloud"), b"session"
        )
        server = SMatchServer(query_k=3)
        client = MobileClient(users[0].profile, scheme, channel=client_ch)
        return client, server, server_ch, users

    def pump(self, server, server_ch):
        """Deliver pending client messages to the server, send responses."""
        while server_ch.pending():
            message = server_ch.recv()
            response = server.handle_message(message)
            if response is not None:
                server_ch.send(response)

    def test_upload_and_query_flow(self, enrolled):
        client, server, server_ch, users = self.make_connected(enrolled)
        client.upload()
        # enroll the rest directly so the server has a population
        scheme = client.scheme
        for u in users[1:]:
            payload, _ = scheme.enroll(u.profile)
            server.handle_upload(UploadMessage(payload=payload))
        self.pump(server, server_ch)
        assert server.uploads_accepted == len(users)

        client.send_query(timestamp=1000)
        self.pump(server, server_ch)
        outcome = client.receive_results()
        assert outcome.query_id == 1
        # all accepted matches verified under the client's own key
        assert set(outcome.accepted).isdisjoint(set(outcome.rejected))

    def test_query_ids_increment(self, enrolled):
        scheme, users, _, _ = enrolled
        client = MobileClient(users[0].profile, scheme)
        assert client.query(0).query_id == 1
        assert client.query(0).query_id == 2

    def test_key_lazily_generated(self, enrolled):
        scheme, users, _, _ = enrolled
        client = MobileClient(users[0].profile, scheme)
        key = client.key
        assert key is client.key  # cached

    def test_build_upload_binds_user(self, enrolled):
        scheme, users, _, _ = enrolled
        client = MobileClient(users[0].profile, scheme)
        payload = client.build_upload()
        assert payload.user_id == users[0].profile.user_id
        assert payload.auth.user_id == payload.user_id

    def test_build_upload_keeps_an_adopted_key(self, enrolled):
        scheme, users, _, keys = enrolled
        own = keys[users[0].profile.user_id]
        # a key from another key group, so a re-derived key would show
        adopted = next(k for k in keys.values() if k.index != own.index)
        client = MobileClient(users[0].profile, scheme, key=adopted)
        with counting() as ops:
            payload = client.build_upload()
        assert payload.key_index == adopted.index
        assert client.key is adopted
        assert ops.get("keygen") == 0

    def test_requires_channel(self, enrolled):
        scheme, users, _, _ = enrolled
        client = MobileClient(users[0].profile, scheme)
        with pytest.raises(ProtocolError):
            client.upload()
        with pytest.raises(ProtocolError):
            client.send_query(0)

    def test_verify_results_needs_key(self, enrolled):
        from repro.errors import SchemeError
        from repro.net.messages import QueryResult

        scheme, users, _, _ = enrolled
        client = MobileClient(users[0].profile, scheme)
        with pytest.raises(SchemeError):
            client.verify_results(
                QueryResult(query_id=1, timestamp=0, entries=())
            )

    def test_mismatched_entry_ids_rejected(self, enrolled):
        from repro.net.messages import QueryResult, ResultEntry

        scheme, users, uploads, keys = enrolled
        client = MobileClient(
            users[0].profile, scheme, key=keys[users[0].profile.user_id]
        )
        donor = uploads[users[1].profile.user_id]
        from repro.core.verification import AuthInfo

        entry = ResultEntry(
            user_id=donor.user_id + 1000,
            auth=AuthInfo(user_id=donor.user_id, sealed=donor.auth.sealed),
        )
        outcome = client.verify_results(
            QueryResult(query_id=1, timestamp=0, entries=(entry,))
        )
        assert outcome.rejected == (donor.user_id + 1000,)
        assert outcome.forgery_detected

    def test_one_auth_cipher_per_result(self, enrolled):
        from repro.net.messages import QueryResult, ResultEntry

        scheme, users, uploads, keys = enrolled
        uid = users[0].profile.user_id
        key = keys[uid]
        same_group = [
            other for other, k in keys.items() if k.index == key.index
        ]
        others = [other for other in keys if other not in same_group][:3]
        entries = tuple(
            ResultEntry(user_id=other, auth=uploads[other].auth)
            for other in same_group + others
        )
        # a key written straight into the client, as a harness that derived
        # it through the key service does
        client = MobileClient(users[0].profile, scheme)
        client._key = key
        with counting() as ops:
            outcome = client.verify_results(
                QueryResult(query_id=1, timestamp=0, entries=entries)
            )
        assert ops.get("aes_key_schedule") == 1
        assert ops.get("verify") == len(entries)
        assert outcome.accepted == tuple(same_group)
        assert outcome.rejected == tuple(others)
        assert [scheme.verify(e.auth, key) for e in entries] == [
            e.user_id in same_group for e in entries
        ]
        with counting() as ops:
            client.verify_results(
                QueryResult(query_id=2, timestamp=0, entries=())
            )
        assert ops.get("aes_key_schedule") == 0
