"""Full three-party wire flow: key service + matching server + clients.

The complete deployment shape of docs/PROTOCOL.md: every client derives its
profile key over the wire from the rate-limited key service, enrolls with
the matching server over its own secure channel, queries, and verifies —
no in-process shortcuts anywhere on the hot path.
"""

import pytest

from repro.client.client import MobileClient
from repro.client.remote_keygen import RemoteKeygenClient
from repro.core.scheme import EncryptedProfile
from repro.datasets import INFOCOM06, ClusteredPopulation
from repro.experiments.common import build_scheme
from repro.net.channel import SecureChannel
from repro.net.messages import UploadMessage
from repro.net.transport import InMemoryNetwork
from repro.server.keyservice import KeyGenService
from repro.server.service import SMatchServer
from repro.utils.rand import SystemRandomSource


@pytest.fixture(scope="module")
def deployment():
    rng = SystemRandomSource(seed=950)
    pop = ClusteredPopulation(INFOCOM06, theta=8, rng=rng)
    users = pop.generate(16)
    scheme = build_scheme(INFOCOM06, schema=pop.schema, seed=950)
    key_service = KeyGenService(
        oprf_server=scheme.oprf_server, max_requests_per_window=100
    )
    match_server = SMatchServer(query_k=5)
    network = InMemoryNetwork()
    ks_endpoint = network.endpoint("keyservice")
    ms_endpoint = network.endpoint("matchserver")
    return (
        rng,
        pop,
        users,
        scheme,
        key_service,
        match_server,
        network,
        ks_endpoint,
        ms_endpoint,
    )


def test_full_three_party_flow(deployment):
    (
        rng,
        pop,
        users,
        scheme,
        key_service,
        match_server,
        network,
        ks_endpoint,
        ms_endpoint,
    ) = deployment

    clients = {}
    for user in users:
        uid = user.profile.user_id
        # two secure channels per client: one to each service
        ks_ch_client = SecureChannel(
            network.endpoint(f"u{uid}-ks"), "keyservice", b"ks" + bytes([uid])
        )
        ks_ch_service = SecureChannel(
            ks_endpoint, f"u{uid}-ks", b"ks" + bytes([uid])
        )
        ms_ch_client = SecureChannel(
            network.endpoint(f"u{uid}-ms"), "matchserver", b"ms" + bytes([uid])
        )
        ms_ch_server = SecureChannel(
            ms_endpoint, f"u{uid}-ms", b"ms" + bytes([uid])
        )

        # --- key derivation over the wire ---
        remote = RemoteKeygenClient(
            scheme.params.fuzzy_params, ks_ch_client, rng=rng
        )
        rid = remote.request_public_key()
        ks_ch_service.send(
            key_service.handle_message(f"u{uid}", ks_ch_service.recv())
        )
        remote.receive_public_key(rid)
        state = remote.begin_derivation(user.profile)
        ks_ch_service.send(
            key_service.handle_message(f"u{uid}", ks_ch_service.recv())
        )
        key = remote.finish_derivation(state)

        # --- enrollment with the remotely-derived key ---
        chain = scheme.encrypt(user.profile, key)
        auth = scheme.verifier.auth(
            uid, scheme.verifier.make_secret(rng), key, rng=rng
        )
        payload = EncryptedProfile(
            user_id=uid, key_index=key.index, chain=chain, auth=auth
        )
        ms_ch_client.send(UploadMessage(payload=payload))
        match_server.handle_upload(ms_ch_server.recv())

        client = MobileClient(
            user.profile, scheme, channel=ms_ch_client, key=key
        )
        clients[uid] = (client, ms_ch_server)

    assert match_server.uploads_accepted == len(users)
    assert key_service.evaluations_served == len(users)

    # remote keys must agree with local derivation (same groups form)
    local_keys = {
        u.profile.user_id: scheme.keygen(u.profile) for u in users
    }
    for uid, (client, _) in clients.items():
        assert client.key.index == local_keys[uid].index

    # --- a query through the wire, verified end to end ---
    uid = users[0].profile.user_id
    client, server_ch = clients[uid]
    client.send_query(timestamp=5)
    response = match_server.handle_message(server_ch.recv())
    server_ch.send(response)
    outcome = client.receive_results()
    assert set(outcome.accepted).isdisjoint(outcome.rejected)
    # accepted matches share the querier's key group
    stored = match_server.tier.export_store()
    for matched in outcome.accepted:
        assert stored.get(matched).key_index == stored.get(uid).key_index
