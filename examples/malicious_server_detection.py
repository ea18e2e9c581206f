#!/usr/bin/env python3
"""Verification in action: catching a compromised matching server.

The paper's malicious-server model: a compromised server "does not follow
the designated protocol but returns fake profile matching results".  This
example runs the same query against an honest server and three forging
servers, and shows the client's Vf check rejecting every forged entry while
accepting honest ones.

Run:  python examples/malicious_server_detection.py
"""

from repro.client.client import MobileClient
from repro.datasets import SIGCOMM09, ClusteredPopulation
from repro.experiments.common import build_scheme
from repro.net.messages import QueryRequest, UploadMessage
from repro.server.adversary import MaliciousBehavior, MaliciousServer
from repro.server.service import SMatchServer
from repro.utils.rand import SystemRandomSource


def run_query(server, scheme, querier, keys):
    request = QueryRequest(query_id=1, timestamp=0, user_id=querier.user_id)
    result = server.handle_query(request)
    client = MobileClient(querier, scheme, key=keys[querier.user_id])
    return client.verify_results(result), result


def main() -> None:
    rng = SystemRandomSource(seed=13)
    population = ClusteredPopulation(SIGCOMM09, theta=8, rng=rng)
    users = population.generate(40)
    scheme = build_scheme(SIGCOMM09, schema=population.schema, seed=13)
    uploads, keys = scheme.enroll_population([u.profile for u in users])
    querier = users[0].profile

    servers = [("honest", SMatchServer(query_k=5))]
    for behavior in (
        MaliciousBehavior.FAKE_USERS,
        MaliciousBehavior.FORGED_AUTH,
        MaliciousBehavior.SWAPPED_AUTH,
    ):
        servers.append(
            (behavior.value, MaliciousServer(behavior, query_k=5, rng=rng))
        )

    for name, server in servers:
        for payload in uploads.values():
            server.handle_upload(UploadMessage(payload=payload))
        outcome, raw = run_query(server, scheme, querier, keys)
        print(
            f"{name:>12}: returned {len(raw.entries)} entries, "
            f"accepted {len(outcome.accepted)}, "
            f"rejected {len(outcome.rejected)}"
            + ("  <-- forgery detected!" if outcome.forgery_detected else "")
        )
        if name == "honest":
            assert not outcome.forgery_detected
        elif raw.entries:
            # every forged entry must fail verification
            assert not outcome.accepted, f"{name} forgeries slipped through"

    print(
        "\nThe verification protocol (reversed fuzzy commitment) rejected "
        "every forged result:\n"
        "  - fake_users:  authenticators sealed under foreign fuzzy keys\n"
        "  - forged_auth: fabricated bytes fail authenticated decryption\n"
        "  - swapped_auth: the hash binds p^(s*ID) to the claimed user ID"
    )


if __name__ == "__main__":
    main()
