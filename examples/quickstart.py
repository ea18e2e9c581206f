#!/usr/bin/env python3
"""Quickstart: privacy-preserving profile matching in ~60 lines.

Builds a tiny mobile social service: a handful of users with social
profiles, an untrusted matching server, and one user who wants to find
people like her — without the server ever seeing a profile attribute.

Run:  python examples/quickstart.py
"""

from repro.core.profile import Profile, ProfileSchema
from repro.core.scheme import SMatch, SMatchParams
from repro.net.messages import QueryRequest, UploadMessage
from repro.server.service import SMatchServer
from repro.utils.rand import SystemRandomSource


def main() -> None:
    rng = SystemRandomSource(seed=2014)

    # 1. The shared profile format: every user fills the same attributes.
    schema = ProfileSchema.uniform(
        ["music", "sports", "food", "travel", "books", "movies"],
        cardinality=1 << 14,
    )

    # 2. Configure S-MATCH.  theta bounds "similar": profiles whose values
    #    all lie within theta of each other derive the same fuzzy key.
    scheme = SMatch(
        SMatchParams(schema=schema, theta=8, plaintext_bits=64), rng=rng
    )

    # 3. A small community: two taste clusters.  Fuzzy keygen quantizes
    #    values with step theta + 1 = 9, so we park each cluster's taste
    #    vector on bucket midpoints (9k + 4): members that jitter by up to
    #    +-4 stay in the same bucket and derive the same key.  (Realistic
    #    populations get this structure from repro.datasets.synthetic's
    #    codeword-anchored generator instead of by hand.)
    step = 9

    def midpoints(raw):
        return [(v // step) * step + step // 2 for v in raw]

    def user(uid, base, jitter):
        values = tuple(
            max(0, min(schema.attributes[i].cardinality - 1, base[i] + j))
            for i, j in enumerate(jitter)
        )
        return Profile(uid, schema, values)

    indie = midpoints([4000, 1200, 9000, 3000, 7000, 5000])
    metal = midpoints([12000, 9500, 2000, 11000, 800, 10000])
    alice = user(1, indie, [0, 1, -2, 3, 0, 1])
    bob = user(2, indie, [2, -1, 1, 0, 2, -3])
    carol = user(3, indie, [-3, 2, 0, -1, 1, 2])
    dave = user(4, metal, [1, 0, 2, -2, 0, 1])
    erin = user(5, metal, [0, 3, -1, 1, -2, 0])

    # 4. Everyone encrypts and uploads.  The server stores only OPE
    #    ciphertext chains, hashed key indexes, and sealed authenticators,
    #    and answers each query with up to query_k matches.
    server = SMatchServer(query_k=3)
    keys = {}
    for profile in (alice, bob, carol, dave, erin):
        payload, key = scheme.enroll(profile)
        keys[profile.user_id] = key
        server.handle_upload(UploadMessage(payload=payload))
        print(
            f"user {profile.user_id} uploaded: "
            f"chain head 0x{payload.chain[0]:x}..., "
            f"group {payload.key_index.hex()[:8]}"
        )

    # 5. Alice queries for matches and verifies every claimed result.
    result = server.handle_query(QueryRequest(query_id=1, timestamp=0, user_id=1))
    print(f"\nserver returned {len(result.entries)} candidate matches for Alice")
    for entry in result.entries:
        ok = scheme.verify(entry.auth, keys[1])
        print(f"  user {entry.user_id}: verification {'PASSED' if ok else 'FAILED'}")

    accepted = [
        e.user_id for e in result.entries if scheme.verify(e.auth, keys[1])
    ]
    assert set(accepted) <= {2, 3}, "matches must come from Alice's taste cluster"
    print(f"\nAlice's verified matches: {accepted} (Bob and Carol, not the metalheads)")


if __name__ == "__main__":
    main()
