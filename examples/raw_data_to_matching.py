#!/usr/bin/env python3
"""From raw social data to private matches.

The paper's §V-A names three sources of profile data: user input (labels),
device capture (GPS), and behaviour analysis (keyword frequencies — the
Weibo interest definition).  This example starts from exactly that raw
material — strings, coordinates, post histories — builds profiles with
`repro.profiles`, and runs the private matching end to end.

Run:  python examples/raw_data_to_matching.py
"""

from repro.core.scheme import SMatch, SMatchParams
from repro.net.messages import QueryRequest, UploadMessage
from repro.profiles import (
    CategoricalEncoder,
    KeywordInterestEncoder,
    LocationGridEncoder,
    ProfileBuilder,
)
from repro.server.service import SMatchServer
from repro.utils.rand import SystemRandomSource

RAW_USERS = {
    1: ("Ada", "Ph.D.", (52.5200, 13.4050),  # Berlin
        ["synthesizers and techno all night", "techno techno techno",
         "modular synth build log"]),
    2: ("Ben", "Ph.D.", (52.5310, 13.3849),  # also Berlin
        ["new techno mix out now", "club night synth techno set"]),
    3: ("Chloe", "M.S.", (52.5105, 13.4200),  # Berlin again
        ["techno podcast episode", "synth jam", "techno!"]),
    4: ("Dan", "B.S.", (37.7749, -122.4194),  # San Francisco
        ["morning surf report", "surfboard wax review", "surf surf surf"]),
    5: ("Eve", "B.S.", (37.8044, -122.2712),  # Oakland
        ["weekend surf trip", "new surfboard day", "surf forecast"]),
}


def main() -> None:
    rng = SystemRandomSource(seed=77)

    builder = (
        ProfileBuilder()
        .add_categorical(
            "education",
            CategoricalEncoder(
                ["high school", "B.S.", "M.S.", "Ph.D."], spacing=6
            ),
        )
        .add_location("home", LocationGridEncoder(cells_per_axis=2048))
        .add_interest(
            "electronic_music",
            KeywordInterestEncoder(
                ["techno", "synth", "synthesizers", "modular"],
                max_level=63,
                counts_per_level=1,
            ),
        )
        .add_interest(
            "surfing",
            KeywordInterestEncoder(
                ["surf", "surfboard", "waves"], max_level=63,
                counts_per_level=1,
            ),
        )
    )

    scheme = SMatch(
        SMatchParams(schema=builder.schema, theta=8, plaintext_bits=64),
        rng=rng,
    )
    server = SMatchServer(query_k=2)

    names = {}
    keys = {}
    for uid, (name, degree, coords, posts) in RAW_USERS.items():
        profile = builder.build(uid, degree, coords, posts, posts)
        names[uid] = name
        payload, key = scheme.enroll(profile)
        keys[uid] = key
        server.handle_upload(UploadMessage(payload=payload))
        print(
            f"{name:>6}: education={degree!r:>14} "
            f"cells={profile.values[1]},{profile.values[2]} "
            f"techno={profile.value_of('electronic_music'):>2} "
            f"surf={profile.value_of('surfing'):>2} "
            f"-> group {payload.key_index.hex()[:8]}"
        )

    print()
    for uid in (1, 4):
        result = server.handle_query(
            QueryRequest(query_id=uid, timestamp=0, user_id=uid)
        )
        verified = [
            names[e.user_id]
            for e in result.entries
            if scheme.verify(e.auth, keys[uid])
        ]
        print(f"{names[uid]}'s verified matches: {verified}")


if __name__ == "__main__":
    main()
