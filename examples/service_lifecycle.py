#!/usr/bin/env python3
"""A week in the life of an S-MATCH deployment.

Simulates the paper's operational model — "each user v updates her encrypted
social profile on the untrusted server periodically" — over a drifting user
population: interests shift a little every tick, devices re-upload on their
period, and queries interleave.  The printout shows what a service operator
would watch: key-group structure, re-upload churn, and the precision of
verified matches holding up under drift.

Run:  python examples/service_lifecycle.py
"""

from repro.datasets import INFOCOM06
from repro.sim import MobileServiceSimulation, SimConfig


def main() -> None:
    config = SimConfig(
        num_users=40,
        steps=14,          # two "weeks" of ticks
        upload_period=4,   # re-upload every 4 ticks
        query_probability=0.3,
        drift_sigma=0.8,   # gentle interest drift per tick
        theta=8,
        seed=21,
    )
    sim = MobileServiceSimulation(INFOCOM06, config)
    print(
        f"{config.num_users} users enrolled into "
        f"{sim.server.tier.export_store().num_groups} key groups\n"
    )
    print("tick  uploads  moved  queries  verified  precision  groups  max")
    print("----  -------  -----  -------  --------  ---------  ------  ---")
    for _ in range(config.steps):
        m = sim.step()
        precision = (
            f"{m.match_precision:.2f}"
            if m.results_verified
            else "   -"
        )
        print(
            f"{m.step:>4}  {m.uploads:>7}  {m.group_changes:>5}  "
            f"{m.queries:>7}  {m.results_verified:>8}  {precision:>9}  "
            f"{m.num_groups:>6}  {m.largest_group:>3}"
        )

    summary = sim.summary()
    print(
        f"\nsummary: {summary['uploads']} re-uploads, "
        f"{summary['group_change_rate']:.1%} moved groups (drift churn), "
        f"{summary['verified_results']} verified matches at "
        f"{summary['match_precision']:.1%} precision"
    )
    assert summary["match_precision"] > 0.8


if __name__ == "__main__":
    main()
