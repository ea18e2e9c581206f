"""Figures 5(a)-(c): server-side computation cost vs plaintext size.

* **PM** — the S-MATCH server's online work per query: filter the querier's
  key group, compute Definition-4 rank sums, sort, and window out the k
  nearest (Algorithm Match).  This touches only integer comparisons on OPE
  ciphertexts, so it is nearly flat in k.
* **homoPM** — the baseline's online work per query: one homomorphic
  distance evaluation per stored user (d ciphertext exponentiations and
  multiplications each) under a modulus that grows with k.

The paper's observation — homoPM's online cost grows with both the user
count and the plaintext size while PM stays orders of magnitude below —
falls out directly.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence

from repro.datasets.schema import DatasetSpec
from repro.experiments.common import (
    PLAINTEXT_SIZES,
    ExperimentResult,
    build_population,
    build_scheme,
)
from repro.experiments.fig4cde import DATASETS, build_homopm
from repro.server.storage import ProfileStore

__all__ = ["run", "server_costs_ms"]


def server_costs_ms(
    spec: DatasetSpec,
    plaintext_bits: int,
    num_users: int = 20,
    theta: int = 8,
    seed: int = 4,
    repeats: Optional[int] = None,
) -> Dict[str, float]:
    """Measured per-query server cost (ms) of PM and homoPM for one k."""
    if repeats is None:
        repeats = 3 if plaintext_bits <= 512 else 1
    pop = build_population(spec, theta=theta, seed=seed)
    users = pop.generate(num_users)
    profiles = [u.profile for u in users]

    # --- PM: Algorithm Match over the stored ciphertexts ---
    scheme = build_scheme(
        spec,
        theta=theta,
        plaintext_bits=plaintext_bits,
        seed=seed,
        schema=pop.schema,
    )
    uploads, _ = scheme.enroll_population(profiles)
    store = ProfileStore()
    for payload in uploads.values():
        store.put(payload)
    querier = profiles[0].user_id

    def pm_once() -> None:
        store.invalidate()  # cold path: EXTRA + SORT + FIND each query
        store.match(querier, 5)

    start = time.perf_counter()
    for _ in range(repeats):
        pm_once()
    pm_ms = (time.perf_counter() - start) / repeats * 1e3

    # --- homoPM: per-user homomorphic distance evaluations.  The online
    # cost is exactly (num_users - 1) independent per-candidate evaluations,
    # so we time a small sample of candidates and scale — the sample cost is
    # measured, the linearity is structural (match_all is a plain loop). ---
    homo = build_homopm(len(pop.schema), plaintext_bits, seed)
    limit = 1 << plaintext_bits
    values = [v % limit for v in profiles[0].values]
    sample = {
        p.user_id: [v % limit for v in p.values]
        for p in profiles[1 : 1 + min(3, num_users - 1)]
    }
    query = homo.prepare_query(values)

    start = time.perf_counter()
    for _ in range(repeats):
        homo.match_all(query, sample, blind=True)
    per_pair_ms = (time.perf_counter() - start) / repeats / len(sample) * 1e3
    homo_ms = per_pair_ms * (num_users - 1)

    return {"PM": pm_ms, "homoPM": homo_ms}


def run(
    dataset: str,
    sizes: Sequence[int] = PLAINTEXT_SIZES,
    num_users: int = 20,
    theta: int = 8,
    seed: int = 4,
) -> ExperimentResult:
    """Run the experiment and return its result table."""
    spec = DATASETS[dataset]
    result = ExperimentResult(
        name=f"Fig. 5(a/b/c): server computation cost — {dataset}",
        columns=["plaintext size (bit)", "PM (ms)", "homoPM (ms)"],
        notes=(
            f"Per query, {num_users} stored users; wall-clock on this "
            "machine — compare shapes, not constants."
        ),
    )
    for k in sizes:
        costs = server_costs_ms(
            spec, k, num_users=num_users, theta=theta, seed=seed
        )
        result.add_row(
            **{
                "plaintext size (bit)": k,
                "PM (ms)": costs["PM"],
                "homoPM (ms)": costs["homoPM"],
            }
        )
    return result
