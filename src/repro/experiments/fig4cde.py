"""Figures 4(c)-(e): client-side computation cost vs plaintext size.

Three curves per dataset, exactly as the paper defines them:

* **PM** — the privacy-preserving matching pipeline on the client:
  Keygen (RSD + hash + RSA-OPRF) + InitData (entropy increase) + Enc
  (chaining + d OPE encryptions of k-bit blocks);
* **PM+V** — PM plus the verification protocol: Auth (group exponentiations
  + AES-CTR sealing) and Vf over the k = 5 query results;
* **homoPM** — the Paillier baseline's client work: encrypting the 2d
  query ciphertexts under a modulus sized for k-bit attributes, plus
  decrypting the returned distances.

All three are wall-clock measurements of real executions.  Absolute numbers
reflect this machine and pure Python; the reproduction targets are the
*shapes*: homoPM grows steeply with k (its modulus scales with k), PM is
keygen-dominated and flat at small k, and beyond a crossover the gap exceeds
one order of magnitude.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional, Sequence

from repro.baselines.homopm import HomoPM
from repro.crypto.fixtures import fixed_paillier_keypair
from repro.datasets import INFOCOM06, SIGCOMM09, WEIBO
from repro.datasets.schema import DatasetSpec
from repro.experiments.common import (
    PLAINTEXT_SIZES,
    ExperimentResult,
    build_population,
    build_scheme,
)
from repro.utils.rand import SystemRandomSource

__all__ = ["run", "client_costs_ms", "DATASETS"]

DATASETS = {"Infocom06": INFOCOM06, "Sigcomm09": SIGCOMM09, "Weibo": WEIBO}


def _time_ms(fn: Callable[[], object], repeats: int) -> float:
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - start) / repeats * 1e3


def client_costs_ms(
    spec: DatasetSpec,
    plaintext_bits: int,
    theta: int = 8,
    seed: int = 3,
    repeats: Optional[int] = None,
) -> Dict[str, float]:
    """Measured client cost (ms) of PM, PM+V, and homoPM for one k."""
    if repeats is None:
        repeats = 3 if plaintext_bits <= 512 else 1
    pop = build_population(spec, theta=theta, seed=seed)
    users = pop.generate(8)
    profile = users[0].profile
    scheme = build_scheme(
        spec,
        theta=theta,
        plaintext_bits=plaintext_bits,
        seed=seed,
        schema=pop.schema,
    )

    # PM: Keygen + InitData + Enc
    def pm_once() -> None:
        key = scheme.keygen(profile)
        mapped = scheme.init_data(profile)
        scheme.encrypt(profile, key, mapped)

    pm_ms = _time_ms(pm_once, repeats)

    # PM+V adds Auth and verification of 5 results.
    key = scheme.keygen(profile)
    others = [scheme.auth(u.profile, key) for u in users[1:6]]

    def pmv_extra_once() -> None:
        scheme.auth(profile, key)
        for auth_info in others:
            scheme.verify(auth_info, key)

    pmv_ms = pm_ms + _time_ms(pmv_extra_once, repeats)

    # homoPM client side: encrypt 2d values, then decrypt the k = 5 returned
    # distances (the server-side homomorphic pass is Fig. 5's metric).  The
    # ciphertexts fed to the decrypt timing are direct encryptions of
    # plausible distances — decryption cost does not depend on how the
    # ciphertext was produced.
    homo = build_homopm(len(pop.schema), plaintext_bits, seed)
    values = [v % (1 << plaintext_bits) for v in profile.values]
    rng = SystemRandomSource(seed=seed)
    returned = {
        i: homo.keypair.public.encrypt(i * 17 + 1, rng) for i in range(5)
    }
    prepare_ms = _time_ms(lambda: homo.prepare_query(values), repeats)
    decrypt_ms = _time_ms(lambda: homo.decrypt_distances(returned), repeats)
    homo_ms = prepare_ms + decrypt_ms

    return {"PM": pm_ms, "PM+V": pmv_ms, "homoPM": homo_ms}


def build_homopm(
    num_attributes: int, plaintext_bits: int, seed: int = 3
) -> HomoPM:
    """A homoPM instance using the cached fixed Paillier parameters."""
    rng = SystemRandomSource(seed=seed)
    modulus_bits = HomoPM.default_modulus_bits(num_attributes, plaintext_bits)
    return HomoPM(
        num_attributes=num_attributes,
        plaintext_bits=plaintext_bits,
        rng=rng,
        keypair=fixed_paillier_keypair(modulus_bits),
    )


def run(
    dataset: str,
    sizes: Sequence[int] = PLAINTEXT_SIZES,
    theta: int = 8,
    seed: int = 3,
) -> ExperimentResult:
    """Run the experiment and return its result table."""
    spec = DATASETS[dataset]
    result = ExperimentResult(
        name=f"Fig. 4(c/d/e): client computation cost — {dataset}",
        columns=["plaintext size (bit)", "PM (ms)", "PM+V (ms)", "homoPM (ms)"],
        notes="Wall-clock on this machine; compare shapes, not constants.",
    )
    for k in sizes:
        costs = client_costs_ms(spec, k, theta=theta, seed=seed)
        result.add_row(
            **{
                "plaintext size (bit)": k,
                "PM (ms)": costs["PM"],
                "PM+V (ms)": costs["PM+V"],
                "homoPM (ms)": costs["homoPM"],
            }
        )
    return result
