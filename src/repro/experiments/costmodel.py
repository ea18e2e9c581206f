"""Section VII-C cost-model verification.

The paper's analytic accounting:

* client: O(d) operations to increase entropy and chain; O(MN)-bounded OPE
  work; **d + 2 hash operations and 2 modular exponentiations** for profile
  key generation; one symmetric encryption + one decryption for
  verification;
* server: O(|V| log |V|) to sort a key group, O(log |V|) to search it.

We run the real pipeline under :func:`repro.obs.instrument.counting` and
check the recorded operation counts against those formulas (the hash count
uses our concrete hash-to-range construction, so the test asserts the
O(d) + O(1) structure: the count is affine in d and independent of k).
"""

from __future__ import annotations

from typing import Dict

from repro.datasets import INFOCOM06
from repro.datasets.schema import DatasetSpec
from repro.experiments.common import ExperimentResult, build_population, build_scheme
from repro.obs.instrument import counting

__all__ = ["run", "pipeline_op_counts"]


def pipeline_op_counts(
    spec: DatasetSpec = INFOCOM06,
    plaintext_bits: int = 64,
    theta: int = 8,
    seed: int = 6,
) -> Dict[str, Dict[str, int]]:
    """Operation counts of each client-side algorithm, by phase."""
    pop = build_population(spec, theta=theta, seed=seed)
    profile = pop.generate(2)[0].profile
    scheme = build_scheme(
        spec,
        theta=theta,
        plaintext_bits=plaintext_bits,
        seed=seed,
        schema=pop.schema,
    )
    phases: Dict[str, Dict[str, int]] = {}
    with counting() as c:
        key = scheme.keygen(profile)
    phases["keygen"] = c.as_dict()
    with counting() as c:
        mapped = scheme.init_data(profile)
    phases["init_data"] = c.as_dict()
    with counting() as c:
        scheme.encrypt(profile, key, mapped)
    phases["enc"] = c.as_dict()
    with counting() as c:
        auth_info = scheme.auth(profile, key)
    phases["auth"] = c.as_dict()
    with counting() as c:
        scheme.verify(auth_info, key)
    phases["vf"] = c.as_dict()
    return phases


def run() -> ExperimentResult:
    """Run the experiment and return its result table."""
    result = ExperimentResult(
        name="Section VII-C: operation counts per client algorithm",
        columns=["phase", "hash", "modexp", "aes_block", "ope_level", "entropy_map"],
    )
    phases = pipeline_op_counts()
    for phase, counts in phases.items():
        result.add_row(
            phase=phase,
            hash=counts.get("hash", 0),
            modexp=counts.get("modexp", 0),
            aes_block=counts.get("aes_block", 0),
            ope_level=counts.get("ope_level", 0),
            entropy_map=counts.get("entropy_map", 0),
        )
    return result
