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

from typing import Dict, Sequence

from repro.crypto.fixtures import fixed_rsa_keypair
from repro.crypto.oprf import RsaOprfClient, RsaOprfServer
from repro.datasets import INFOCOM06
from repro.datasets.schema import DatasetSpec
from repro.experiments.common import ExperimentResult, build_population, build_scheme
from repro.net.oprf_messages import (
    BatchedBlindEvalRequest,
    BatchedBlindEvalResponse,
    OprfRequest,
    OprfResponse,
)
from repro.obs.instrument import counting
from repro.utils.rand import SystemRandomSource

__all__ = [
    "run",
    "run_batched_oprf",
    "pipeline_op_counts",
    "batched_oprf_round_bytes",
]


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


def batched_oprf_round_bytes(
    batch_size: int, seed: int = 6
) -> Dict[str, int]:
    """Measured wire bytes of ``batch_size`` OPRF evaluations, both shapes.

    Encodes the real messages of a full evaluation round under the fixed
    1024-bit RSA parameters: one :class:`OprfRequest`/:class:`OprfResponse`
    pair per input versus a single batched pair carrying all inputs.  The
    batched shape saves the per-message tag/request-id framing here, and —
    on a live :class:`~repro.net.channel.SecureChannel` — one AEAD
    nonce/tag/length envelope per avoided message on top.
    """
    rng = SystemRandomSource(seed)
    server = RsaOprfServer(keypair=fixed_rsa_keypair(1024))
    client = RsaOprfClient(server.public_key, rng=rng)
    blindings = [
        client.blind(b"batched-costmodel-%d" % i) for i in range(batch_size)
    ]
    evaluated = [server.evaluate_blinded(b.blinded) for b in blindings]
    per_message = 0
    for i, (blinding, value) in enumerate(zip(blindings, evaluated)):
        request = OprfRequest(request_id=i + 1, blinded=blinding.blinded)
        response = OprfResponse(request_id=i + 1, evaluated=value)
        per_message += len(request.encode()) + len(response.encode())
    batch_request = BatchedBlindEvalRequest(
        request_id=1, blinded=tuple(b.blinded for b in blindings)
    )
    batch_response = BatchedBlindEvalResponse(
        request_id=1, evaluated=tuple(evaluated)
    )
    batched = len(batch_request.encode()) + len(batch_response.encode())
    return {
        "batch_size": batch_size,
        "per_message_bytes": per_message,
        "batched_bytes": batched,
        "saved_bytes": per_message - batched,
        "messages_avoided": 2 * (batch_size - 1),
    }


def run_batched_oprf(
    batch_sizes: Sequence[int] = (1, 4, 16, 64), seed: int = 6
) -> ExperimentResult:
    """The batched-OPRF data point for the network cost model."""
    result = ExperimentResult(
        name="Batched OPRF round: wire bytes vs one message per user",
        columns=[
            "batch_size",
            "per_message_bytes",
            "batched_bytes",
            "saved_bytes",
            "messages_avoided",
        ],
        notes=(
            "Message payloads only; each avoided message also saves its "
            "secure-channel AEAD envelope."
        ),
    )
    for batch_size in batch_sizes:
        result.add_row(**batched_oprf_round_bytes(batch_size, seed=seed))
    return result


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
