"""Ablations of the design choices DESIGN.md calls out.

1. **Chaining off** — frequency analysis against the landmark attribute
   succeeds on a fixed-position column; random-order chaining pushes the
   attack to chance level.
2. **Entropy increase off** — the OKPA search space collapses to a handful
   of candidates on raw low-entropy attributes; the big-jump mapping blows
   it back up.
3. **Uniform vs hypergeometric OPE splits** — identical order behaviour,
   different ciphertext dispersion (the reference-law sampler hugs the
   linear interpolation more tightly).
4. **Fuzzy keys vs one shared key** — the PR-KK advantage drops from 1 to
   the largest-group fraction m/N.
5. **Erasure-augmented RS decoding** — declaring boundary-adjacent
   attributes as erasures raises the key-agreement rate (the paper's
   Guruswami-Sudan suggestion).
"""

from __future__ import annotations

import statistics
from typing import Callable, Dict, List

from repro.attacks.collusion import collusion_attack, shared_key_exposure, worst_case_advantage
from repro.attacks.frequency import FrequencyAnalysis
from repro.attacks.okpa import OkpaAdversary
from repro.core.entropy import AttributeMapping
from repro.crypto.ope import OPE, OpeParams
from repro.datasets import INFOCOM06
from repro.experiments.common import ExperimentResult, build_population, build_scheme
from repro.utils.rand import DeterministicStream, SystemRandomSource

__all__ = [
    "chaining_ablation",
    "entropy_increase_ablation",
    "ope_split_ablation",
    "key_sharing_ablation",
    "erasure_decoding_ablation",
    "run",
]


def _landmark_attribute_index() -> int:
    for i, attr in enumerate(INFOCOM06.attributes):
        if attr.landmark_window == (0.8, 1.0):
            return i
    raise AssertionError("Infocom06 must have a tau=0.8 landmark attribute")


def chaining_ablation(
    num_users: int = 300, k: int = 16, seed: int = 7
) -> ExperimentResult:
    """Frequency-attack accuracy with and without entropy increase/chaining."""
    rng = SystemRandomSource(seed=seed)
    idx = _landmark_attribute_index()
    dists = INFOCOM06.distributions()
    probs = dists[idx]
    cdf: List[float] = []
    acc = 0.0
    for p in probs:
        acc += p
        cdf.append(acc)

    def sample_value() -> int:
        u = rng.random()
        v = 0
        while cdf[v] < u:
            v += 1
        return v

    values = [sample_value() for _ in range(num_users)]
    analysis = FrequencyAnalysis(probs)

    # Naive: deterministic OPE of the raw value — one ciphertext per value.
    ope = OPE(b"ablation-1" + bytes(22), OpeParams(plaintext_bits=8))
    naive_column = [ope.encrypt(v) for v in values]
    naive = analysis.attack_column(naive_column, values)

    # S-MATCH: big-jump mapping then per-user random chain position; the
    # adversary watches chain position 0.
    mapping = AttributeMapping(probs, k)
    d = INFOCOM06.num_attributes
    column = []
    observed_values = []
    other_mappings = [AttributeMapping(p, k) for p in dists]
    for uid, v in enumerate(values):
        perm = DeterministicStream(
            uid.to_bytes(4, "big"), b"ablation-chain"
        ).permutation(d)
        attr_at_0 = perm[0]
        if attr_at_0 == idx:
            column.append(mapping.map_value(v, rng))
            observed_values.append(v)
        else:
            other_v = rng.randrange(0, other_mappings[attr_at_0].n_values)
            column.append(other_mappings[attr_at_0].map_value(other_v, rng))
            observed_values.append(v if attr_at_0 == idx else -1)
    # score only on the users whose landmark attribute actually landed at
    # position 0 — the most favourable case for the adversary
    smatch_pairs = [
        (c, v) for c, v in zip(column, observed_values) if v >= 0
    ]
    if smatch_pairs:
        smatch = analysis.attack_column(
            [c for c, _ in smatch_pairs], [v for _, v in smatch_pairs]
        )
        smatch_acc = smatch.accuracy
    else:
        smatch_acc = 0.0

    result = ExperimentResult(
        name="Ablation: chaining + entropy increase vs frequency analysis",
        columns=["configuration", "attack accuracy"],
    )
    result.add_row(
        configuration="naive direct OPE (no mapping, no chain)",
        **{"attack accuracy": naive.accuracy},
    )
    result.add_row(
        configuration="S-MATCH mapping + chaining",
        **{"attack accuracy": smatch_acc},
    )
    return result


def entropy_increase_ablation(
    num_users: int = 60, trials: int = 20, seed: int = 8
) -> ExperimentResult:
    """OKPA search space on raw values vs entropy-increased values."""
    rng = SystemRandomSource(seed=seed)
    adversary = OkpaAdversary(rng=rng)
    idx = _landmark_attribute_index()
    probs = INFOCOM06.distributions()[idx]
    n_values = len(probs)

    raw_population = [rng.randrange(0, n_values) for _ in range(num_users)]
    raw_population = sorted(set(raw_population))
    ope_raw = OPE(b"ablation-2" + bytes(22), OpeParams(plaintext_bits=8))

    k = 32
    mapping = AttributeMapping(probs, k)
    mapped_population = sorted(
        {
            mapping.map_value(rng.randrange(0, n_values), rng)
            for _ in range(num_users)
        }
    )
    ope_mapped = OPE(b"ablation-2m" + bytes(21), OpeParams(plaintext_bits=k))

    def avg_space(ope: OPE, population: List[int]) -> float:
        sizes = []
        for _ in range(trials):
            known = rng.sample(population, min(2, len(population) - 1))
            target_pool = [p for p in population if p not in known]
            target = rng.choice(target_pool)
            sizes.append(
                adversary.play(
                    ope.encrypt, population, known, target
                ).search_space_size
            )
        return sum(sizes) / len(sizes)

    result = ExperimentResult(
        name="Ablation: entropy increase vs OKPA search space",
        columns=["configuration", "distinct plaintexts", "mean search space"],
    )
    result.add_row(
        configuration="raw attribute values",
        **{
            "distinct plaintexts": len(raw_population),
            "mean search space": avg_space(ope_raw, raw_population),
        },
    )
    result.add_row(
        configuration="entropy-increased (32-bit mapping)",
        **{
            "distinct plaintexts": len(mapped_population),
            "mean search space": avg_space(ope_mapped, mapped_population),
        },
    )
    return result


def ope_split_ablation(seed: int = 9) -> ExperimentResult:
    """Uniform vs hypergeometric split: order preserved, different spread."""
    result = ExperimentResult(
        name="Ablation: OPE split distribution",
        columns=[
            "split",
            "order preserved",
            "mean |ct - linear| / range",
        ],
    )
    plaintexts = list(range(0, 4096, 64))
    for split in ("uniform", "hypergeometric"):
        params = OpeParams(plaintext_bits=12, expansion_bits=8, split=split)
        deviations = []
        ordered = True
        for trial in range(4):
            ope = OPE(
                b"ablation-3" + bytes([trial]) + bytes(21), params
            )
            cts = [ope.encrypt(p) for p in plaintexts]
            ordered = ordered and cts == sorted(cts)
            scale = params.range_size / params.domain_size
            deviations.extend(
                abs(ct - p * scale) / params.range_size
                for p, ct in zip(plaintexts, cts)
            )
        result.add_row(
            split=split,
            **{
                "order preserved": ordered,
                "mean |ct - linear| / range": statistics.mean(deviations),
            },
        )
    return result


def key_sharing_ablation(num_users: int = 40, seed: int = 10) -> ExperimentResult:
    """PR-KK advantage: S-MATCH fuzzy keys vs one shared key."""
    pop = build_population(INFOCOM06, theta=8, seed=seed)
    users = pop.generate(num_users)
    scheme = build_scheme(INFOCOM06, schema=pop.schema, seed=seed)
    uploads, keys = scheme.enroll_population([u.profile for u in users])

    colluder = users[0].profile.user_id
    fuzzy = collusion_attack(uploads, colluder, keys[colluder])
    shared = shared_key_exposure(list(uploads), colluder)
    worst = worst_case_advantage(uploads, keys)

    result = ExperimentResult(
        name="Ablation: key sharing (PR-KK advantage m/N)",
        columns=["configuration", "exposed users", "advantage"],
    )
    result.add_row(
        configuration="one shared PPE key (naive)",
        **{"exposed users": len(shared.exposed_users), "advantage": shared.advantage},
    )
    result.add_row(
        configuration="S-MATCH fuzzy keys (this colluder)",
        **{"exposed users": len(fuzzy.exposed_users), "advantage": fuzzy.advantage},
    )
    result.add_row(
        configuration="S-MATCH fuzzy keys (worst-case colluder)",
        **{"exposed users": round(worst * num_users), "advantage": worst},
    )
    return result


def erasure_decoding_ablation(
    theta: int = 10, num_users: int = 120, seed: int = 12
) -> ExperimentResult:
    """Key-agreement rate with and without boundary erasures."""
    pop = build_population(INFOCOM06, theta=theta, seed=seed)
    users = pop.generate(num_users)
    fx = pop.fuzzy
    margin = max(1, (theta + 1) // 4)

    agree_plain = agree_erasure = total = 0
    for u in users:
        center_vec = fx.fuzzy_vector(u.cluster_center)
        total += 1
        if fx.fuzzy_vector(u.profile.values) == center_vec:
            agree_plain += 1
        erasures = fx.boundary_erasures(u.profile.values, margin)
        if fx.fuzzy_vector(u.profile.values, erasures=erasures) == center_vec:
            agree_erasure += 1

    result = ExperimentResult(
        name="Ablation: erasure-augmented RS decoding",
        columns=["decoder", "key agreement rate"],
        notes=f"theta={theta}, boundary margin={margin}",
    )
    result.add_row(
        decoder="errors-only (Berlekamp-Massey)",
        **{"key agreement rate": agree_plain / total},
    )
    result.add_row(
        decoder="errors + boundary erasures",
        **{"key agreement rate": agree_erasure / total},
    )
    return result


def dpe_leakage_ablation(
    trials: int = 200, seed: int = 16
) -> ExperimentResult:
    """PPE property granularity: DPE leaks strictly more than OPE.

    Definition 1 instantiations differ in what ``Test`` reveals: OPE's
    property is *order* (k = 2), DPE's is *relative distance* (k = 3).  The
    adversary's task: given three ciphertexts of a < b < c, decide whether
    b is closer to a or to c.  Against DPE the public Test answers exactly
    (accuracy 1.0); against OPE the ciphertext gaps are pseudorandom, so
    gap comparison is barely better than chance.
    """
    from repro.crypto.dpe import DPE, DpeParams

    rng = SystemRandomSource(seed=seed)
    dpe = DPE(b"ablation-7" + bytes(22), DpeParams(plaintext_bits=16))
    ope = OPE(b"ablation-7" + bytes(22), OpeParams(plaintext_bits=16))

    def accuracy(encrypt: Callable[[int], int]) -> float:
        """Fraction of users whose value the attack recovered."""
        correct = 0
        for _ in range(trials):
            a = rng.randrange(0, 1 << 15)
            b = a + rng.randrange(1, 1 << 12)
            c = b + rng.randrange(1, 1 << 12)
            if abs(a - b) == abs(b - c):
                c += 1
            truth = abs(a - b) < abs(b - c)
            ca, cb, cc = encrypt(a), encrypt(b), encrypt(c)
            guess = abs(ca - cb) < abs(cb - cc)
            correct += guess == truth
        return correct / trials

    result = ExperimentResult(
        name="Ablation: PPE property granularity (DPE vs OPE leakage)",
        columns=["scheme", "closer-pair inference accuracy"],
        notes="Adversary sees only ciphertexts of a < b < c.",
    )
    result.add_row(
        scheme="DPE (distance-preserving)",
        **{"closer-pair inference accuracy": accuracy(dpe.encrypt)},
    )
    result.add_row(
        scheme="OPE (order-preserving)",
        **{"closer-pair inference accuracy": accuracy(ope.encrypt)},
    )
    return result


def adaptive_ope_ablation(plaintext_bits: int = 64) -> ExperimentResult:
    """The paper's future-work OPE: range width adapted to attribute entropy.

    Low-entropy attributes get a wider ciphertext range (more slack hiding
    the gaps between the few populated plaintexts); high-entropy attributes
    get tighter ranges (smaller ciphertexts on the wire).
    """
    from repro.crypto.ope import AdaptiveOPE

    result = ExperimentResult(
        name="Ablation: entropy-adaptive OPE range sizing",
        columns=[
            "measured entropy (bit)",
            "expansion bits",
            "ciphertext bits",
            "order preserved",
        ],
    )
    key = b"ablation-6" + bytes(22)
    for entropy in (8.0, 24.0, 48.0, 62.0):
        ope = AdaptiveOPE.for_entropy(key, plaintext_bits, entropy)
        sample = [0, 1 << 20, 1 << 40, (1 << plaintext_bits) - 1]
        cts = [ope.encrypt(v) for v in sample]
        result.add_row(
            **{
                "measured entropy (bit)": entropy,
                "expansion bits": ope.params.expansion_bits,
                "ciphertext bits": ope.params.ciphertext_bits,
                "order preserved": cts == sorted(cts),
            }
        )
    return result


def run() -> Dict[str, ExperimentResult]:
    """All ablations, keyed by short name."""
    return {
        "chaining": chaining_ablation(),
        "entropy_increase": entropy_increase_ablation(),
        "ope_split": ope_split_ablation(),
        "key_sharing": key_sharing_ablation(),
        "erasure_decoding": erasure_decoding_ablation(),
        "adaptive_ope": adaptive_ope_ablation(),
        "dpe_leakage": dpe_leakage_ablation(),
    }
