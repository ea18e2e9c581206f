"""Dataset specifications: attribute distribution families with solvable
entropy.

Each attribute of a dataset is described by an :class:`AttributeDistSpec`
from one of three families:

* ``dominant`` — one heavy value (probability ``p0``) plus a uniform tail:
  models landmark attributes (Definition 2).  ``p0`` is solved by bisection
  to hit the attribute's target entropy, with the landmark window (e.g.
  ``p0 > 0.8``) asserted afterwards.
* ``zipf`` — Zipfian over ``n`` values with exponent ``s`` solved for the
  target entropy: models skewed interest/location attributes.
* ``uniform`` — uniform over ``n`` values (``n`` solved from the target).

Because entropies are solved analytically, the generated datasets reproduce
Table II's entropy statistics *by construction*, not by luck of sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.errors import DatasetError, ParameterError
from repro.utils.stats import entropy_from_probs

__all__ = ["AttributeDistSpec", "DatasetSpec"]

_FAMILIES = ("dominant", "zipf", "uniform")


def _bisect(
    fn: Callable[[float], float],
    target: float,
    lo: float,
    hi: float,
    increasing: bool,
    tol: float = 1e-10,
) -> float:
    """Solve fn(x) = target for monotone fn on [lo, hi]."""
    flo, fhi = fn(lo), fn(hi)
    lo_val, hi_val = (flo, fhi) if increasing else (fhi, flo)
    if not (lo_val - 1e-9 <= target <= hi_val + 1e-9):
        raise ParameterError(
            f"target {target} outside achievable range "
            f"[{lo_val:.4f}, {hi_val:.4f}]"
        )
    for _ in range(200):
        mid = (lo + hi) / 2
        val = fn(mid)
        if abs(val - target) < tol:
            return mid
        if (val < target) == increasing:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _dominant_probs(p0: float, n: int) -> List[float]:
    tail = (1.0 - p0) / (n - 1)
    return [p0] + [tail] * (n - 1)


def _zipf_probs(s: float, n: int) -> List[float]:
    weights = [1.0 / (i + 1) ** s for i in range(n)]
    total = sum(weights)
    return [w / total for w in weights]


@dataclass(frozen=True)
class AttributeDistSpec:
    """One attribute's distribution family and entropy target."""

    name: str
    family: str
    cardinality: int
    target_entropy: float
    landmark_window: Optional[Tuple[float, float]] = None  # required p0 range

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ParameterError(f"unknown family {self.family!r}")
        if self.cardinality < 2:
            raise ParameterError("attribute needs >= 2 values")
        if self.target_entropy <= 0:
            raise ParameterError("target entropy must be positive")

    def solve(self) -> List[float]:
        """The probability vector achieving the target entropy exactly."""
        n = self.cardinality
        if self.family == "uniform":
            probs = [1.0 / n] * n
        elif self.family == "dominant":
            p0 = _bisect(
                lambda p: entropy_from_probs(_dominant_probs(p, n)),
                self.target_entropy,
                lo=1.0 / n + 1e-9,
                hi=0.999999,
                increasing=False,
            )
            probs = _dominant_probs(p0, n)
            if self.landmark_window is not None:
                lo, hi = self.landmark_window
                if not lo < p0 <= hi:
                    raise DatasetError(
                        f"{self.name}: solved p0={p0:.4f} outside the "
                        f"landmark window ({lo}, {hi}]"
                    )
        else:  # zipf
            probs = _zipf_probs(
                _bisect(
                    lambda s: entropy_from_probs(_zipf_probs(s, n)),
                    self.target_entropy,
                    lo=1e-9,
                    hi=8.0,
                    increasing=False,
                ),
                n,
            )
        achieved = entropy_from_probs(probs)
        if abs(achieved - self.target_entropy) > 1e-3 and self.family != "uniform":
            raise DatasetError(
                f"{self.name}: achieved entropy {achieved:.4f} != "
                f"target {self.target_entropy:.4f}"
            )
        return probs


@dataclass(frozen=True)
class DatasetSpec:
    """A full dataset description (one row of Table II)."""

    name: str
    num_nodes: int
    attributes: Tuple[AttributeDistSpec, ...]
    # statistics the paper reports, for the Table-II comparison
    paper_entropy_avg: float
    paper_entropy_max: float
    paper_entropy_min: float
    paper_landmarks_06: int
    paper_landmarks_08: int

    def __post_init__(self) -> None:
        if self.num_nodes < 2:
            raise ParameterError("dataset needs >= 2 nodes")
        if not self.attributes:
            raise ParameterError("dataset needs attributes")

    @property
    def num_attributes(self) -> int:
        """Number of profile attributes."""
        return len(self.attributes)

    def distributions(self) -> List[List[float]]:
        """Solved probability vectors for every attribute."""
        return [spec.solve() for spec in self.attributes]

    def entropies(self) -> List[float]:
        """Per-attribute solved entropies."""
        return [entropy_from_probs(p) for p in self.distributions()]

    def landmark_attribute_count(self, tau: float) -> int:
        """Number of attributes containing a landmark value (Def. 2)."""
        count = 0
        for probs in self.distributions():
            if any(p > tau for p in probs):
                count += 1
        return count
