"""Attribute-level private set intersection (the FindU/VENETA/Gmatch family).

The related-work schemes LCY11/NCD13 match profiles at the *attribute level*:
two users learn (an upper bound on) how many attributes they share, but the
protocol cannot differentiate attribute *values* beyond equality — Table I's
"fine-grained" distinction, demonstrated by the Table-I benchmark.

We implement the classic DH-based commutative-encryption PSI:

* each party raises the hash of each set element to its secret exponent in
  a Schnorr group: ``H(x)^a``;
* the parties exchange and re-raise: ``(H(x)^a)^b = (H(x)^b)^a``;
* double-encrypted values are comparable, so the intersection cardinality
  is computable while singly-encrypted values reveal nothing (DDH).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.crypto.kdf import hash_to_range, sha256
from repro.errors import ParameterError
from repro.ntheory.groups import SchnorrGroup
from repro.obs.instrument import count_op
from repro.utils.rand import SystemRandomSource

__all__ = ["PsiParty", "PsiMatcher"]


def _hash_to_group(group: SchnorrGroup, element: bytes) -> int:
    """Hash into the quadratic-residue subgroup (hash then square)."""
    h = hash_to_range(b"psi-elem" + element, group.p - 2) + 1
    return h * h % group.p


class PsiParty:
    """One participant of the two-party PSI protocol."""

    def __init__(
        self,
        items: Iterable[bytes],
        group: Optional[SchnorrGroup] = None,
        rng: Optional[SystemRandomSource] = None,
    ) -> None:
        self.group = group or SchnorrGroup.default()
        self._items: Tuple[bytes, ...] = tuple(items)
        if not self._items:
            raise ParameterError("PSI set must be non-empty")
        rng = rng or SystemRandomSource()
        self._secret = self.group.random_exponent(rng)

    def first_pass(self) -> List[int]:
        """``H(x)^a`` for every owned element (sent to the peer)."""
        count_op("psi_first_pass")
        return [
            self.group.exp(_hash_to_group(self.group, item), self._secret)
            for item in self._items
        ]

    def second_pass(self, received: Sequence[int]) -> List[int]:
        """Re-encrypt the peer's singly-encrypted elements."""
        count_op("psi_second_pass")
        return [self.group.exp(value, self._secret) for value in received]


class PsiMatcher:
    """Runs the two-party protocol and reports intersection cardinality."""

    def __init__(self, group: Optional[SchnorrGroup] = None) -> None:
        self.group = group or SchnorrGroup.default()

    @staticmethod
    def attribute_items(values: Sequence[int]) -> List[bytes]:
        """Encode an attribute-value profile as PSI set elements.

        Elements are (index, value) pairs so "interest #3 = jazz" and
        "interest #5 = jazz" stay distinct attributes.
        """
        return [
            sha256(b"psi-attr", i.to_bytes(4, "big"), v.to_bytes(8, "big"))
            for i, v in enumerate(values)
        ]

    def intersection_size(self, a: PsiParty, b: PsiParty) -> int:
        """Run the full protocol between two in-process parties."""
        if a.group != b.group:
            raise ParameterError("parties use different groups")
        double_a: FrozenSet[int] = frozenset(b.second_pass(a.first_pass()))
        double_b: Set[int] = set(a.second_pass(b.first_pass()))
        return len(double_a & double_b)

    def match_score(
        self,
        values_a: Sequence[int],
        values_b: Sequence[int],
        rng: Optional[SystemRandomSource] = None,
    ) -> int:
        """Attribute-level similarity: number of exactly-shared attributes."""
        party_a = PsiParty(self.attribute_items(values_a), self.group, rng)
        party_b = PsiParty(self.attribute_items(values_b), self.group, rng)
        return self.intersection_size(party_a, party_b)
