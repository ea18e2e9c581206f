"""Bloom filters and the NCD13-style common-attribute finder.

Nagy, Asokan, De Cristofaro — "Do I know you? Efficient and
Privacy-Preserving Common Friend-Finder Protocols" (ACSAC 2013): parties
learn (an estimate of) how many attributes/friends they share by exchanging
Bloom filters of *keyed* element digests.  The session key comes from a
Diffie-Hellman exchange, so an eavesdropper — who lacks the session key —
cannot test candidate elements against an observed filter.

Table I places this family as: homomorphic/asymmetric-crypto based (the DH
exchange), honest-but-curious only, not verifiable, not fine-grained (set
membership only), not fuzzy.  The capability checks in the Table-I
experiment exercise exactly those boundaries.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.crypto.kdf import hkdf, prf, sha256
from repro.errors import CryptoError, ParameterError
from repro.ntheory.groups import SchnorrGroup
from repro.utils.ct import constant_time_eq
from repro.utils.rand import SystemRandomSource

__all__ = ["BloomFilter", "Ncd13Party", "run_common_attributes"]


class BloomFilter:
    """A classic Bloom filter over byte-string elements."""

    def __init__(self, num_bits: int, num_hashes: int) -> None:
        if num_bits < 8:
            raise ParameterError("filter needs at least 8 bits")
        if num_hashes < 1:
            raise ParameterError("need at least one hash function")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._bits = bytearray((num_bits + 7) // 8)
        self.count = 0

    @classmethod
    def for_capacity(
        cls, capacity: int, false_positive_rate: float = 0.01
    ) -> "BloomFilter":
        """Size a filter for ``capacity`` elements at a target FP rate."""
        if capacity < 1:
            raise ParameterError("capacity must be >= 1")
        if not 0 < false_positive_rate < 1:
            raise ParameterError("false_positive_rate must be in (0, 1)")
        bits = math.ceil(
            -capacity * math.log(false_positive_rate) / (math.log(2) ** 2)
        )
        hashes = max(1, round(bits / capacity * math.log(2)))
        return cls(num_bits=max(8, bits), num_hashes=hashes)

    def _positions(self, element: bytes) -> List[int]:
        digest = sha256(b"bloom", element)
        positions = []
        for i in range(self.num_hashes):
            h = sha256(b"bloom-i", i.to_bytes(4, "big"), digest)
            positions.append(int.from_bytes(h[:8], "big") % self.num_bits)
        return positions

    def add(self, element: bytes) -> None:
        """Insert an element."""
        for pos in self._positions(element):
            self._bits[pos // 8] |= 1 << (pos % 8)
        self.count += 1

    def __contains__(self, element: bytes) -> bool:
        return all(
            self._bits[pos // 8] & (1 << (pos % 8))
            for pos in self._positions(element)
        )

    def fill_ratio(self) -> float:
        """Fraction of filter bits currently set."""
        set_bits = sum(bin(b).count("1") for b in self._bits)
        return set_bits / self.num_bits

    def to_bytes(self) -> bytes:
        """Serialize the filter's bit array."""
        return bytes(self._bits)

    @classmethod
    def from_bytes(
        cls, data: bytes, num_bits: int, num_hashes: int
    ) -> "BloomFilter":
        """Rebuild a filter from a serialized bit array."""
        bf = cls(num_bits=num_bits, num_hashes=num_hashes)
        if len(data) != len(bf._bits):
            raise ParameterError("filter payload has the wrong size")
        bf._bits = bytearray(data)
        return bf

    @property
    def wire_bits(self) -> int:
        """Exact size on the wire, in bits."""
        return len(self._bits) * 8


class Ncd13Party:
    """One side of the common-attribute finder."""

    def __init__(
        self,
        values: Sequence[int],
        group: Optional[SchnorrGroup] = None,
        rng: Optional[SystemRandomSource] = None,
    ) -> None:
        if not values:
            raise ParameterError("profile must be non-empty")
        self._values = list(values)
        self.group = group or SchnorrGroup.default()
        rng = rng or SystemRandomSource()
        self._dh_secret = self.group.random_exponent(rng)

    # -- DH session establishment ----------------------------------------------

    def dh_public(self) -> int:
        """This party's Diffie-Hellman public value."""
        return self.group.power_of_g(self._dh_secret)

    def session_key(self, peer_public: int) -> bytes:
        """Derive the shared session key from the peer's public value."""
        if not 1 < peer_public < self.group.p:
            raise ParameterError("invalid DH public value")
        shared = self.group.exp(peer_public, self._dh_secret)
        return hkdf(
            self.group.element_bytes(shared), info=b"ncd13-session", length=32
        )

    # -- filter exchange ------------------------------------------------------------

    def _element(self, session_key: bytes, index: int, value: int) -> bytes:
        return prf(
            session_key,
            b"ncd13-elem",
            index.to_bytes(4, "big"),
            value.to_bytes(16, "big"),
        )

    def build_filter(
        self, session_key: bytes, false_positive_rate: float = 0.01
    ) -> BloomFilter:
        """Bloom filter of this party's keyed attribute digests."""
        bf = BloomFilter.for_capacity(
            len(self._values), false_positive_rate
        )
        for i, v in enumerate(self._values):
            bf.add(self._element(session_key, i, v))
        return bf

    def count_common(
        self, session_key: bytes, peer_filter: BloomFilter
    ) -> int:
        """How many of our attributes appear in the peer's filter."""
        return sum(
            1
            for i, v in enumerate(self._values)
            if self._element(session_key, i, v) in peer_filter
        )


def run_common_attributes(
    values_a: Sequence[int],
    values_b: Sequence[int],
    rng: Optional[SystemRandomSource] = None,
) -> Tuple[int, int]:
    """Full two-party run; returns (A's common count, wire bits used)."""
    rng = rng or SystemRandomSource()
    a = Ncd13Party(values_a, rng=rng)
    b = Ncd13Party(values_b, rng=rng)
    key_a = a.session_key(b.dh_public())
    key_b = b.session_key(a.dh_public())
    if not constant_time_eq(key_a, key_b):
        raise CryptoError("DH key agreement failed: parties derived different keys")
    filter_b = b.build_filter(key_b)
    common = a.count_common(key_a, filter_b)
    wire = 2 * a.group.element_size * 8 + filter_b.wire_bits
    return common, wire
