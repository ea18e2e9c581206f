"""Cyclic groups for the verification protocol.

The paper's profile-verification scheme (Section VI) computes
``ciph_v = E_Kvp(p^{s_v} || h(p^{s_v * ID_v}))`` where ``p`` generates a
cyclic group G in which the computational Diffie-Hellman problem is hard —
"e.g., the subgroup of quadratic residues" (Section VII-B).  We implement
exactly that: the order-q subgroup of Z_p^* for a safe prime p = 2q + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

from repro.errors import ParameterError
from repro.ntheory.modular import modexp, modinv
from repro.ntheory.primes import generate_safe_prime, is_probable_prime
from repro.obs.instrument import count_op
from repro.utils.rand import SystemRandomSource

__all__ = ["SchnorrGroup"]

# A fixed 512-bit safe prime (p = 2q+1, q prime) used as the library default
# so tests and examples do not pay safe-prime generation on every run.  It was
# generated once with generate_safe_prime(512) and verified below on import.
_DEFAULT_P = int(
    "92560734779096688489344372028967439030340250327550828799176658862443"
    "99529166056456643493737138893018581641938205298284854450517489568703"
    "466894784450627299"
)

#: Radix-2^w digit width of the fixed-base table for ``g``: 2^w entries per
#: digit position.  On the default group w = 4 gives 2,048 entries (about
#: 200 KiB) and evaluates ``g^e`` about 3x faster than ``pow``.
_FIXED_BASE_WINDOW = 4


@dataclass(frozen=True)
class SchnorrGroup:
    """The quadratic-residue subgroup of Z_p^* for a safe prime p.

    Elements are integers in ``[1, p)`` that are quadratic residues; the
    subgroup has prime order ``q = (p - 1) / 2`` so every non-identity
    element generates it.
    """

    p: int
    g: int

    @property
    def q(self) -> int:
        """Prime order of the subgroup."""
        return (self.p - 1) // 2

    def __post_init__(self) -> None:
        if self.p < 7 or self.p % 2 == 0:
            raise ParameterError("p must be an odd prime >= 7")
        if not is_probable_prime(self.p) or not is_probable_prime(self.q):
            raise ParameterError("p must be a safe prime (p and (p-1)/2 prime)")
        if not 1 < self.g < self.p:
            raise ParameterError("generator out of range")
        if pow(self.g, self.q, self.p) != 1:
            raise ParameterError("g is not in the quadratic-residue subgroup")

    @classmethod
    def default(cls) -> "SchnorrGroup":
        """The library-default 512-bit group (fixed parameters).

        One shared instance per process, so its primality checks run once.
        """
        return _default_group()

    @classmethod
    def generate(
        cls, bits: int = 512, rng: Optional[SystemRandomSource] = None
    ) -> "SchnorrGroup":
        """Generate fresh group parameters with a ``bits``-bit safe prime."""
        rng = rng or SystemRandomSource()
        p = generate_safe_prime(bits, rng)
        while True:
            h = rng.randrange(2, p - 1)
            g = pow(h, 2, p)  # square into the QR subgroup
            if g not in (1, p - 1):
                return cls(p=p, g=g)

    def exp(self, base: int, exponent: int) -> int:
        """``base**exponent mod p`` (instrumented as a modexp)."""
        return modexp(base, exponent % self.q, self.p)

    def power_of_g(self, exponent: int) -> int:
        """``g**exponent mod p``, from the fixed-base table for ``g``.

        One multiply per radix-2^w digit of ``exponent mod q``; a zero digit
        multiplies by the table's stored 1, so every call does the same
        number of multiplies.  Counted as one modexp, like :meth:`exp`.
        """
        count_op("modexp")
        p = self.p
        mask = (1 << _FIXED_BASE_WINDOW) - 1
        e = exponent % self.q
        acc = 1
        for row in _fixed_base_table(p, self.g):
            acc = acc * row[e & mask] % p
            e >>= _FIXED_BASE_WINDOW
        return acc

    def mul(self, a: int, b: int) -> int:
        """Group multiplication modulo p."""
        return a * b % self.p

    def inv(self, a: int) -> int:
        """Multiplicative inverse modulo p."""
        return modinv(a, self.p)

    def random_exponent(self, rng: Optional[SystemRandomSource] = None) -> int:
        """A uniform secret exponent in ``[1, q)``."""
        rng = rng or SystemRandomSource()
        return rng.randrange(1, self.q)

    def element_bytes(self, a: int) -> bytes:
        """Fixed-width big-endian encoding of a group element."""
        width = (self.p.bit_length() + 7) // 8
        if not 0 <= a < self.p:
            raise ParameterError("element out of range")
        return a.to_bytes(width, "big")

    @property
    def element_size(self) -> int:
        """Encoded element size in bytes."""
        return (self.p.bit_length() + 7) // 8


@lru_cache(maxsize=None)
def _default_group() -> SchnorrGroup:
    return SchnorrGroup(p=_DEFAULT_P, g=4)  # 4 = 2^2 is always a QR


@lru_cache(maxsize=8)
def _fixed_base_table(p: int, g: int) -> Tuple[Tuple[int, ...], ...]:
    """Row ``i`` holds ``g^(d * 2^(w*i)) mod p`` for every digit ``d < 2^w``.

    Kept per process outside the frozen dataclass, so a group's equality,
    hash, repr and pickled form stay its two parameters.
    """
    radix = 1 << _FIXED_BASE_WINDOW
    q_bits = ((p - 1) // 2).bit_length()
    positions = (q_bits + _FIXED_BASE_WINDOW - 1) // _FIXED_BASE_WINDOW
    rows = []
    base = g
    for _ in range(positions):
        row = [1]
        for _ in range(radix - 1):
            row.append(row[-1] * base % p)
        rows.append(tuple(row))
        base = row[-1] * base % p
    return tuple(rows)
