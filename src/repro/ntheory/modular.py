"""Modular arithmetic helpers: extended GCD, inverses, CRT, LCM."""

from __future__ import annotations

import math
from typing import Tuple

from repro.errors import ParameterError
from repro.obs.instrument import count_op

__all__ = ["egcd", "modinv", "crt_pair", "lcm", "modexp"]


def egcd(a: int, b: int) -> Tuple[int, int, int]:
    """Extended Euclid: returns ``(g, x, y)`` with ``a*x + b*y == g``."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def modinv(a: int, m: int) -> int:
    """The inverse of ``a`` modulo ``m``; raises if not invertible."""
    if m <= 0:
        raise ParameterError(f"modulus must be positive, got {m}")
    g, x, _ = egcd(a % m, m)
    if g != 1:
        raise ParameterError(f"{a} is not invertible modulo {m} (gcd={g})")
    return x % m


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """Solve ``x = r1 mod m1``, ``x = r2 mod m2`` for coprime moduli."""
    g = math.gcd(m1, m2)
    if g != 1:
        raise ParameterError(f"CRT moduli must be coprime, gcd={g}")
    return (r1 + m1 * ((r2 - r1) * modinv(m1, m2) % m2)) % (m1 * m2)


def lcm(a: int, b: int) -> int:
    """Least common multiple."""
    if a == 0 or b == 0:
        return 0
    return abs(a // math.gcd(a, b) * b)


def modexp(base: int, exponent: int, modulus: int) -> int:
    """Modular exponentiation, instrumented for the cost experiments.

    A thin wrapper over :func:`pow` that records one ``modexp`` operation in
    the active :class:`repro.obs.instrument.OpCounter`.  All primitives that
    the paper's Section VII-C counts as "modular exponentiations" route
    through here.
    """
    if modulus <= 0:
        raise ParameterError(f"modulus must be positive, got {modulus}")
    count_op("modexp")
    return pow(base, exponent, modulus)
