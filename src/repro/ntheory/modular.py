"""Modular arithmetic helpers: inverses, CRT, LCM."""

from __future__ import annotations

import math

from repro.errors import ParameterError
from repro.obs.instrument import count_op

__all__ = ["modinv", "crt_pair", "lcm", "modexp"]


def modinv(a: int, m: int) -> int:
    """The inverse of ``a`` modulo ``m``; raises if not invertible.

    Callers pass secrets (the RSA key pair inverts ``e`` modulo phi(N), which
    factors N), so the errors name neither operand nor the modulus.
    """
    if m <= 0:
        raise ParameterError("modulus must be positive")
    try:
        return pow(a, -1, m)
    except ValueError as exc:
        raise ParameterError("value is not invertible modulo the modulus") from exc


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

    A thin wrapper over :func:`pow` that records one ``modexp`` operation
    through :func:`repro.obs.instrument.count_op`.  All primitives that
    the paper's Section VII-C counts as "modular exponentiations" route
    through here.
    """
    if modulus <= 0:
        raise ParameterError(f"modulus must be positive, got {modulus}")
    count_op("modexp")
    return pow(base, exponent, modulus)
