"""Number-theory substrate: primality, modular arithmetic, cyclic groups."""

from repro.ntheory.modular import crt_pair, lcm, modinv
from repro.ntheory.primes import (
    generate_prime,
    generate_safe_prime,
    is_probable_prime,
    next_prime,
)
from repro.ntheory.groups import SchnorrGroup

__all__ = [
    "crt_pair",
    "lcm",
    "modinv",
    "generate_prime",
    "generate_safe_prime",
    "is_probable_prime",
    "next_prime",
    "SchnorrGroup",
]
