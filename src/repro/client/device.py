"""Device cost models.

The paper's testbed pairs an HTC Nexus One (1 GHz QSD8250, the client) with
a dual-core 3.10 GHz Core i5-2400 PC (the server).  We cannot run on that
hardware, so the cost experiments support two modes:

* **wall-clock** — time our pure-Python primitives directly.  Relative
  shapes (symmetric vs homomorphic, growth in the plaintext size) carry
  over because they come from operation counts and asymptotics, not
  constant factors.
* **testbed-calibrated** — convert an :class:`~repro.obs.instrument.OpCounter`
  into milliseconds using per-operation constants for a named device.  The
  constants below are order-of-magnitude figures for the 2010-era hardware
  class the paper used (a 1 GHz ARMv7 phone and a 3 GHz desktop), chosen so
  the *ratios* between primitive families match published microbenchmarks:
  a modular exponentiation with a 1024-bit modulus costs milliseconds, a
  hash or AES block costs microseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.errors import ParameterError
from repro.obs.instrument import OpCounter

__all__ = ["DeviceProfile", "NEXUS_ONE", "PC_SERVER"]


@dataclass(frozen=True)
class DeviceProfile:
    """Per-operation costs (milliseconds) of one device.

    ``modexp_ms_1024`` is the cost of one modular exponentiation with a
    1024-bit modulus and full-size exponent; other modulus sizes scale
    cubically (schoolbook multiplication with a linear number of squarings).
    """

    name: str
    modexp_ms_1024: float
    hash_ms: float
    aes_block_ms: float
    ope_level_ms: float
    rank_column_ms_per_user: float = 0.001

    def __post_init__(self) -> None:
        for field_name in (
            "modexp_ms_1024",
            "hash_ms",
            "aes_block_ms",
            "ope_level_ms",
            "rank_column_ms_per_user",
        ):
            if getattr(self, field_name) <= 0:
                raise ParameterError(f"{field_name} must be positive")

    def modexp_ms(self, modulus_bits: int) -> float:
        """Cubic scaling of modular exponentiation with modulus size."""
        if modulus_bits < 1:
            raise ParameterError("modulus_bits must be positive")
        return self.modexp_ms_1024 * (modulus_bits / 1024.0) ** 3

    def estimate_ms(
        self,
        counter: OpCounter,
        modexp_bits: int = 1024,
        group_size: int = 1,
    ) -> float:
        """Convert an operation tally into estimated milliseconds.

        Args:
            counter: tallies recorded under :func:`repro.obs.instrument.counting`.
            modexp_bits: modulus size to charge each ``modexp`` at.
            group_size: user count, for the per-user server operations.
        """
        counts: Mapping[str, int] = counter.as_dict()
        total = 0.0
        total += counts.get("modexp", 0) * self.modexp_ms(modexp_bits)
        total += counts.get("hash", 0) * self.hash_ms
        total += counts.get("aes_block", 0) * self.aes_block_ms
        total += counts.get("ope_level", 0) * self.ope_level_ms
        # Paillier composite ops decompose into modexps at 2x modulus bits.
        paillier_ops = counts.get("paillier_encrypt", 0) + counts.get(
            "paillier_decrypt", 0
        )
        total += paillier_ops * self.modexp_ms(2 * modexp_bits)
        total += counts.get("paillier_mulmod", 0) * self.modexp_ms(
            2 * modexp_bits
        ) * 0.001  # one modular multiplication ~ 1/1000 of a modexp
        total += (
            counts.get("server_rank_column", 0)
            * group_size
            * self.rank_column_ms_per_user
        )
        return total


#: The paper's client device: 1 GHz single-core phone.
NEXUS_ONE = DeviceProfile(
    name="HTC Nexus One (1 GHz QSD8250)",
    modexp_ms_1024=18.0,
    hash_ms=0.012,
    aes_block_ms=0.004,
    ope_level_ms=0.030,
)

#: The paper's server: 3.10 GHz Core i5-2400 PC.
PC_SERVER = DeviceProfile(
    name="PC (Intel Core i5-2400, 3.10 GHz)",
    modexp_ms_1024=1.4,
    hash_ms=0.001,
    aes_block_ms=0.0004,
    ope_level_ms=0.0025,
    rank_column_ms_per_user=0.0002,
)
