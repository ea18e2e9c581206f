"""RSA-OPRF: the oblivious pseudo-random function of paper Section III.

The protocol, exactly as the paper describes it:

* Key generation produces RSA parameters ``((N, e), (N, d))``; the random
  number generator (the OPRF server) holds ``d`` and publishes ``(N, e)``.
* The user hashes the input ``m`` and blinds it: ``x = h(m) * s^e mod N``
  for a random ``s``.
* The server returns ``y = x^d mod N``.
* The user unblinds and outputs ``r = h'(y * s^{-1} mod N)``.

Because ``x`` is uniformly random given ``s``, the server learns nothing
about ``m`` or ``r`` (blindness); because producing ``h(m)^d`` requires the
server's key, an attacker who steals a user's fuzzy vector cannot brute-force
profile keys offline (the property S-MATCH key generation relies on).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.crypto.kdf import hash_to_range, sha256
from repro.crypto.rsa import RSAKeyPair, RSAPublicKey
from repro.errors import CryptoError, ParameterError
from repro.ntheory.modular import modexp, modinv
from repro.obs.trace import span
from repro.utils.ct import constant_time_eq
from repro.utils.rand import SystemRandomSource

__all__ = ["RsaOprfServer", "RsaOprfClient", "BlindingState"]


@dataclass(frozen=True)
class BlindingState:
    """Client-side state held between blind and finalize."""

    blinded: int
    unblinder: int  # s^{-1} mod N


class RsaOprfServer:
    """The random-number-generator side: evaluates blinded inputs."""

    def __init__(
        self,
        keypair: Optional[RSAKeyPair] = None,
        bits: int = 1024,
        rng: Optional[SystemRandomSource] = None,
    ) -> None:
        self._keypair = keypair or RSAKeyPair.generate(bits=bits, rng=rng)

    @property
    def public_key(self) -> RSAPublicKey:
        """The key service's RSA public parameters."""
        return self._keypair.public

    def evaluate_blinded(self, x: int) -> int:
        """``y = x^d mod N``; sees only the blinded value."""
        if not 0 <= x < self._keypair.public.n:
            raise ParameterError("blinded value out of range")
        with span("oprf.evaluate", bits=self._keypair.public.modulus_bits):
            return self._keypair.raw_decrypt(x)

    def unblinded_evaluate(self, message: bytes) -> bytes:
        """Direct evaluation ``F(sk, m)``; reference for correctness tests."""
        n = self._keypair.public.n
        hm = hash_to_range(b"oprf-input" + message, n)
        y = self._keypair.raw_decrypt(hm)
        width = (n.bit_length() + 7) // 8
        return sha256(b"oprf-output", y.to_bytes(width, "big"))


class RsaOprfClient:
    """The user side: blind, send, unblind, hash."""

    def __init__(
        self,
        public_key: RSAPublicKey,
        rng: Optional[SystemRandomSource] = None,
    ) -> None:
        self.public_key = public_key
        self._rng = rng or SystemRandomSource()

    def blind(self, message: bytes) -> BlindingState:
        """``x = h(m) * s^e mod N`` for fresh random ``s``."""
        with span("oprf.blind"):
            n = self.public_key.n
            hm = hash_to_range(b"oprf-input" + message, n)
            while True:
                s = self._rng.randrange(2, n - 1)
                if math.gcd(s, n) == 1:
                    break
            blinded = hm * modexp(s, self.public_key.e, n) % n
            return BlindingState(blinded=blinded, unblinder=modinv(s, n))

    def finalize(self, state: BlindingState, response: int) -> bytes:
        """``r = h'(y * s^{-1} mod N)``, with a consistency check.

        The check ``r^e == h(m)... `` cannot be done here without the
        original message, so we verify the weaker algebraic relation
        ``response^e == blinded (mod N)`` — this catches a misbehaving or
        corrupted OPRF server before the result is used as key material.
        """
        with span("oprf.finalize"):
            n = self.public_key.n
            if not 0 <= response < n:
                raise ParameterError("OPRF response out of range")
            if not constant_time_eq(
                modexp(response, self.public_key.e, n), state.blinded % n
            ):
                raise CryptoError("OPRF server response failed verification")
            unblinded = response * state.unblinder % n
            width = (n.bit_length() + 7) // 8
            return sha256(b"oprf-output", unblinded.to_bytes(width, "big"))

    def evaluate(self, message: bytes, server: RsaOprfServer) -> bytes:
        """Run the full one-round protocol against an in-process server."""
        state = self.blind(message)
        response = server.evaluate_blinded(state.blinded)
        return self.finalize(state, response)

