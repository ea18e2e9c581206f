"""The naive direct-PPE strawman (paper Section IV).

"A naive approach utilizing PPE to match the profile secretly is that each
user encrypts their social attributes with the PPE separately and sends all
of the encrypted attributes to the server."  One global OPE key, no entropy
increase, no chaining.  This scheme *works* functionally — the server can
run the same kNN matching — but exhibits exactly the two problems Section IV
diagnoses:

* **key sharing**: one colluding user hands the adversary every user's data
  (the PR-KK advantage is 1, vs. S-MATCH's m/N);
* **information leakage**: raw attribute values are low-entropy with
  landmark values, so ordered known-plaintext attacks shrink the search
  space to a handful of candidates (Fig. 1), and ciphertext frequency
  analysis finds the landmarks.

The attack experiments (:mod:`repro.attacks`) run against this scheme to
quantify both failure modes; the ablation benchmarks contrast it with full
S-MATCH.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.matching import knn_match
from repro.core.profile import Profile
from repro.crypto.ope import OPE, OpeParams
from repro.errors import ParameterError
from repro.utils.rand import SystemRandomSource

__all__ = ["NaiveOpeScheme"]


class NaiveOpeScheme:
    """Direct per-attribute OPE under a single shared key."""

    def __init__(
        self,
        plaintext_bits: int,
        expansion_bits: int = 0,
        shared_key: Optional[bytes] = None,
        rng: Optional[SystemRandomSource] = None,
    ) -> None:
        rng = rng or SystemRandomSource()
        self.shared_key = shared_key or rng.randbytes(32)
        self.params = OpeParams(
            plaintext_bits=plaintext_bits, expansion_bits=expansion_bits
        )
        self._ope = OPE(self.shared_key, self.params)

    def encrypt_profile(self, profile: Profile) -> Tuple[int, ...]:
        """Encrypt raw attribute values directly (no mapping, no chain)."""
        limit = self.params.domain_size
        for v in profile.values:
            if v >= limit:
                raise ParameterError(
                    f"value {v} exceeds the {self.params.plaintext_bits}-bit "
                    "OPE domain"
                )
        return tuple(self._ope.encrypt(v) for v in profile.values)

    def encrypt_population(
        self, profiles: Sequence[Profile]
    ) -> Dict[int, Tuple[int, ...]]:
        """Encrypt every profile (one ciphertext tuple per user)."""
        return {p.user_id: self.encrypt_profile(p) for p in profiles}

    def match(
        self,
        ciphertexts: Mapping[int, Sequence[int]],
        query_user: int,
        k: int,
    ) -> List[int]:
        """Server-side kNN over the (single, global) ciphertext group."""
        return knn_match(ciphertexts, query_user, k)

    def leak_key(self) -> bytes:
        """What a single colluding user hands the server (PR-KK setup)."""
        return self.shared_key

    def decrypt_with_key(self, key: bytes, ciphertext: int) -> int:
        """The adversary's decryption once any user colluded."""
        return OPE(key, self.params).decrypt(ciphertext)
