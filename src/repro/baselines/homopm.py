"""homoPM: Paillier-based fine-grained private matching (ZZS12).

The comparison scheme of the paper's evaluation — Zhang et al.,
"Fine-grained private matching for proximity-based mobile social networking"
(INFOCOM 2012) — computes an l2 profile distance under additively
homomorphic encryption:

* The **initiator** u encrypts her attribute vector twice under her own
  Paillier key: ``E(a_i)`` and ``E(a_i^2)``.
* For each **candidate** v, the homomorphic side computes

      ``E(dist_uv) = prod_i E(a_i^2) * E(a_i)^(-2 b_i) * E(b_i^2)``

  which encrypts ``sum_i (a_i - b_i)^2``, optionally blinded by a random
  ``delta`` (the paper's homoPM description: "plaintexts, which are blinded
  by a random number delta").
* The initiator decrypts the distances and picks the top-k.

In the deployed system this per-candidate computation is the server's
online work (the paper's Fig. 5 "online computation cost ... increases by
the size of users"); the initiator's two encryptions per attribute are the
client cost of Fig. 4(c)-(e).

The Paillier modulus must be wide enough for the squared distances:
``modulus_bits >= 2 * plaintext_bits + log2(d) + blinding slack``, which is
why homoPM's cost necessarily grows with the plaintext size k — the paper's
central performance observation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.crypto.paillier import (
    PaillierCiphertext,
    PaillierKeyPair,
    PaillierPublicKey,
)
from repro.errors import ParameterError
from repro.obs.instrument import count_op
from repro.utils.rand import SystemRandomSource

__all__ = ["HomoPM", "HomoPMQuery"]


@dataclass(frozen=True)
class HomoPMQuery:
    """An initiator's encrypted query: E(a_i) and E(a_i^2) per attribute."""

    public_key: PaillierPublicKey
    enc_values: Tuple[PaillierCiphertext, ...]
    enc_squares: Tuple[PaillierCiphertext, ...]

    @property
    def num_attributes(self) -> int:
        """Number of profile attributes."""
        return len(self.enc_values)

    @property
    def wire_bits(self) -> int:
        """Query size on the wire: 2d elements of Z_{n^2} plus the key."""
        n_bits = self.public_key.n.bit_length()
        return n_bits + 2 * self.num_attributes * 2 * n_bits


class HomoPM:
    """The homoPM protocol with explicit client/server/initiator roles."""

    def __init__(
        self,
        num_attributes: int,
        plaintext_bits: int,
        rng: Optional[SystemRandomSource] = None,
        modulus_bits: Optional[int] = None,
        keypair: Optional[PaillierKeyPair] = None,
    ) -> None:
        if num_attributes < 1:
            raise ParameterError("need at least one attribute")
        if plaintext_bits < 1:
            raise ParameterError("plaintext_bits must be >= 1")
        self.num_attributes = num_attributes
        self.plaintext_bits = plaintext_bits
        self._rng = rng or SystemRandomSource()
        if modulus_bits is None:
            modulus_bits = self.default_modulus_bits(
                num_attributes, plaintext_bits
            )
        self.modulus_bits = modulus_bits
        self.keypair = keypair or PaillierKeyPair.generate(
            bits=modulus_bits, rng=self._rng
        )

    @staticmethod
    def default_modulus_bits(num_attributes: int, plaintext_bits: int) -> int:
        """Modulus sizing: room for the sum of d squared k-bit values plus
        blinding slack, rounded up to a multiple of 128 so standard sizes are
        shared across attribute counts (enables the fixed-parameter cache).
        """
        needed = 2 * plaintext_bits + num_attributes.bit_length() + 64
        return max(256, -(-needed // 128) * 128)

    # -- initiator (client) side ---------------------------------------------------

    def _check_values(self, values: Sequence[int]) -> Sequence[int]:
        if len(values) != self.num_attributes:
            raise ParameterError(
                f"expected {self.num_attributes} attributes, got {len(values)}"
            )
        limit = 1 << self.plaintext_bits
        for v in values:
            if not 0 <= v < limit:
                raise ParameterError(f"value {v} exceeds {self.plaintext_bits} bits")
        return values

    def prepare_query(self, values: Sequence[int]) -> HomoPMQuery:
        """Client-side encryption: 2d Paillier encryptions."""
        values = self._check_values(values)
        pk = self.keypair.public
        count_op("homopm_prepare")
        enc_values = tuple(pk.encrypt(v, self._rng) for v in values)
        enc_squares = tuple(pk.encrypt(v * v, self._rng) for v in values)
        return HomoPMQuery(
            public_key=pk, enc_values=enc_values, enc_squares=enc_squares
        )

    # -- homomorphic (server/responder) side ------------------------------------------

    def distance_ciphertext(
        self, query: HomoPMQuery, candidate_values: Sequence[int]
    ) -> PaillierCiphertext:
        """``E(sum_i (a_i - b_i)^2)`` from the encrypted query and plaintext b."""
        candidate_values = self._check_values(candidate_values)
        pk = query.public_key
        count_op("homopm_pair")
        acc = pk.encrypt(0, self._rng)
        for enc_a, enc_a2, b in zip(
            query.enc_values, query.enc_squares, candidate_values
        ):
            # (a - b)^2 = a^2 - 2ab + b^2
            term = pk.add(enc_a2, pk.mul_plain(enc_a, pk.n - (2 * b) % pk.n))
            term = pk.add_plain(term, b * b)
            acc = pk.add(acc, term)
        return acc

    def match_all(
        self,
        query: HomoPMQuery,
        candidates: Mapping[int, Sequence[int]],
        blind: bool = True,
    ) -> Dict[int, PaillierCiphertext]:
        """The server's online pass: one distance ciphertext per candidate.

        With ``blind=True`` each distance is multiplied by a random positive
        ``delta`` (fresh per query result), which hides distance magnitudes
        while preserving the initiator's ability to rank by relative size
        only when deltas are shared — homoPM's original blinding applies one
        delta per session, which we follow.
        """
        delta = self._rng.randrange(1, 1 << 16) if blind else 1
        out: Dict[int, PaillierCiphertext] = {}
        for uid, values in candidates.items():
            ct = self.distance_ciphertext(query, values)
            if delta != 1:
                ct = query.public_key.mul_plain(ct, delta)
            out[uid] = ct
        return out

    # -- initiator decrypt + rank -------------------------------------------------------

    def decrypt_distances(
        self, encrypted: Mapping[int, PaillierCiphertext]
    ) -> Dict[int, int]:
        """Decrypt every returned distance ciphertext."""
        return {uid: self.keypair.decrypt(ct) for uid, ct in encrypted.items()}

    def top_k(
        self,
        encrypted: Mapping[int, PaillierCiphertext],
        k: int,
        exclude: Optional[int] = None,
    ) -> List[int]:
        """Decrypt and return the k nearest candidate IDs."""
        if k < 1:
            raise ParameterError("k must be >= 1")
        distances = self.decrypt_distances(encrypted)
        ranked = sorted(
            (dist, repr(uid), uid)
            for uid, dist in distances.items()
            if uid != exclude
        )
        return [uid for _, _, uid in ranked[:k]]
