"""Fuzzy profile-key generation (paper Algorithm Keygen).

``Keygen(Au)``:

1. ``T(u) <- RSD(Au, theta)`` — quantize + Reed-Solomon decode the profile
   to its fuzzy vector (:mod:`repro.rs.fuzzy`),
2. ``K' <- H(T(u))``,
3. ``Kup <- RSA-OPRF(K')`` — strengthen through the oblivious PRF so an
   offline attacker cannot brute-force candidate profiles into keys, and the
   OPRF server learns nothing about the profile.

Users with distance-close profiles (Definition 3) obtain the *same* profile
key, which is what confines a key-compromise to one similarity cluster
(the PR-KK bound m/N of Theorem 2) and lets the server group ciphertexts
without learning profile contents.

The server-side index is ``h(Kup)`` — the hashed key from the upload message
of Eq. (3) — never the key itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

from repro.core.profile import Profile
from repro.crypto.kdf import hkdf, sha256
from repro.crypto.oprf import RsaOprfClient, RsaOprfServer
from repro.errors import ParameterError
from repro.rs.fuzzy import FuzzyExtractor, FuzzyParams
from repro.obs.instrument import count_op
from repro.obs.trace import span
from repro.utils.ct import constant_time_eq
from repro.utils.rand import SystemRandomSource

__all__ = ["ProfileKey", "ProfileKeygen"]


@dataclass(frozen=True, eq=False)
class ProfileKey:
    """A derived profile key and its public server-side index."""

    key: bytes
    index: bytes

    def __post_init__(self) -> None:
        if len(self.key) != 32 or len(self.index) != 32:
            raise ParameterError("profile key and index must be 32 bytes")

    def __eq__(self, other: object) -> bool:
        # value equality, but without the dataclass-generated short-circuit
        # bytes compare: the key is secret material (bitwise & so both
        # field comparisons run regardless of the first outcome)
        if not isinstance(other, ProfileKey):
            return NotImplemented
        return constant_time_eq(self.key, other.key) & constant_time_eq(
            self.index, other.index
        )

    def __hash__(self) -> int:
        # hash only the public index: equal keys hash equal, and nothing
        # secret feeds Python's (non-constant-time) hash machinery
        return hash((ProfileKey, self.index))

    @classmethod
    def of(cls, key: bytes) -> "ProfileKey":
        """The profile key for an OPRF output, indexed by ``h(Kup)``.

        Every derivation path builds its key here, so keys derived over
        the wire land in the same groups as operator-enrolled ones.
        """
        return cls(key=key, index=sha256(b"smatch-key-index", key))

    def subkey(self, purpose: bytes) -> bytes:
        """Derive an independent purpose-bound key (OPE, AES, chaining)."""
        return hkdf(self.key, info=b"smatch-subkey|" + purpose, length=32)


class ProfileKeygen:
    """Key generation against an in-process OPRF server.

    This is the operator and experiment path: ``oprf_server`` is an
    :class:`RsaOprfServer` holding the private exponent ``d``, so whoever
    runs this class holds the OPRF key.  That is why :meth:`derive_each`
    may reuse one evaluation for every profile of a batch with the same
    key material: it learns nothing it could not compute itself.  A user's
    own device derives through the key service instead
    (:class:`repro.client.remote_keygen.RemoteKeygenClient`).
    """

    def __init__(
        self,
        fuzzy_params: FuzzyParams,
        oprf_server: RsaOprfServer,
        rng: Optional[SystemRandomSource] = None,
    ) -> None:
        self.extractor = FuzzyExtractor(fuzzy_params)
        self._oprf_server = oprf_server
        self._rng = rng or SystemRandomSource()

    def derive(
        self,
        profile: Profile,
        rng: Optional[SystemRandomSource] = None,
    ) -> ProfileKey:
        """Run the full Keygen pipeline for a profile.

        ``rng`` overrides the instance randomness source for this one call
        (batch enrollment hands every profile its own deterministic source).
        The one-profile case of :meth:`derive_each`.
        """
        [key] = self.derive_each([(profile, rng)])
        return key

    def derive_each(
        self, items: Iterable[Tuple[Profile, Optional[SystemRandomSource]]]
    ) -> Iterator[ProfileKey]:
        """Keygen for each ``(profile, rng)`` pair, one OPRF evaluation per
        distinct key material.

        Profiles whose fuzzy vectors agree share ``K' = H(T(v))`` and so
        share the profile key: the first with a given ``K'`` runs evaluate
        and finalize, and later ones reuse its result.  Every profile still
        blinds, because that draw is the first use of its randomness
        source; skipping it would make an upload depend on which profiles
        share its batch.  Keys are derived lazily, one per ``next``, so a
        caller drawing from a shared source between keys keeps the
        one-profile-at-a-time draw order.  The reuse table lives and dies
        with the generator.
        """
        server = self._oprf_server
        evaluated: Dict[bytes, bytes] = {}
        for profile, rng in items:
            with span("keygen.derive", user=profile.user_id):
                count_op("keygen")
                with span("keygen.fuzzy_extract"):
                    k_prime = self.extractor.key_material(profile.values)
                with span("keygen.oprf"):
                    client = RsaOprfClient(
                        server.public_key, rng=rng or self._rng
                    )
                    state = client.blind(k_prime)
                    key = evaluated.get(k_prime)
                    if key is None:
                        response = server.evaluate_blinded(state.blinded)
                        key = evaluated[k_prime] = client.finalize(
                            state, response
                        )
                derived = ProfileKey.of(key)
            yield derived

    def derive_from_values(self, values: Sequence[int]) -> bytes:
        """Key material only (no OPRF round): ``K' = H(T(v))``.

        Used by the attack models, which assume the adversary has *not*
        interacted with the OPRF server — exactly the offline brute-force the
        OPRF blocks.
        """
        return self.extractor.key_material(values)
