"""The S-MATCH scheme facade (paper Definition 5 and Figure 3).

``S-MATCH = (Keygen, InitData, Enc, Match, Auth, Vf)``:

* ``Keygen`` / ``InitData`` / ``Enc`` / ``Auth`` / ``Vf`` run on the client
  (this module / :mod:`repro.client`),
* ``Match`` runs on the untrusted server (:mod:`repro.server`);
  :meth:`SMatch.match_in_group` runs the same :mod:`repro.core.matching`
  selections over a group of uploads, for library use without the
  client/server machinery.

A user's upload is Eq. (3):
``u -> S : ID_u, h(K_up), E_Kup(A'_1) || ... || E_Kup(A'_n)`` plus the
authentication information ``ciph_u``; :class:`EncryptedProfile` is that
message's payload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.core.chaining import AttributeChainer
from repro.core.entropy import BigJumpMapper
from repro.core.keygen import ProfileKey, ProfileKeygen
from repro.core.matching import knn_match, max_distance_match
from repro.core.profile import Profile, ProfileSchema
from repro.core.verification import AuthInfo, ClaimedMatch, Verifier
from repro.crypto.kdf import sha256
from repro.crypto.ope import OPE, OpeParams
from repro.crypto.oprf import RsaOprfServer
from repro.errors import ParameterError
from repro.ntheory.groups import SchnorrGroup
from repro.rs.fuzzy import FuzzyParams
from repro.obs.instrument import count_op
from repro.obs.metrics import (
    M_ENROLL_BATCH_CHUNKS,
    M_ENROLL_BATCH_PROFILES,
    metric_inc,
)
from repro.obs.trace import span
from repro.utils.rand import SystemRandomSource

__all__ = ["SMatchParams", "EncryptedProfile", "SMatch", "profile_enroll_seed"]


def profile_enroll_seed(seed: int, user_id: int) -> int:
    """The per-profile RNG seed of a seeded batch enrollment.

    A pure function of ``(seed, user_id)`` so the enrollment of one profile
    is independent of batch composition, chunking, and worker scheduling —
    the invariant that makes ``enroll_population(backend=..., seed=s)``
    byte-identical for every backend and worker count.
    """
    digest = sha256(
        b"smatch-enroll-seed",
        repr(int(seed)).encode(),
        repr(int(user_id)).encode(),
    )
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class SMatchParams:
    """The public parameters that shape an upload.

    None of them shapes Match: it has one scoring
    (:func:`repro.core.matching.rank_sum`), and k is the server's
    ``SMatchServer(query_k=)`` or the argument of
    :meth:`SMatch.match_in_group`.  The big-jump Delta is the slot
    capacity (maximum entropy) unless a mapper says otherwise:
    ``SMatch(mapper=BigJumpMapper.uniform(schema, k, delta))``.

    Attributes:
        schema: the shared profile format.
        theta: RS-decoder threshold (Definition 3 closeness bound).
        plaintext_bits: ``k`` — entropy-increased attribute size in bits.
        ope_expansion_bits: extra ciphertext bits for the OPE range
            (0 reproduces the paper's N = M setting).
        parity_symbols: RS parity budget for the fuzzy extractor
            (None = library default).
    """

    schema: ProfileSchema
    theta: int = 8
    plaintext_bits: int = 64
    ope_expansion_bits: int = 0
    parity_symbols: Optional[int] = None

    @property
    def num_attributes(self) -> int:
        """Number of profile attributes."""
        return len(self.schema)

    @property
    def fuzzy_params(self) -> FuzzyParams:
        """The fuzzy-keygen parameters derived from these settings."""
        return FuzzyParams(
            num_attributes=self.num_attributes,
            theta=self.theta,
            parity_symbols=self.parity_symbols,
        )

    @property
    def ope_params(self) -> OpeParams:
        """The OPE domain/range parameters derived from these settings."""
        return OpeParams(
            plaintext_bits=self.plaintext_bits,
            expansion_bits=self.ope_expansion_bits,
        )


@dataclass(frozen=True)
class EncryptedProfile:
    """The payload a user uploads to the untrusted server (Eq. 3)."""

    user_id: int
    key_index: bytes
    chain: Tuple[int, ...]  # per-attribute OPE ciphertexts, chain order
    auth: AuthInfo

    def __post_init__(self) -> None:
        if not self.chain:
            raise ParameterError("encrypted chain must be non-empty")
        if len(self.key_index) != 32:
            raise ParameterError("key index must be 32 bytes")
        if self.auth.user_id != self.user_id:
            raise ParameterError("authenticator bound to a different user")

    def wire_bits(self, id_bits: int, ciphertext_bits: int) -> int:
        """Analytic size on the wire (the paper's Section VII-C formula).

        ``l_id + l_h + l_ciph + d * N`` where ``N`` is the OPE ciphertext
        length and ``l_ciph`` the authenticator length.
        """
        return (
            id_bits
            + len(self.key_index) * 8
            + self.auth.wire_size * 8
            + len(self.chain) * ciphertext_bits
        )


class SMatch:
    """A configured S-MATCH instance: the six algorithms of Definition 5.

    Match (:meth:`match_in_group`, :meth:`match_within_distance`) takes
    its group, its querier and its ``k`` or radius as arguments, as the
    server's matcher does, and selects exactly what the server selects.
    """

    def __init__(
        self,
        params: SMatchParams,
        oprf_server: Optional[RsaOprfServer] = None,
        mapper: Optional[BigJumpMapper] = None,
        group: Optional[SchnorrGroup] = None,
        rng: Optional[SystemRandomSource] = None,
    ) -> None:
        self.params = params
        self._rng = rng or SystemRandomSource()
        self.oprf_server = oprf_server or RsaOprfServer(bits=1024, rng=self._rng)
        self.mapper = mapper or BigJumpMapper.uniform(
            params.schema, params.plaintext_bits
        )
        if self.mapper.k != params.plaintext_bits:
            raise ParameterError("mapper bit size disagrees with params")
        self.keygen_ = ProfileKeygen(
            params.fuzzy_params, self.oprf_server, rng=self._rng
        )
        self.verifier = Verifier(group)
        # Lazily built, then reused for every batch: process backends key
        # their warm worker pools on context *identity*, so handing the same
        # spec object to each enroll_population call keeps pools warm.
        self._enroll_spec: Optional[Any] = None

    # -- Definition 5 algorithms ------------------------------------------------

    def keygen(
        self, profile: Profile, rng: Optional[SystemRandomSource] = None
    ) -> ProfileKey:
        """``Kup <- Keygen(Au)``: RSD + H + RSA-OPRF.

        The operator and experiment path: the OPRF runs against the
        scheme's own :attr:`oprf_server`, which holds the OPRF key.  A
        user's device derives through the key service instead
        (:class:`repro.client.remote_keygen.RemoteKeygenClient`).
        """
        return self.keygen_.derive(profile, rng=rng)

    def init_data(
        self, profile: Profile, rng: Optional[SystemRandomSource] = None
    ) -> List[int]:
        """``Mu <- InitData(Au)``: the entropy-increase step (one-to-N)."""
        with span("scheme.init_data", attributes=len(profile.values)):
            count_op("init_data")
            return self.mapper.map_profile(profile.values, rng=rng or self._rng)

    def encrypt(
        self,
        profile: Profile,
        key: ProfileKey,
        mapped: Optional[Sequence[int]] = None,
        rng: Optional[SystemRandomSource] = None,
    ) -> Tuple[int, ...]:
        """``Cu <- Enc(Mu)``: chain in key-derived random order, then OPE.

        Returns the per-attribute ciphertext chain
        ``E(A'_1) || ... || E(A'_d)``.
        """
        if mapped is None:
            mapped = self.init_data(profile, rng=rng)
        with span("scheme.encrypt", attributes=self.params.num_attributes):
            chainer = AttributeChainer(
                key.subkey(b"chain"),
                self.params.num_attributes,
                self.params.plaintext_bits,
            )
            ope = OPE(key.subkey(b"ope"), self.params.ope_params)
            chained = chainer.chain(list(mapped))
            return tuple(ope.encrypt(v) for v in chained)

    def auth(
        self,
        profile: Profile,
        key: ProfileKey,
        rng: Optional[SystemRandomSource] = None,
    ) -> AuthInfo:
        """``ciph_u <- Auth(u)``: the verification commitment."""
        with span("scheme.auth", user=profile.user_id):
            rng = rng or self._rng
            secret = self.verifier.make_secret(rng)
            return self.verifier.auth(profile.user_id, secret, key, rng=rng)

    def verify(self, auth_info: AuthInfo, key: ProfileKey) -> bool:
        """``b <- Vf(ID_v, ciph_v, u)``: check a claimed match."""
        with span("scheme.verify", claimed_user=auth_info.user_id):
            return self.verifier.verify(auth_info, key)

    def verify_matches(
        self, entries: Sequence[ClaimedMatch], key: ProfileKey
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Vf over one query result: ``(accepted, rejected)`` user ids.

        Every entry is checked under the querier's one ``key``, so one
        ``auth`` cipher serves the whole result (none for an empty one),
        and one AES pass decrypts it (:meth:`Verifier.verify_all`).  An
        entry is accepted only when its authenticator is bound to the
        entry's own user id and passes Vf: another member's authenticator
        under a relabelled id is rejected without running Vf.  Both tuples
        keep result order.
        """
        if not entries:
            return (), ()
        accepted: List[int] = []
        rejected: List[int] = []
        with span("scheme.verify_matches", entries=len(entries)):
            verifier = self.verifier
            cipher = verifier.cipher_for(key)
            bound = [e.auth.user_id == e.user_id for e in entries]
            verdicts = iter(
                verifier.verify_all(
                    [e.auth for e, ok in zip(entries, bound) if ok], cipher
                )
            )
            for entry, ok in zip(entries, bound):
                if ok and next(verdicts):
                    accepted.append(entry.user_id)
                else:
                    rejected.append(entry.user_id)
        return tuple(accepted), tuple(rejected)

    def match_in_group(
        self,
        group: Mapping[int, EncryptedProfile],
        query_user: int,
        k: int,
    ) -> List[int]:
        """``R <- Match(u, C)`` within one key group: the ``k`` users
        :meth:`ProfileStore.match <repro.server.storage.ProfileStore.match>`
        returns for the same group, in the same order."""
        with span("scheme.match", group_size=len(group)):
            chains = {uid: ep.chain for uid, ep in group.items()}
            return knn_match(chains, query_user, k)

    def match_within_distance(
        self,
        group: Mapping[int, EncryptedProfile],
        query_user: int,
        max_distance: int,
    ) -> List[int]:
        """MAX-distance Match within one key group: what
        ``ProfileStore.match_within`` returns for the same group."""
        chains = {uid: ep.chain for uid, ep in group.items()}
        return max_distance_match(chains, query_user, max_distance)

    # -- convenience -----------------------------------------------------------

    def enroll(
        self,
        profile: Profile,
        rng: Optional[SystemRandomSource] = None,
    ) -> Tuple[EncryptedProfile, ProfileKey]:
        """Full client pipeline: Keygen + InitData + Enc + Auth.

        Returns the upload payload and the user's profile key (which the
        user retains for querying and verification).  ``rng`` replaces the
        instance randomness source for this one enrollment — the hook batch
        enrollment uses to make each profile's upload a pure function of its
        per-profile seed.  The one-profile case of :meth:`enroll_each`:
        like :meth:`keygen`, the operator and experiment path, which holds
        the OPRF key.
        """
        [enrolled] = self.enroll_each([(profile, rng)])
        return enrolled

    def enroll_each(
        self, items: Sequence[Tuple[Profile, Optional[SystemRandomSource]]]
    ) -> Iterator[Tuple[EncryptedProfile, ProfileKey]]:
        """:meth:`enroll` for each ``(profile, rng)`` pair, lazily.

        Keygen runs through :meth:`ProfileKeygen.derive_each`, so the batch
        evaluates the OPRF once per distinct key material; that reuse is
        sound only because this path holds the OPRF key.  Each profile's
        Keygen runs when its upload is asked for, inside its own
        ``scheme.enroll`` span: pairs sharing one randomness source draw in
        the one-at-a-time order (Keygen, InitData, Enc, Auth, then the next
        profile).
        """
        keys = self.keygen_.derive_each(items)
        for profile, rng in items:
            with span("scheme.enroll", user=profile.user_id):
                key = next(keys)
                chain = self.encrypt(profile, key, rng=rng)
                auth_info = self.auth(profile, key, rng=rng)
                payload = EncryptedProfile(
                    user_id=profile.user_id,
                    key_index=key.index,
                    chain=chain,
                    auth=auth_info,
                )
            yield payload, key

    def enroll_population(
        self,
        profiles: Sequence[Profile],
        backend: Any = None,
        seed: Optional[int] = None,
        chunk_size: Optional[int] = None,
    ) -> Tuple[Dict[int, EncryptedProfile], Dict[int, ProfileKey]]:
        """Enroll many users; returns (uploads by id, keys by id).

        The operator and experiment path, which holds the OPRF key: each
        batch (a chunk, or the whole call on the sequential path) evaluates
        the OPRF once per distinct key material (:meth:`enroll_each`), so
        op counts depend on ``chunk_size`` as chunk boundaries do; uploads
        and keys do not.

        ``backend`` selects the execution substrate (:mod:`repro.parallel`)
        for this call: a backend name (``"serial"``/``"process"``) or
        instance.  Enrollment is pure-Python compute (the OPE descent,
        blinding, Auth and the OPRF evaluations), so the **process**
        backend is the one that buys wall-clock speedup (see
        docs/PERFORMANCE.md, "Execution backends").  With ``backend=None``
        a seeded call runs on a :class:`SerialBackend`.

        Each profile is enrolled under its own randomness source whose seed
        is a pure function of ``(seed, user_id)`` (:func:`profile_enroll_seed`),
        so a seeded run produces byte-identical uploads for *any* backend,
        worker count, or ``chunk_size`` (default: one balanced slice per
        worker) — the property ``tests/test_scheme_batch.py`` and
        ``tests/test_parallel_backends.py`` pin.  With a backend but
        ``seed=None`` the per-profile seeds are drawn from the scheme RNG up
        front, which keeps the parallel path deterministic under a seeded
        ``SMatch`` and keeps workers off the shared (non-thread-safe)
        source.

        No ``backend`` and no ``seed`` is the fully-sequential path using
        the instance RNG directly, one profile after another, as one batch.
        """
        from repro.parallel import (
            EnrollSpec,
            SerialBackend,
            TaskEnvelope,
            balanced_chunk_size,
            enroll_chunk,
            partition_chunks,
            resolve_backend,
        )

        if chunk_size is not None and chunk_size < 1:
            raise ParameterError("chunk_size must be >= 1")
        profiles = list(profiles)
        uploads: Dict[int, EncryptedProfile] = {}
        keys: Dict[int, ProfileKey] = {}
        metric_inc(M_ENROLL_BATCH_PROFILES, len(profiles))

        if backend is None and seed is None:
            # one shared stream, profile order significant
            for payload, key in self.enroll_each([(p, None) for p in profiles]):
                uploads[payload.user_id] = payload
                keys[payload.user_id] = key
            return uploads, keys
        exec_backend = (
            SerialBackend() if backend is None else resolve_backend(backend)
        )

        if seed is not None:
            seeds = [profile_enroll_seed(seed, p.user_id) for p in profiles]
        else:
            # unseeded parallel run: draw per-profile seeds sequentially so
            # the result is still deterministic under a seeded SMatch and no
            # worker shares the instance source
            seeds = [self._rng.getrandbits(64) for _ in profiles]

        if chunk_size is None:
            chunk_size = balanced_chunk_size(
                len(profiles), exec_backend.workers
            )
        chunks = partition_chunks(list(zip(profiles, seeds)), chunk_size)
        # counted for every backend: chunk fan-out is a property of the
        # batch, not of the substrate, and telemetry must be
        # backend-invariant (the cross-backend equivalence tests pin this)
        metric_inc(M_ENROLL_BATCH_CHUNKS, len(chunks))
        if self._enroll_spec is None:
            self._enroll_spec = EnrollSpec.of(self)
        envelope = TaskEnvelope(
            fn=enroll_chunk,
            context=self._enroll_spec,
            label="scheme.enroll_population",
        )
        for chunk_result in exec_backend.map_chunks(envelope, chunks):
            for user_id, payload, key in chunk_result:
                uploads[user_id] = payload
                keys[user_id] = key
        return uploads, keys
