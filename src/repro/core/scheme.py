"""The S-MATCH scheme facade (paper Definition 5 and Figure 3).

``S-MATCH = (Keygen, InitData, Enc, Match, Auth, Vf)``:

* ``Keygen`` / ``InitData`` / ``Enc`` / ``Auth`` / ``Vf`` run on the client
  (this module / :mod:`repro.client`),
* ``Match`` runs on the untrusted server (:mod:`repro.server`), re-exported
  here as :meth:`SMatch.match_in_group` for library use without the
  client/server machinery.

A user's upload is Eq. (3):
``u -> S : ID_u, h(K_up), E_Kup(A'_1) || ... || E_Kup(A'_n)`` plus the
authentication information ``ciph_u``; :class:`EncryptedProfile` is that
message's payload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.chaining import AttributeChainer
from repro.core.entropy import BigJumpMapper
from repro.core.keygen import ProfileKey, ProfileKeygen
from repro.core.matching import knn_match, max_distance_match
from repro.core.profile import Profile, ProfileSchema
from repro.core.verification import AuthInfo, Verifier
from repro.crypto.kdf import sha256
from repro.crypto.modes import AeadCiphertext
from repro.crypto.ope import OPE, OpeParams
from repro.crypto.ope_cache import OpeNodeCache
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
from repro.utils.serial import LENGTH_PREFIX, FieldReader, FieldWriter

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
    """All public parameters of an S-MATCH deployment.

    Attributes:
        schema: the shared profile format.
        theta: RS-decoder threshold (Definition 3 closeness bound).
        plaintext_bits: ``k`` — entropy-increased attribute size in bits.
        ope_expansion_bits: extra ciphertext bits for the OPE range
            (0 reproduces the paper's N = M setting).
        delta: big-jump mapping Delta (None = slot capacity, max entropy).
        parity_symbols: RS parity budget for the fuzzy extractor
            (None = library default).
        order_method: "rank" (Definition 4 literally) or "value" (the
            paper's worked example).
        query_k: number of matching results a query returns (paper uses 5).
    """

    schema: ProfileSchema
    theta: int = 8
    plaintext_bits: int = 64
    ope_expansion_bits: int = 0
    delta: Optional[int] = None
    parity_symbols: Optional[int] = None
    order_method: str = "rank"
    query_k: int = 5

    def __post_init__(self) -> None:
        if self.query_k < 1:
            raise ParameterError("query_k must be >= 1")
        if self.order_method not in ("rank", "value"):
            raise ParameterError("order_method must be 'rank' or 'value'")

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

    # -- wire codec ------------------------------------------------------------
    #
    # The single source of truth for the profile's length-prefixed field
    # layout.  `repro.net.messages.UploadMessage` delegates here, so bytes
    # on the wire are unchanged.

    def encode_fields(self, writer: FieldWriter) -> None:
        """Append the profile's length-prefixed fields to ``writer``."""
        writer.write_raw_fields(self.to_wire_bytes())

    @classmethod
    def decode_fields(cls, reader: FieldReader) -> "EncryptedProfile":
        """Rebuild a profile from fields written by :meth:`encode_fields`."""
        user_id = reader.read_int()
        key_index = reader.read_bytes()
        count = reader.read_int()
        chain = tuple(reader.read_int() for _ in range(count))
        auth_user = reader.read_int()
        sealed = AeadCiphertext.decode(reader.read_bytes())
        return cls(
            user_id=user_id,
            key_index=key_index,
            chain=chain,
            auth=AuthInfo(user_id=auth_user, sealed=sealed),
        )

    def to_wire_bytes(self) -> bytes:
        """The profile's fields as one standalone wire blob.

        Every upload is encoded through this method, so the fields are
        packed by hand instead of through :class:`FieldWriter` method
        dispatch.  The layout is :meth:`decode_fields` in reverse;
        byte-identity with the generic writer path is pinned by the
        upload-message tests.
        """
        pack = LENGTH_PREFIX.pack
        value = self.user_id
        length = (value.bit_length() + 7) // 8 or 1
        parts = [pack(length) + value.to_bytes(length, "big")]
        append = parts.append
        append(pack(len(self.key_index)) + self.key_index)
        chain = self.chain
        value = len(chain)
        length = (value.bit_length() + 7) // 8 or 1
        append(pack(length) + value.to_bytes(length, "big"))
        for value in chain:
            length = (value.bit_length() + 7) // 8 or 1
            append(pack(length) + value.to_bytes(length, "big"))
        value = self.auth.user_id
        length = (value.bit_length() + 7) // 8 or 1
        append(pack(length) + value.to_bytes(length, "big"))
        sealed = self.auth.sealed.encode()
        append(pack(len(sealed)) + sealed)
        return b"".join(parts)


class SMatch:
    """A configured S-MATCH instance: the six algorithms of Definition 5."""

    def __init__(
        self,
        params: SMatchParams,
        oprf_server: Optional[RsaOprfServer] = None,
        mapper: Optional[BigJumpMapper] = None,
        group: Optional[SchnorrGroup] = None,
        rng: Optional[SystemRandomSource] = None,
        ope_cache: Union[OpeNodeCache, bool, None] = None,
    ) -> None:
        self.params = params
        self._rng = rng or SystemRandomSource()
        self.oprf_server = oprf_server or RsaOprfServer(bits=1024, rng=self._rng)
        self.mapper = mapper or BigJumpMapper.uniform(
            params.schema, params.plaintext_bits, params.delta
        )
        if self.mapper.k != params.plaintext_bits:
            raise ParameterError("mapper bit size disagrees with params")
        self.keygen_ = ProfileKeygen(
            params.fuzzy_params, self.oprf_server, rng=self._rng
        )
        self.verifier = Verifier(group)
        # ope_cache: None -> a private default cache, False -> caching off,
        # an OpeNodeCache -> shared with the caller (e.g. with the server's
        # score_table path, or across SMatch instances).  Cached output is
        # bit-identical to uncached, so this is a pure speed knob.
        if ope_cache is False:
            self.ope_cache: Optional[OpeNodeCache] = None
        elif ope_cache is None or ope_cache is True:
            self.ope_cache = OpeNodeCache()
        else:
            self.ope_cache = ope_cache
        # Lazily built, then reused for every batch: process backends key
        # their warm worker pools on context *identity*, so handing the same
        # spec object to each enroll_population call keeps pools warm.
        self._enroll_spec: Optional[Any] = None

    # -- Definition 5 algorithms ------------------------------------------------

    def keygen(
        self, profile: Profile, rng: Optional[SystemRandomSource] = None
    ) -> ProfileKey:
        """``Kup <- Keygen(Au)``: RSD + H + RSA-OPRF."""
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
            ope = OPE(
                key.subkey(b"ope"), self.params.ope_params, cache=self.ope_cache
            )
            chained = chainer.chain(list(mapped))
            return tuple(ope.encrypt(v) for v in chained)

    def auth(
        self,
        profile: Profile,
        key: ProfileKey,
        secret: Optional[int] = None,
        rng: Optional[SystemRandomSource] = None,
    ) -> AuthInfo:
        """``ciph_u <- Auth(u)``: the verification commitment."""
        with span("scheme.auth", user=profile.user_id):
            rng = rng or self._rng
            if secret is None:
                secret = self.verifier.make_secret(rng)
            return self.verifier.auth(profile.user_id, secret, key, rng=rng)

    def verify(self, auth_info: AuthInfo, key: ProfileKey) -> bool:
        """``b <- Vf(ID_v, ciph_v, u)``: check a claimed match."""
        with span("scheme.verify", claimed_user=auth_info.user_id):
            return self.verifier.verify(auth_info, key)

    def match_in_group(
        self,
        group: Mapping[int, EncryptedProfile],
        query_user: int,
        k: Optional[int] = None,
        weights: Optional[Sequence[float]] = None,
    ) -> List[int]:
        """``R <- Match(u, C)`` within one key group (server-side logic).

        ``weights`` optionally emphasize attributes (by chain position);
        the paper's worked example speaks of attributes "with equal
        weights", which is the default.
        """
        with span("scheme.match", group_size=len(group)):
            chains = {uid: ep.chain for uid, ep in group.items()}
            return knn_match(
                chains,
                query_user,
                k if k is not None else self.params.query_k,
                method=self.params.order_method,
                weights=weights,
            )

    def match_within_distance(
        self,
        group: Mapping[int, EncryptedProfile],
        query_user: int,
        max_distance: int,
        weights: Optional[Sequence[float]] = None,
    ) -> List[int]:
        """MAX-distance matching variant."""
        chains = {uid: ep.chain for uid, ep in group.items()}
        return max_distance_match(
            chains,
            query_user,
            max_distance,
            method=self.params.order_method,
            weights=weights,
        )

    # -- convenience -----------------------------------------------------------

    def enroll(
        self,
        profile: Profile,
        secret: Optional[int] = None,
        rng: Optional[SystemRandomSource] = None,
    ) -> Tuple[EncryptedProfile, ProfileKey]:
        """Full client pipeline: Keygen + InitData + Enc + Auth.

        Returns the upload payload and the user's profile key (which the
        user retains for querying and verification).  ``rng`` replaces the
        instance randomness source for this one enrollment — the hook batch
        enrollment uses to make each profile's upload a pure function of its
        per-profile seed.
        """
        with span("scheme.enroll", user=profile.user_id):
            key = self.keygen(profile, rng=rng)
            chain = self.encrypt(profile, key, rng=rng)
            auth_info = self.auth(profile, key, secret, rng=rng)
            payload = EncryptedProfile(
                user_id=profile.user_id,
                key_index=key.index,
                chain=chain,
                auth=auth_info,
            )
            return payload, key

    def enroll_population(
        self,
        profiles: Sequence[Profile],
        backend: Any = None,
        seed: Optional[int] = None,
        chunk_size: Optional[int] = None,
    ) -> Tuple[Dict[int, EncryptedProfile], Dict[int, ProfileKey]]:
        """Enroll many users; returns (uploads by id, keys by id).

        ``backend`` selects the execution substrate (:mod:`repro.parallel`)
        for this call: a backend name (``"serial"``/``"process"``) or
        instance.  Enrollment is OPRF-modexp-bound pure-Python compute, so
        the **process** backend is the one that buys wall-clock speedup
        (see docs/PERFORMANCE.md, "Execution backends").  With
        ``backend=None`` a seeded call runs on a :class:`SerialBackend`.

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
        the instance RNG directly, one profile after another.
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
            for profile in profiles:
                payload, key = self.enroll(profile)
                uploads[profile.user_id] = payload
                keys[profile.user_id] = key
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
