"""Client-side key generation against the *networked* key service.

:class:`repro.core.keygen.ProfileKeygen` evaluates the OPRF against an
in-process server object; this module runs the same derivation over a
:class:`~repro.net.channel.SecureChannel` to a
:class:`~repro.server.keyservice.KeyGenService` — the deployment shape the
paper describes ("a round of secure communication with the random number
generator").  The blinding guarantees the wire carries nothing the service
(or a wiretap inside the secure channel's endpoints) can link to the
profile.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.core.keygen import ProfileKey
from repro.core.profile import Profile
from repro.crypto.kdf import sha256
from repro.crypto.oprf import BlindingState, RsaOprfClient
from repro.crypto.rsa import RSAPublicKey
from repro.errors import ProtocolError
from repro.net.channel import SecureChannel
from repro.net.oprf_messages import (
    OprfKeyInfo,
    OprfKeyInfoRequest,
    OprfRequest,
    OprfResponse,
)
from repro.rs.fuzzy import FuzzyExtractor, FuzzyParams
from repro.utils.rand import SystemRandomSource

__all__ = ["RemoteKeygenClient"]

#: What :meth:`RemoteKeygenClient.begin_derivation` hands to
#: :meth:`~RemoteKeygenClient.finish_derivation`: the request id, the OPRF
#: client and its blinding.
DerivationState = Tuple[int, RsaOprfClient, BlindingState]


class RemoteKeygenClient:
    """Derives profile keys through the key service's wire protocol."""

    def __init__(
        self,
        fuzzy_params: FuzzyParams,
        channel: SecureChannel,
        rng: Optional[SystemRandomSource] = None,
    ) -> None:
        self.extractor = FuzzyExtractor(fuzzy_params)
        self._channel = channel
        self._rng = rng or SystemRandomSource()
        self._public_key: Optional[RSAPublicKey] = None
        self._request_counter = 0

    def _next_id(self) -> int:
        self._request_counter += 1
        return self._request_counter

    # -- protocol steps ------------------------------------------------------------

    def request_public_key(self) -> int:
        """Send the key-info request; returns the request id."""
        request_id = self._next_id()
        self._channel.send(OprfKeyInfoRequest(request_id=request_id))
        return request_id

    def receive_public_key(self, expected_id: int) -> RSAPublicKey:
        """Consume the key-info response and cache the public key."""
        message = self._channel.recv()
        if not isinstance(message, OprfKeyInfo):
            raise ProtocolError(
                f"expected OprfKeyInfo, got {type(message).__name__}"
            )
        if message.request_id != expected_id:
            raise ProtocolError("key-info response id mismatch")
        self._public_key = RSAPublicKey(
            n=message.modulus, e=message.exponent
        )
        return self._public_key

    @property
    def public_key(self) -> RSAPublicKey:
        """The key service's RSA public parameters."""
        if self._public_key is None:
            raise ProtocolError(
                "public key not fetched yet; run the key-info round first"
            )
        return self._public_key

    def begin_derivation(
        self, profile: Profile, erasures: Optional[Sequence[int]] = None
    ) -> DerivationState:
        """Blind the profile's key material and send the OPRF request.

        Returns the state to pass to :meth:`finish_derivation`.
        """
        k_prime = self.extractor.key_material(
            profile.values, erasures=erasures
        )
        oprf_client = RsaOprfClient(self.public_key, rng=self._rng)
        blinding = oprf_client.blind(k_prime)
        request_id = self._next_id()
        self._channel.send(
            OprfRequest(request_id=request_id, blinded=blinding.blinded)
        )
        return request_id, oprf_client, blinding

    def finish_derivation(self, state: DerivationState) -> ProfileKey:
        """Receive the evaluation, unblind, and assemble the profile key."""
        request_id, oprf_client, blinding = state
        message = self._channel.recv()
        if not isinstance(message, OprfResponse):
            raise ProtocolError(
                f"expected OprfResponse, got {type(message).__name__}"
            )
        if message.request_id != request_id:
            raise ProtocolError("OPRF response id mismatch")
        key = oprf_client.finalize(blinding, message.evaluated)
        return ProfileKey(
            key=key, index=sha256(b"smatch-key-index", key)
        )
