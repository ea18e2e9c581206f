"""The mobile client's end-to-end workflow (paper Figure 2).

Step 1: generate the profile key, increase entropy, chain, encrypt, build
authentication information, and upload.  Step 2/4: submit query requests and
receive results.  Step 5: verify every claimed match with Vf, accepting only
entries whose authenticator opens under the client's own profile key and
passes the commitment check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.keygen import ProfileKey
from repro.core.profile import Profile
from repro.core.scheme import EncryptedProfile, SMatch
from repro.errors import ProtocolError, SchemeError
from repro.net.channel import SecureChannel
from repro.net.messages import QueryRequest, QueryResult, UploadMessage

__all__ = ["MobileClient", "VerifiedMatches"]


@dataclass(frozen=True)
class VerifiedMatches:
    """Outcome of one query after client-side verification.

    Attributes:
        accepted: user IDs whose authenticators passed Vf (trustworthy
            matches with theta-close profiles).
        rejected: user IDs whose authenticators failed Vf — either honest
            noise (a match at the fringe of the key group) or evidence of a
            misbehaving server.
    """

    query_id: int
    accepted: Tuple[int, ...]
    rejected: Tuple[int, ...]

    @property
    def forgery_detected(self) -> bool:
        """True when any returned entry failed verification."""
        return bool(self.rejected)


class MobileClient:
    """One user's device running the S-MATCH client.

    ``key`` adopts a profile key derived elsewhere, for example through the
    networked key service (:class:`repro.client.remote_keygen.RemoteKeygenClient`);
    without it the client derives its key locally on first use.
    """

    def __init__(
        self,
        profile: Profile,
        scheme: SMatch,
        channel: Optional[SecureChannel] = None,
        key: Optional[ProfileKey] = None,
    ) -> None:
        self.profile = profile
        self.scheme = scheme
        self.channel = channel
        self._key = key
        self._payload: Optional[EncryptedProfile] = None
        self._query_counter = 0

    # -- step 1: bootstrap -----------------------------------------------------

    @property
    def key(self) -> ProfileKey:
        """The client's (lazily generated) profile key."""
        if self._key is None:
            self._key = self.scheme.keygen(self.profile)
        return self._key

    def build_upload(self) -> EncryptedProfile:
        """Run InitData + Enc + Auth locally under :attr:`key`.

        An adopted key is used as given; Keygen runs only when the client
        holds no key yet, and then only once.
        """
        key = self.key
        payload = EncryptedProfile(
            user_id=self.profile.user_id,
            key_index=key.index,
            chain=self.scheme.encrypt(self.profile, key),
            auth=self.scheme.auth(self.profile, key),
        )
        self._payload = payload
        return payload

    def upload(self) -> int:
        """Build and send the upload message; returns wire bytes."""
        self._require_channel()
        payload = self.build_upload()
        return self.channel.send(UploadMessage(payload=payload))

    # -- steps 2-5: query and verify ----------------------------------------------

    def query(
        self, timestamp: int, max_distance: Optional[int] = None
    ) -> QueryRequest:
        """Build the next query request ``<q, t, ID_v>``.

        ``max_distance`` switches the server from kNN to MAX-distance
        matching (all group members within the score radius).
        """
        self._query_counter += 1
        return QueryRequest(
            query_id=self._query_counter,
            timestamp=timestamp,
            user_id=self.profile.user_id,
            max_distance=max_distance,
        )

    def send_query(
        self, timestamp: int, max_distance: Optional[int] = None
    ) -> int:
        """Send a query request over the channel; returns wire bytes."""
        self._require_channel()
        return self.channel.send(self.query(timestamp, max_distance))

    def receive_results(self) -> VerifiedMatches:
        """Receive a query result and verify every entry."""
        self._require_channel()
        message = self.channel.recv()
        if not isinstance(message, QueryResult):
            raise ProtocolError(
                f"expected QueryResult, got {type(message).__name__}"
            )
        return self.verify_results(message)

    def verify_results(self, result: QueryResult) -> VerifiedMatches:
        """Step 5: run Vf on every claimed match."""
        if self._key is None:
            raise SchemeError("client has not generated its profile key yet")
        accepted, rejected = self.scheme.verify_matches(
            result.entries, self._key
        )
        return VerifiedMatches(
            query_id=result.query_id, accepted=accepted, rejected=rejected
        )

    def _require_channel(self) -> None:
        if self.channel is None:
            raise ProtocolError("client has no channel attached")
