"""Malicious-server models (paper Section V-B, "Malicious server").

A compromised server "does not follow the designated protocol but returns
fake profile matching results to the user".  Each behaviour here corresponds
to a forgery strategy the verification protocol must detect:

* ``FAKE_USERS`` — claim matches from *other* key groups (their genuine
  authenticators cannot be decrypted by the querier's key, so Vf fails);
* ``FORGED_AUTH`` — fabricate authenticator bytes for invented users
  (fails the channel-independent AES-CTR+MAC opening, so Vf fails);
* ``SWAPPED_AUTH`` — return real same-group users but permute their
  authenticators (each decrypts, but the inner hash binds ``p^{s_v * ID_v}``
  to the claimed ID, so Vf fails);
* ``DROP_RESULTS`` — return an empty result despite matches existing
  (detectable at the application layer when a user knows a ground-truth
  friend; included for the availability experiments).

The experiments in ``benchmarks/`` measure the detection rate of Vf against
each behaviour (it is 1.0 for the three forgery modes, by construction of
the commitment).
"""

from __future__ import annotations

import enum
from typing import List, Optional

from repro.core.verification import AuthInfo
from repro.crypto.modes import AeadCiphertext
from repro.errors import MatchingError
from repro.net.messages import QueryRequest, QueryResult, ResultEntry
from repro.server.service import SMatchServer
from repro.utils.rand import SystemRandomSource

__all__ = ["MaliciousBehavior", "MaliciousServer"]


class MaliciousBehavior(enum.Enum):
    """Forgery strategy of a compromised server."""

    FAKE_USERS = "fake_users"
    FORGED_AUTH = "forged_auth"
    SWAPPED_AUTH = "swapped_auth"
    DROP_RESULTS = "drop_results"


class MaliciousServer(SMatchServer):
    """A server that tampers with query results."""

    def __init__(
        self,
        behavior: MaliciousBehavior,
        query_k: int = 5,
        order_method: str = "rank",
        rng: Optional[SystemRandomSource] = None,
    ) -> None:
        super().__init__(query_k=query_k, order_method=order_method)
        self.behavior = behavior
        self._rng = rng or SystemRandomSource()
        self.forgeries_sent = 0

    def handle_query(self, request: QueryRequest) -> QueryResult:
        """Answer honestly, then apply the forgery strategy."""
        honest = super().handle_query(request)
        forged = self._tamper(request, honest)
        if forged.entries != honest.entries:
            self.forgeries_sent += 1
        return forged

    # -- forgery strategies ------------------------------------------------------

    def _tamper(
        self, request: QueryRequest, honest: QueryResult
    ) -> QueryResult:
        if self.behavior is MaliciousBehavior.DROP_RESULTS:
            return QueryResult(
                query_id=honest.query_id,
                timestamp=honest.timestamp,
                entries=(),
            )
        if self.behavior is MaliciousBehavior.FAKE_USERS:
            entries = self._fake_users(request)
        elif self.behavior is MaliciousBehavior.FORGED_AUTH:
            entries = self._forged_auth()
        else:  # SWAPPED_AUTH
            entries = self._swapped_auth(honest)
        return QueryResult(
            query_id=honest.query_id,
            timestamp=honest.timestamp,
            entries=tuple(entries),
        )

    def _fake_users(self, request: QueryRequest) -> List[ResultEntry]:
        """Present users from foreign key groups as matches."""
        store = self.tier.export_store()
        try:
            my_index = store.get(request.user_id).key_index
        except MatchingError:
            my_index = b""  # unknown querier: every group is foreign
        outsiders = [
            payload
            for uid, payload in store.all_profiles().items()
            if payload.key_index != my_index and uid != request.user_id
        ]
        return [
            ResultEntry(user_id=p.user_id, auth=p.auth)
            for p in outsiders[: self.query_k]
        ]

    def _forged_auth(self) -> List[ResultEntry]:
        """Invent users with random authenticator bytes."""
        entries = []
        for _ in range(self.query_k):
            fake_id = self._rng.randrange(1_000_000, 2_000_000)
            sealed = AeadCiphertext(
                iv=self._rng.randbytes(16),
                body=self._rng.randbytes(96),
                tag=self._rng.randbytes(32),
            )
            entries.append(
                ResultEntry(
                    user_id=fake_id,
                    auth=AuthInfo(user_id=fake_id, sealed=sealed),
                )
            )
        return entries

    def _swapped_auth(self, honest: QueryResult) -> List[ResultEntry]:
        """Rotate authenticators across the honest result entries."""
        if len(honest.entries) < 2:
            return list(honest.entries)
        rotated = (
            list(honest.entries[1:]) + [honest.entries[0]]
        )
        return [
            ResultEntry(
                user_id=entry.user_id,
                auth=AuthInfo(
                    user_id=entry.user_id, sealed=donor.auth.sealed
                ),
            )
            for entry, donor in zip(honest.entries, rotated)
        ]
