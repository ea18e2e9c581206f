"""Encrypted-profile storage, indexed by the hashed profile key, and
the paper's Algorithm Match over it.

The server "first filters the stored encrypted profiles based on h(K_up)"
(paper, Profile Matching step): profiles live in groups keyed by the
32-byte key index, and each user's stored record names their current group
(its ``key_index``), so queries — which carry only ``ID_v`` — can locate
the right group.

Re-uploads replace the user's previous record (users "update [their]
encrypted social profile on the untrusted server periodically"), including
moving them between groups when their profile drifted to a different fuzzy
key.

``Match(v, C)``:

1. ``C' <- EXTRA(h(K_vp), C)`` — extract the querier's key group,
2. ``C' <- SORT(C')`` — order the group by the Definition-4 score,
3. ``pos <- FIND(v, C')`` — locate the querier,
4. return the ``k`` neighbours around ``pos``.

SORT runs once per key group: the first query of a group builds its
:class:`~repro.server.matcher.GroupIndex`, and every later put or remove
in that group folds into the index instead of re-sorting.  kNN and
MAX-distance then select over the settled ``(score, uid)`` order with the
pure functions of :mod:`repro.core.matching`, the same ones the library's
``knn_match`` and ``max_distance_match`` run.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Iterator, List, Mapping, Tuple

from repro.core.matching import position_window, radius_window
from repro.core.scheme import EncryptedProfile
from repro.errors import MatchingError, ParameterError
from repro.obs.instrument import count_op
from repro.obs.metrics import M_MATCHER_GROUPS_INDEXED, metric_set
from repro.server.matcher import GroupIndex

__all__ = ["ProfileStore"]


class ProfileStore:
    """Grouped storage of encrypted profiles, answering Algorithm Match.

    The store keeps a :class:`~repro.server.matcher.GroupIndex` for each
    key group queried since it was last emptied or :meth:`invalidate`
    ran.  :meth:`put` and :meth:`remove` update the touched group's index
    after the stored records change (a replacement as a remove then an
    add, even within one group, so chain changes are never missed), and
    an index is dropped the moment it holds no member.
    """

    def __init__(self) -> None:
        self._groups: Dict[bytes, Dict[int, EncryptedProfile]] = {}
        self._profiles: Dict[int, EncryptedProfile] = {}
        self._profiles_view: Mapping[int, EncryptedProfile] = (
            MappingProxyType(self._profiles)
        )
        self._indexes: Dict[bytes, GroupIndex] = {}

    def __len__(self) -> int:
        return len(self._profiles)

    @property
    def num_groups(self) -> int:
        """Number of distinct key groups."""
        return len(self._groups)

    def put(self, payload: EncryptedProfile) -> None:
        """Insert or replace a user's encrypted profile.

        A chain whose length differs from its group's is rejected before
        anything changes.  A group's stored members all share one length,
        so any one of them decides; only a sole member replacing its own
        record may change the length.
        """
        uid = payload.user_id
        group = self._groups.get(payload.key_index)
        if group is not None and (len(group) > 1 or uid not in group):
            member = next(iter(group.values()))
            if len(member.chain) != len(payload.chain):
                raise ParameterError(
                    "chain length disagrees with the key group"
                )
        old = self._profiles.get(uid)
        previous = old.key_index if old is not None else None
        if previous is not None and previous != payload.key_index:
            old_group = self._groups[previous]
            del old_group[uid]
            if not old_group:
                del self._groups[previous]
        self._groups.setdefault(payload.key_index, {})[uid] = payload
        self._profiles[uid] = payload
        if previous is not None:
            self._unindex(previous, uid)
        index = self._indexes.get(payload.key_index)
        if index is not None:
            count_op("server_index_update")
            index.add(uid, payload.chain)

    def get(self, user_id: int) -> EncryptedProfile:
        """Fetch a stored record; raises when absent."""
        payload = self._profiles.get(user_id)
        if payload is None:
            raise MatchingError(f"unknown user {user_id}")
        return payload

    def remove(self, user_id: int) -> None:
        """Delete a user's record; raises when absent."""
        payload = self._profiles.pop(user_id, None)
        if payload is None:
            raise MatchingError(f"unknown user {user_id}")
        index = payload.key_index
        group = self._groups[index]
        del group[user_id]
        if not group:
            del self._groups[index]
        self._unindex(index, user_id)

    def _unindex(self, key_index: bytes, user_id: int) -> None:
        """Fold a member's departure into its group's index, if any."""
        index = self._indexes.get(key_index)
        if index is None:
            return  # group not indexed yet: built lazily at first query
        count_op("server_index_update")
        index.remove(user_id)
        if not len(index):
            # an emptied group keeps no index: a sole member's re-upload
            # may change the group's chain length
            del self._indexes[key_index]
            metric_set(M_MATCHER_GROUPS_INDEXED, len(self._indexes))

    def group_of(self, user_id: int) -> Dict[int, EncryptedProfile]:
        """The key group containing a user (the h(K_up) filter step)."""
        return dict(self._groups[self.get(user_id).key_index])

    def group_by_index(self, key_index: bytes) -> Dict[int, EncryptedProfile]:
        """The group stored under a key index (possibly empty)."""
        if len(key_index) != 32:
            raise ParameterError("key index must be 32 bytes")
        return dict(self._groups.get(key_index, {}))

    def groups(
        self,
    ) -> Iterator[Tuple[bytes, Mapping[int, EncryptedProfile]]]:
        """Iterate (key index, group contents) pairs.

        Contract: each group is a **read-only live view**, as
        :meth:`all_profiles` is — callers that mutate the store while
        holding one must ``dict()`` it themselves.
        """
        for index, group in self._groups.items():
            yield index, MappingProxyType(group)

    def group_sizes(self) -> Tuple[int, ...]:
        """Sizes of all key groups (the m of the PR-KK bound m/N).

        Contract: an immutable tuple, descending.  The tuple is a
        snapshot: it never changes under the caller's feet.
        """
        return tuple(
            sorted((len(g) for g in self._groups.values()), reverse=True)
        )

    def all_profiles(self) -> Mapping[int, EncryptedProfile]:
        """Every stored record keyed by user id.

        Contract: a **read-only live view** (``MappingProxyType``), not a
        copy — O(1) per call, it tracks subsequent mutations, and callers
        that need a stable snapshot must ``dict()`` it themselves.
        Mutating through the view raises ``TypeError``.
        """
        return self._profiles_view

    def contains(self, user_id: int) -> bool:
        """True when the user has a stored record."""
        return user_id in self._profiles

    # -- Algorithm Match --------------------------------------------------------

    def _settled(self, query_user: int) -> Tuple[List[Tuple[int, int]], int]:
        """EXTRA, SORT and FIND: the querier's group order and score."""
        key_index = self.get(query_user).key_index
        index = self._indexes.get(key_index)
        if index is None:
            index = GroupIndex(self._groups[key_index])
            self._indexes[key_index] = index
            metric_set(M_MATCHER_GROUPS_INDEXED, len(self._indexes))
        ordered, scores = index.snapshot()
        count_op("server_search")
        return ordered, scores[query_user]

    def match(self, query_user: int, k: int) -> List[int]:
        """The k nearest users to ``query_user`` within their key group
        (:func:`~repro.core.matching.position_window`)."""
        if k < 1:
            raise ParameterError("k must be >= 1")
        ordered, my_score = self._settled(query_user)
        return position_window(ordered, my_score, query_user, k)

    def match_within(self, query_user: int, max_distance: int) -> List[int]:
        """MAX-distance matching: all group members within a score radius
        (:func:`~repro.core.matching.radius_window`)."""
        if max_distance < 0:
            raise ParameterError("max_distance must be >= 0")
        ordered, my_score = self._settled(query_user)
        return radius_window(ordered, my_score, query_user, max_distance)

    def invalidate(self) -> None:
        """Drop all group indexes, so the next query of each group runs
        the cold SORT (tests and Fig. 5 time that path)."""
        self._indexes.clear()
        metric_set(M_MATCHER_GROUPS_INDEXED, 0)
