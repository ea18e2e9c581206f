"""Encrypted-profile storage, indexed by the hashed profile key.

The server "first filters the stored encrypted profiles based on h(K_up)"
(paper, Profile Matching step): profiles live in groups keyed by the
32-byte key index, and each user's stored record names their current group
(its ``key_index``), so queries — which carry only ``ID_v`` — can locate
the right group.

Re-uploads replace the user's previous record (users "update [their]
encrypted social profile on the untrusted server periodically"), including
moving them between groups when their profile drifted to a different fuzzy
key.
"""

from __future__ import annotations

import weakref
from types import MappingProxyType
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.core.scheme import EncryptedProfile
from repro.errors import MatchingError, ParameterError

__all__ = ["ProfileStore"]


class ProfileStore:
    """Grouped storage of encrypted profiles.

    Mutations are published to registered listeners (weakly referenced, so
    an abandoned listener never outlives its owner) — the hook the
    incremental :class:`~repro.server.matcher.ServerMatcher` uses to fold
    membership changes into its per-group sorted orders without re-sorting.
    A listener provides ``profile_added(key_index, payload)`` and
    ``profile_removed(key_index, user_id)``; events fire *after* the store
    state is consistent, and a replacement upload fires remove-then-add
    (even within one group, so chain changes are never missed).
    """

    def __init__(self) -> None:
        self._groups: Dict[bytes, Dict[int, EncryptedProfile]] = {}
        self._profiles: Dict[int, EncryptedProfile] = {}
        self._profiles_view: Mapping[int, EncryptedProfile] = (
            MappingProxyType(self._profiles)
        )
        self._sizes_cache: Optional[Tuple[int, ...]] = None
        self._listeners: list["weakref.ReferenceType"] = []

    def add_listener(self, listener: object) -> None:
        """Subscribe to profile_added / profile_removed events (weakly)."""
        self._listeners.append(weakref.ref(listener))

    def _live_listeners(self) -> List[object]:
        live = [ref() for ref in self._listeners]
        if any(listener is None for listener in live):
            self._listeners = [
                ref for ref, listener in zip(self._listeners, live)
                if listener is not None
            ]
        return [listener for listener in live if listener is not None]

    def _notify_removed(self, key_index: bytes, user_id: int) -> None:
        for listener in self._live_listeners():
            listener.profile_removed(key_index, user_id)

    def _notify_added(self, payload: EncryptedProfile) -> None:
        for listener in self._live_listeners():
            listener.profile_added(payload.key_index, payload)

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
        self._sizes_cache = None
        if previous is not None:
            self._notify_removed(previous, uid)
        self._notify_added(payload)

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
        self._sizes_cache = None
        self._notify_removed(index, user_id)

    def group_of(self, user_id: int) -> Dict[int, EncryptedProfile]:
        """The key group containing a user (the h(K_up) filter step)."""
        return dict(self._groups[self.get(user_id).key_index])

    def group_by_index(self, key_index: bytes) -> Dict[int, EncryptedProfile]:
        """The group stored under a key index (possibly empty)."""
        if len(key_index) != 32:
            raise ParameterError("key index must be 32 bytes")
        return dict(self._groups.get(key_index, {}))

    def groups(self) -> Iterator[Tuple[bytes, Dict[int, EncryptedProfile]]]:
        """Iterate (key index, group contents) pairs."""
        for index, group in self._groups.items():
            yield index, dict(group)

    def group_sizes(self) -> Tuple[int, ...]:
        """Sizes of all key groups (the m of the PR-KK bound m/N).

        Contract: an immutable tuple, descending, **computed lazily and
        cached** — repeated calls between mutations (hot in benchmarks and
        the adversary model) cost one attribute read.  The tuple is a
        snapshot: it never changes under the caller's feet.
        """
        sizes = self._sizes_cache
        if sizes is None:
            sizes = self._sizes_cache = tuple(
                sorted((len(g) for g in self._groups.values()), reverse=True)
            )
        return sizes

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
