"""The server-side matching engine (paper Algorithm Match).

``Match(v, C)``:

1. ``C' <- EXTRA(h(K_vp), C)`` — extract the querier's key group,
2. ``C' <- SORT(C')`` — order the group by the Definition-4 score,
3. ``pos <- FIND(v, C')`` — locate the querier,
4. return the ``k`` neighbours around ``pos``.

The engine keeps an **incrementally maintained** sorted order per key group
(see docs/PERFORMANCE.md): the first query of a group pays the full
O(|V| log |V|) sort the paper quotes, after which membership changes arrive
as :class:`~repro.server.storage.ProfileStore` events and are folded in by
``bisect.insort`` instead of re-sorting.  A ``uid -> score`` side table
makes FIND a pure O(log |V|) bisection (no linear scan for the querier's
score).

A member's score (Definition 4's sum of per-attribute ciphertext ranks)
depends on the whole group's distinct value sets, so per chain position the
index keeps a sorted list of the group's distinct values and a dict of how
many members hold each.  A value's rank is its bisection index, and a
member's score is ``sum(map(bisect_left, values, chain))``: one C-level
loop, with no Python call per rank.  Mutations that only touch
already-present values stay fully incremental, while mutations that change
a distinct set mark the group dirty and the next query re-scores every
member from the live columns (``server_rescore``) — still far cheaper than
the from-scratch ``rank_sum`` rebuild (``server_sort``), which only runs
on a cold group.  kNN and MAX-distance then select over the settled
``(score, uid)`` order with the pure functions of
:mod:`repro.core.matching`, the same ones the library's ``knn_match`` and
``max_distance_match`` run.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, List, Tuple

from repro.core.matching import position_window, radius_window, rank_sum
from repro.core.scheme import EncryptedProfile
from repro.errors import ParameterError
from repro.server.storage import ProfileStore
from repro.obs.instrument import count_op
from repro.obs.metrics import M_MATCHER_GROUPS_INDEXED, metric_set
from repro.obs.trace import span

__all__ = ["ServerMatcher"]


class _GroupIndex:
    """The incrementally maintained sorted order of one key group.

    Per chain position, ``values`` holds the sorted distinct ciphertexts
    of the group and ``counts`` how many members hold each; a value's
    dense rank (``rank_sum``'s O()) is its bisection index in ``values``.
    While ``dirty``, ``ordered`` and ``scores`` are stale and left
    untouched; :meth:`snapshot` rescores the group from its live columns.
    """

    __slots__ = ("chains", "values", "counts", "scores", "ordered", "dirty")

    def __init__(self, width: int) -> None:
        # ProfileStore.put refuses a chain whose length differs from the
        # group's before any listener hears of it, so ``width`` holds for
        # the index's life
        self.chains: Dict[int, Tuple[int, ...]] = {}
        self.values: List[List[int]] = [[] for _ in range(width)]
        self.counts: List[Dict[int, int]] = [{} for _ in range(width)]
        self.scores: Dict[int, int] = {}
        self.ordered: List[Tuple[int, int]] = []
        self.dirty = False

    def __len__(self) -> int:
        return len(self.chains)

    def fold(self, chain: Tuple[int, ...]) -> bool:
        """Count one chain into the columns; True when a distinct set grew."""
        grew = False
        for values, counts, value in zip(self.values, self.counts, chain):
            count = counts.get(value, 0)
            counts[value] = count + 1
            if not count:
                insort(values, value)
                grew = True
        return grew

    def add(self, user_id: int, chain: Tuple[int, ...]) -> None:
        """Fold one member in (replacing any previous chain for the id)."""
        if user_id in self.chains:
            self.remove(user_id)
        chain = tuple(chain)
        self.chains[user_id] = chain
        if self.fold(chain) or self.dirty:
            # a distinct set grew: other members' ranks may shift, so the
            # order is settled lazily at the next query
            self.dirty = True
            return
        score = sum(map(bisect_left, self.values, chain))
        self.scores[user_id] = score
        insort(self.ordered, (score, user_id))

    def remove(self, user_id: int) -> None:
        """Fold one member's departure in."""
        chain = self.chains.pop(user_id)
        for values, counts, value in zip(self.values, self.counts, chain):
            count = counts[value] - 1
            if count:
                counts[value] = count
            else:
                del counts[value]
                values.pop(bisect_left(values, value))
                self.dirty = True
        if not self.dirty:
            score = self.scores.pop(user_id)
            self.ordered.pop(bisect_left(self.ordered, (score, user_id)))

    def settle(self, scores: Dict[int, int]) -> None:
        """Install every member's score and the ``(score, uid)`` order."""
        self.scores = scores
        self.ordered = sorted(zip(scores.values(), scores))
        self.dirty = False

    def snapshot(self) -> Tuple[List[Tuple[int, int]], Dict[int, int]]:
        """``(ordered, scores)`` after settling any pending rescore."""
        if self.dirty:
            count_op("server_rescore")
            values = self.values
            self.settle(
                {
                    uid: sum(map(bisect_left, values, chain))
                    for uid, chain in self.chains.items()
                }
            )
        return self.ordered, self.scores


class ServerMatcher:
    """kNN / MAX-distance matching over a :class:`ProfileStore`."""

    def __init__(self, store: ProfileStore) -> None:
        self._store = store
        self._groups: Dict[bytes, _GroupIndex] = {}
        store.add_listener(self)

    # -- store events ---------------------------------------------------------

    def profile_added(self, key_index: bytes, payload: EncryptedProfile) -> None:
        """Store event: a profile entered (or replaced within) a group."""
        index = self._groups.get(key_index)
        if index is None:
            return  # group not indexed yet: built lazily at first query
        count_op("server_index_update")
        index.add(payload.user_id, payload.chain)

    def profile_removed(self, key_index: bytes, user_id: int) -> None:
        """Store event: a profile left a group."""
        index = self._groups.get(key_index)
        if index is None:
            return
        count_op("server_index_update")
        index.remove(user_id)
        if not len(index):
            # a dead group keeps no cached order (the old frozenset cache
            # leaked these entries forever)
            del self._groups[key_index]
            metric_set(M_MATCHER_GROUPS_INDEXED, len(self._groups))

    # -- group index ----------------------------------------------------------

    def _group_index(self, key_index: bytes) -> _GroupIndex:
        index = self._groups.get(key_index)
        if index is not None:
            return index
        group = self._store.group_by_index(key_index)
        with span("server.sort", group_size=len(group)):
            count_op("server_sort")
            chains = {uid: tuple(ep.chain) for uid, ep in group.items()}
            index = _GroupIndex(len(next(iter(chains.values()), ())))
            index.chains = chains
            index.settle(rank_sum(chains))
            for chain in chains.values():
                index.fold(chain)
        self._groups[key_index] = index
        metric_set(M_MATCHER_GROUPS_INDEXED, len(self._groups))
        return index

    # -- queries --------------------------------------------------------------

    def _settled(self, query_user: int) -> Tuple[List[Tuple[int, int]], int]:
        """EXTRA, SORT and FIND: the querier's group order and score."""
        payload = self._store.get(query_user)
        ordered, scores = self._group_index(payload.key_index).snapshot()
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
        """Drop all group indexes (tests use this to exercise the cold path)."""
        self._groups.clear()
        metric_set(M_MATCHER_GROUPS_INDEXED, 0)
