"""The incrementally maintained sorted order of one key group.

:class:`~repro.server.storage.ProfileStore` answers the paper's Algorithm
Match over its stored uploads and keeps one :class:`GroupIndex` per
queried key group (see docs/PERFORMANCE.md): the first query of a group
pays the full O(|V| log |V|) sort the paper quotes, after which the
store folds each membership change into the group's index by
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
the from-scratch ``rank_sum`` build (``server_sort``), which only runs
on a cold group.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, List, Mapping, Tuple

from repro.core.matching import rank_sum
from repro.core.scheme import EncryptedProfile
from repro.obs.instrument import count_op
from repro.obs.trace import span

__all__ = ["GroupIndex"]


class GroupIndex:
    """The incrementally maintained sorted order of one key group.

    Per chain position, ``values`` holds the sorted distinct ciphertexts
    of the group and ``counts`` how many members hold each; a value's
    dense rank (``rank_sum``'s O()) is its bisection index in ``values``.
    While ``dirty``, ``ordered`` and ``scores`` are stale and left
    untouched; :meth:`snapshot` rescores the group from its live columns.
    """

    __slots__ = ("chains", "values", "counts", "scores", "ordered", "dirty")

    def __init__(self, members: Mapping[int, EncryptedProfile]) -> None:
        """Build the index of a stored group from scratch (the paper's
        SORT, counted as ``server_sort``)."""
        with span("server.sort", group_size=len(members)):
            count_op("server_sort")
            chains = {uid: tuple(ep.chain) for uid, ep in members.items()}
            # ProfileStore.put refuses a chain whose length differs from
            # the group's, and drops the index when a sole member's
            # re-upload empties it, so the width holds for the index's life
            width = len(next(iter(chains.values()), ()))
            self.chains: Dict[int, Tuple[int, ...]] = chains
            self.values: List[List[int]] = [[] for _ in range(width)]
            self.counts: List[Dict[int, int]] = [{} for _ in range(width)]
            self.settle(rank_sum(chains))
            for chain in chains.values():
                self.fold(chain)

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
        """Fold one new member in."""
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
