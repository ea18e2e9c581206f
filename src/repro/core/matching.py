"""Matching algorithms over OPE ciphertext chains (paper Definition 4).

The server sees, per user, a chain of per-attribute OPE ciphertexts (all
under the same key within a group).  Definition 4 ranks users by

    ``d(u, v) = sum_i O(A'_i^(u)) - sum_i O(A'_i^(v))``

where ``O()`` is the *order* of an attribute ciphertext among the group.  We
implement both readings found in the paper:

* ``rank_sum`` — O() is the rank of the ciphertext within its attribute
  column (the literal Definition 4; robust to the uneven gaps an OPE range
  has);
* ``value_sum`` — O() is the ciphertext value itself (the paper's worked
  example, "user A has order 20 in total" for chain 12|8).

On top of the scores sit the two matchers the paper names (Section VI cites
kNN matching and MAX-distance matching from Hastie & Tibshirani):
``knn_match`` returns the k closest users; ``max_distance_match`` returns
all users within a score radius.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Hashable, List, Mapping, Sequence, Tuple

from repro.errors import MatchingError, ParameterError
from repro.obs.instrument import count_op
from repro.obs.trace import span

__all__ = [
    "rank_sum",
    "value_sum",
    "score_table",
    "knn_match",
    "max_distance_match",
    "position_window",
]

UserId = Hashable

def rank_sum(chains: Mapping[UserId, Sequence[int]]) -> Dict[UserId, int]:
    """Sum of per-attribute ciphertext ranks for every user.

    Ties get the same rank (dense ranking), so equal ciphertexts contribute
    equal order — two users who mapped into the same slot entry are
    indistinguishable, as intended.  Attributes carry equal weight, as in
    the paper's worked example.
    """
    if not chains:
        return {}
    lengths = {len(c) for c in chains.values()}
    if len(lengths) != 1:
        raise ParameterError(f"inconsistent chain lengths: {sorted(lengths)}")
    (d,) = lengths
    users = list(chains)
    totals: Dict[UserId, int] = {u: 0 for u in users}
    for i in range(d):
        column = sorted({chains[u][i] for u in users})
        rank_of = {value: rank for rank, value in enumerate(column)}
        count_op("server_rank_column")
        for u in users:
            totals[u] += rank_of[chains[u][i]]
    return totals


def value_sum(chains: Mapping[UserId, Sequence[int]]) -> Dict[UserId, int]:
    """Sum of raw ciphertext values (the paper's worked example)."""
    lengths = {len(c) for c in chains.values()}
    if chains and len(lengths) != 1:
        raise ParameterError(f"inconsistent chain lengths: {sorted(lengths)}")
    return {u: sum(c) for u, c in chains.items()}


def score_table(
    chains: Mapping[UserId, Sequence[int]],
    method: str = "rank",
) -> Dict[UserId, int]:
    """Dispatch on the order method: ``"rank"`` or ``"value"``."""
    with span("match.score_table", method=method, users=len(chains)):
        if method == "rank":
            return rank_sum(chains)
        if method == "value":
            return value_sum(chains)
        raise ParameterError(f"unknown order method {method!r}")


def _query_score(
    scores: Mapping[UserId, int], query_user: UserId
) -> int:
    if query_user not in scores:
        raise MatchingError(f"query user {query_user!r} not in the group")
    return scores[query_user]


def knn_match(
    chains: Mapping[UserId, Sequence[int]],
    query_user: UserId,
    k: int,
    method: str = "rank",
) -> List[UserId]:
    """The ``k`` users whose scores are nearest the query user's.

    Mirrors Algorithm Match of the paper: sort the group by score, locate
    the query user, and return the k nearest neighbours (excluding the
    querier).  Distance ties break deterministically by (distance, score,
    repr of id) so results are reproducible.
    """
    if k < 1:
        raise ParameterError("k must be >= 1")
    scores = score_table(chains, method)
    mine = _query_score(scores, query_user)
    count_op("server_sort")
    others = [
        (abs(score - mine), score, repr(u), u)
        for u, score in scores.items()
        if u != query_user
    ]
    others.sort(key=lambda t: t[:3])
    return [u for _, _, _, u in others[:k]]


def position_window(
    ordered: Sequence[Tuple[int, int]],
    my_score: int,
    query_user: int,
    k: int,
) -> List[int]:
    """The paper's position-window selection over a settled group order.

    ``ordered`` is the group's ascending ``(score, user_id)`` order; the
    querier is located by bisection and the ``k`` neighbours closest by
    score distance are taken, breaking window asymmetry toward smaller
    distance (and toward the left on ties) — exactly the loop Algorithm
    Match runs after SORT/FIND.  A pure function of its arguments;
    :meth:`repro.server.matcher.ServerMatcher.match` calls it.
    """
    if k < 1:
        raise ParameterError("k must be >= 1")
    pos = bisect_left(ordered, (my_score, query_user))
    left, right = pos - 1, pos + 1
    chosen: List[int] = []
    while len(chosen) < k and (left >= 0 or right < len(ordered)):
        left_dist = (
            abs(ordered[left][0] - my_score) if left >= 0 else None
        )
        right_dist = (
            abs(ordered[right][0] - my_score)
            if right < len(ordered)
            else None
        )
        take_left = right_dist is None or (
            left_dist is not None and left_dist <= right_dist
        )
        if take_left:
            chosen.append(ordered[left][1])
            left -= 1
        else:
            chosen.append(ordered[right][1])
            right += 1
    return chosen


def max_distance_match(
    chains: Mapping[UserId, Sequence[int]],
    query_user: UserId,
    max_distance: int,
    method: str = "rank",
) -> List[UserId]:
    """All users whose score is within ``max_distance`` of the querier's."""
    if max_distance < 0:
        raise ParameterError("max_distance must be >= 0")
    scores = score_table(chains, method)
    mine = _query_score(scores, query_user)
    count_op("server_sort")
    matches = [
        (abs(score - mine), repr(u), u)
        for u, score in scores.items()
        if u != query_user and abs(score - mine) <= max_distance
    ]
    matches.sort(key=lambda t: t[:2])
    return [u for _, _, u in matches]
