"""Algorithm Match over OPE ciphertext chains (paper §VI, Definition 4).

The server sees, per user, a chain of per-attribute OPE ciphertexts (all
under the same key within a group).  Definition 4 ranks users by

    ``d(u, v) = sum_i O(A'_i^(u)) - sum_i O(A'_i^(v))``

where ``O()`` is the *order* of an attribute ciphertext among the group.
This module is the one definition of Match that the server
(:meth:`repro.server.storage.ProfileStore.match`) and the library
(:func:`knn_match`, :func:`max_distance_match`, ``SMatch.match_in_group``)
share:

* **Scoring** — :func:`rank_sum`: O() is the dense rank of a ciphertext
  within its attribute column, so equal ciphertexts score equally and the
  uneven gaps of an OPE range carry no weight.  The paper's worked example
  ("user A has order 20 in total" for chain 12|8) sums the raw values
  instead; on its three users, ranks still make B the nearest to A.
* **Selection** — two pure functions over the group's ascending
  ``(score, user_id)`` order, the two matchers the paper names (§VI cites
  kNN and MAX-distance matching from Hastie & Tibshirani):
  :func:`position_window` takes the ``k`` neighbours around the querier's
  position, :func:`radius_window` every member within a score radius.

The server runs the two selections over its incremental group index
(:class:`repro.server.matcher.GroupIndex`);
:func:`knn_match` and :func:`max_distance_match` run them over a group
given as chains, so both return the same users in the same order.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.errors import MatchingError, ParameterError
from repro.obs.instrument import count_op
from repro.obs.trace import span

__all__ = [
    "rank_sum",
    "knn_match",
    "max_distance_match",
    "position_window",
    "radius_window",
]


def rank_sum(chains: Mapping[int, Sequence[int]]) -> Dict[int, int]:
    """Sum of per-attribute ciphertext ranks for every user.

    Ties get the same rank (dense ranking), so equal ciphertexts contribute
    equal order — two users who mapped into the same slot entry are
    indistinguishable, as intended.  Attributes carry equal weight, as in
    the paper's worked example.
    """
    with span("match.rank_sum", users=len(chains)):
        if not chains:
            return {}
        lengths = {len(c) for c in chains.values()}
        if len(lengths) != 1:
            raise ParameterError(
                f"inconsistent chain lengths: {sorted(lengths)}"
            )
        (d,) = lengths
        users = list(chains)
        totals: Dict[int, int] = {u: 0 for u in users}
        for i in range(d):
            column = sorted({chains[u][i] for u in users})
            rank_of = {value: rank for rank, value in enumerate(column)}
            count_op("server_rank_column")
            for u in users:
                totals[u] += rank_of[chains[u][i]]
        return totals


def position_window(
    ordered: Sequence[Tuple[int, int]],
    my_score: int,
    query_user: int,
    k: int,
) -> List[int]:
    """kNN selection: the paper's position window over a settled order.

    ``ordered`` is the group's ascending ``(score, user_id)`` order; the
    querier is located by bisection and the ``k`` neighbours closest by
    score distance are taken, breaking window asymmetry toward smaller
    distance (and toward the left on ties) — exactly the loop Algorithm
    Match runs after SORT/FIND.
    """
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


def radius_window(
    ordered: Sequence[Tuple[int, int]],
    my_score: int,
    query_user: int,
    max_distance: int,
) -> List[int]:
    """MAX-distance selection: every member within a score radius.

    ``ordered`` is the group's ascending ``(score, user_id)`` order, and
    the result keeps it, without the querier.  Scores are ints, so the
    radius is an index range: a 1-tuple sorts before any same-score pair.
    """
    lo = bisect_left(ordered, (my_score - max_distance,))
    hi = bisect_left(ordered, (my_score + max_distance + 1,))
    return [uid for _, uid in ordered[lo:hi] if uid != query_user]


def _settled(
    chains: Mapping[int, Sequence[int]], query_user: int
) -> Tuple[List[Tuple[int, int]], int]:
    """The group's ascending ``(score, user_id)`` order and the querier's
    score."""
    scores = rank_sum(chains)
    if query_user not in scores:
        raise MatchingError(f"query user {query_user!r} not in the group")
    count_op("server_sort")
    return sorted(zip(scores.values(), scores)), scores[query_user]


def knn_match(
    chains: Mapping[int, Sequence[int]], query_user: int, k: int
) -> List[int]:
    """The ``k`` users nearest the query user by score (excluding it).

    What :meth:`ProfileStore.match` returns for the same group.
    """
    if k < 1:
        raise ParameterError("k must be >= 1")
    ordered, my_score = _settled(chains, query_user)
    return position_window(ordered, my_score, query_user, k)


def max_distance_match(
    chains: Mapping[int, Sequence[int]], query_user: int, max_distance: int
) -> List[int]:
    """All users whose score is within ``max_distance`` of the querier's.

    What :meth:`ProfileStore.match_within` returns for the same group.
    """
    if max_distance < 0:
        raise ParameterError("max_distance must be >= 0")
    ordered, my_score = _settled(chains, query_user)
    return radius_window(ordered, my_score, query_user, max_distance)
