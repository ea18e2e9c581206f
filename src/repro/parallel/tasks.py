"""The picklable task envelope for seeded bulk enrollment.

:func:`enroll_chunk` is a module-level function of ``(context, chunk)`` so
the :class:`~repro.parallel.backend.ProcessBackend` can pickle it by
reference; its context, an :class:`EnrollSpec`, crosses the process
boundary once per worker (warm start) and is then reused for every chunk.

The live :class:`~repro.core.scheme.SMatch` instance is *not* picklable
(its OPE node cache holds a lock), so the spec carries only the plain-data
ingredients (params, OPRF key material, mapper, Schnorr group) and each
worker process materializes its own scheme once, with its own cache.
Determinism is carried entirely by the per-profile integer seeds inside
the chunk items (:func:`repro.core.scheme.profile_enroll_seed`), so the
output bytes do not depend on which process enrolls which chunk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.entropy import BigJumpMapper
from repro.core.keygen import ProfileKey
from repro.core.profile import Profile
from repro.core.scheme import EncryptedProfile, SMatch, SMatchParams
from repro.crypto.oprf import RsaOprfServer
from repro.ntheory.groups import SchnorrGroup
from repro.utils.rand import SystemRandomSource

__all__ = ["EnrollSpec", "enroll_chunk"]


@dataclass
class EnrollSpec:
    """The picklable ingredients of an :class:`SMatch` instance.

    ``materialize()`` builds (and memoizes) a scheme per process; the memo
    is dropped on pickling so worker copies always build their own scheme
    with a fresh OPE cache.  The materialized scheme's instance RNG is an
    inert seeded source — enrollment tasks must pass explicit per-profile
    RNGs, never consume scheme-instance randomness.
    """

    params: SMatchParams
    oprf_server: RsaOprfServer
    mapper: BigJumpMapper
    group: SchnorrGroup
    _scheme: Optional[SMatch] = field(default=None, repr=False, compare=False)

    @classmethod
    def of(cls, scheme: SMatch) -> "EnrollSpec":
        """A spec capturing ``scheme``, memoized so the in-process serial
        backend reuses the live instance and its warm OPE cache."""
        spec = cls(
            params=scheme.params,
            oprf_server=scheme.oprf_server,
            mapper=scheme.mapper,
            group=scheme.verifier.group,
        )
        spec._scheme = scheme
        return spec

    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        state["_scheme"] = None  # workers build their own (cache has a lock)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)

    def materialize(self) -> SMatch:
        """The scheme for this process, built once and reused per chunk."""
        if self._scheme is None:
            self._scheme = SMatch(
                self.params,
                oprf_server=self.oprf_server,
                mapper=self.mapper,
                group=self.group,
                rng=SystemRandomSource(0),
            )
        return self._scheme


def enroll_chunk(
    spec: EnrollSpec, chunk: Sequence[Tuple[Profile, int]]
) -> List[Tuple[int, EncryptedProfile, ProfileKey]]:
    """Enroll ``(profile, seed)`` pairs against the warm per-process scheme.

    Each profile is enrolled under its own seeded randomness source, so the
    result bytes depend only on the ``(profile, seed)`` pair — not on
    chunking, worker count, or which process runs the chunk.
    """
    scheme = spec.materialize()
    out: List[Tuple[int, EncryptedProfile, ProfileKey]] = []
    for profile, seed in chunk:
        payload, key = scheme.enroll(profile, rng=SystemRandomSource(seed))
        out.append((profile.user_id, payload, key))
    if scheme.ope_cache is not None:
        # flush cache counter deltas to whichever registry is active here —
        # the worker-local one under process fan-out, the shared one
        # otherwise — so merged totals match the serial run exactly
        # (cache entries are namespaced per profile key, making hit/miss
        # counts chunk-local and backend-invariant)
        scheme.ope_cache.flush_metrics()
    return out

