"""The picklable task envelope for seeded bulk enrollment.

:func:`enroll_chunk` is a module-level function of ``(context, chunk)`` so
the :class:`~repro.parallel.backend.ProcessBackend` can pickle it by
reference; its context, an :class:`EnrollSpec`, crosses the process
boundary once per worker (warm start) and is then reused for every chunk.

The spec carries the plain-data ingredients of the caller's
:class:`~repro.core.scheme.SMatch` (params, OPRF key material, mapper,
Schnorr group) but not the live instance, whose RNG is the caller's: each
worker process materializes its own scheme once, with an inert RNG.
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

    ``materialize()`` builds (and memoizes) a scheme per process.  Its
    instance RNG is an inert seeded source — enrollment tasks must pass
    explicit per-profile RNGs, never consume scheme-instance randomness —
    which is why the memo is dropped on pickling: a worker never inherits
    the caller's scheme and its RNG, it builds its own.
    """

    params: SMatchParams
    oprf_server: RsaOprfServer
    mapper: BigJumpMapper
    group: SchnorrGroup
    _scheme: Optional[SMatch] = field(default=None, repr=False, compare=False)

    @classmethod
    def of(cls, scheme: SMatch) -> "EnrollSpec":
        """A spec capturing ``scheme``, memoized so the in-process serial
        backend reuses the live instance."""
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
        state["_scheme"] = None  # workers build their own, with an inert RNG
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
    chunking, worker count, or which process runs the chunk.  The chunk is
    one :meth:`~repro.core.scheme.SMatch.enroll_each` batch: it evaluates
    the OPRF once per distinct key material among its profiles.
    """
    scheme = spec.materialize()
    items = [(profile, SystemRandomSource(seed)) for profile, seed in chunk]
    return [
        (payload.user_id, payload, key)
        for payload, key in scheme.enroll_each(items)
    ]

