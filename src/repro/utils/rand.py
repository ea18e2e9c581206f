"""Randomness sources.

Two kinds of randomness appear in the library:

* **Deterministic streams** derived from a key and a label via HMAC-SHA256 in
  counter mode.  These make encryption primitives (notably the OPE in
  :mod:`repro.crypto.ope`) pure functions of their key, which both matches the
  pseudorandom-function formulation in the paper and keeps every experiment
  reproducible.
* **System randomness** for key generation, wrapped in a small class so tests
  can substitute a seeded source.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence, Tuple, TypeVar, Union

_T = TypeVar("_T")

from repro.errors import ParameterError
from repro.utils.mac import HmacSha256

__all__ = ["DeterministicStream", "SystemRandomSource", "draw_below"]


def draw_below(
    prf: HmacSha256, label: bytes, counter: int, buffer: bytes, span: int
) -> Tuple[int, int, bytes]:
    """Rejection-sample a uniform integer in ``[0, span)`` from a stream.

    The stream state is ``(counter, buffer)``: the next counter-mode block
    is ``prf.mac(label || counter_be64)``, and ``buffer`` holds the unread
    bytes of the blocks drawn so far.  A candidate is the top
    ``span.bit_length()`` bits of the next ``ceil(bits / 8)`` bytes,
    rejected when it is ``>= span``.  Returns the value and the advanced
    state.  :meth:`DeterministicStream.randrange` and the OPE's node draws
    (from a fresh state, ``0, b""``) both sample through this one loop.
    """
    if span < 1:
        raise ParameterError(f"cannot draw below {span}")
    bits = span.bit_length()
    nbytes = (bits + 7) // 8
    shift = nbytes * 8 - bits
    while True:
        while len(buffer) < nbytes:
            buffer += prf.mac(label + counter.to_bytes(8, "big"))
            counter += 1
        candidate = int.from_bytes(buffer[:nbytes], "big") >> shift
        buffer = buffer[nbytes:]
        if candidate < span:
            return candidate, counter, buffer


class DeterministicStream:
    """An HMAC-SHA256-based deterministic random stream.

    The stream is parameterized by a ``key`` and a ``label``; two streams
    with the same (key, label) produce identical output: block ``i`` is
    ``HMAC-SHA256(key, label || i_be64)``.  ``key`` is raw key bytes or an
    :class:`~repro.utils.mac.HmacSha256` already keyed with them, which
    lets a caller that opens many streams under one key hash its HMAC pads
    once.  It exposes the handful of sampling operations the library needs,
    all implemented by rejection sampling over the raw HMAC output
    (:func:`draw_below`) so the distributions are exact.
    """

    def __init__(
        self, key: Union[bytes, HmacSha256], label: bytes = b""
    ) -> None:
        if isinstance(key, HmacSha256):
            self._prf = key
        elif isinstance(key, (bytes, bytearray)):
            self._prf = HmacSha256(key)
        else:
            raise ParameterError("key must be bytes")
        self._label = bytes(label)
        self._counter = 0
        self._buffer = b""

    def read(self, n: int) -> bytes:
        """Return the next ``n`` bytes of the stream."""
        if n < 0:
            raise ParameterError("cannot read a negative byte count")
        buffer, counter = self._buffer, self._counter
        while len(buffer) < n:
            buffer += self._prf.mac(self._label + counter.to_bytes(8, "big"))
            counter += 1
        self._counter, self._buffer = counter, buffer[n:]
        return buffer[:n]

    def getrandbits(self, bits: int) -> int:
        """Return a uniform integer in ``[0, 2**bits)``."""
        if bits < 0:
            raise ParameterError("bits must be non-negative")
        if bits == 0:
            return 0
        nbytes = (bits + 7) // 8
        value = int.from_bytes(self.read(nbytes), "big")
        return value >> (nbytes * 8 - bits)

    def randrange(self, lo: int, hi: int) -> int:
        """Return a uniform integer in ``[lo, hi)`` via rejection sampling."""
        if hi <= lo:
            raise ParameterError(f"empty range [{lo}, {hi})")
        value, self._counter, self._buffer = draw_below(
            self._prf, self._label, self._counter, self._buffer, hi - lo
        )
        return lo + value

    def randint(self, lo: int, hi: int) -> int:
        """Return a uniform integer in the inclusive range ``[lo, hi]``."""
        return self.randrange(lo, hi + 1)

    def shuffle(self, items: list) -> None:
        """Fisher–Yates shuffle driven by the stream (in place)."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(0, i + 1)
            items[i], items[j] = items[j], items[i]

    def permutation(self, n: int) -> list:
        """Return a pseudorandom permutation of ``range(n)``."""
        perm = list(range(n))
        self.shuffle(perm)
        return perm


class SystemRandomSource:
    """Randomness source for key material.

    Defaults to :class:`random.SystemRandom` (OS entropy).  Constructing with
    a ``seed`` switches to a seeded Mersenne Twister, which tests and the
    benchmark harness use for reproducibility; seeded mode is clearly not
    cryptographic and is labelled as such by :attr:`is_seeded`.
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        self.is_seeded = seed is not None
        self._rng: random.Random
        if seed is None:
            self._rng = random.SystemRandom()
        else:
            self._rng = random.Random(seed)

    def getrandbits(self, bits: int) -> int:
        """Uniform integer in [0, 2**bits)."""
        if bits <= 0:
            raise ParameterError("bits must be positive")
        return self._rng.getrandbits(bits)

    def randbytes(self, n: int) -> bytes:
        """n uniformly random bytes."""
        if n < 0:
            raise ParameterError("cannot draw a negative byte count")
        if n == 0:
            return b""
        return self.getrandbits(n * 8).to_bytes(n, "big")

    def randrange(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi)."""
        if hi <= lo:
            raise ParameterError(f"empty range [{lo}, {hi})")
        return self._rng.randrange(lo, hi)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi]."""
        return self._rng.randint(lo, hi)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._rng.random()

    def choice(self, seq: Sequence[_T]) -> _T:
        """Uniformly chosen element of a non-empty sequence."""
        if not seq:
            raise ParameterError("cannot choose from an empty sequence")
        return self._rng.choice(seq)

    def shuffle(self, items: list) -> None:
        """Shuffle a list in place."""
        self._rng.shuffle(items)

    def sample(self, population: Sequence[_T], k: int) -> list[_T]:
        """k distinct elements sampled without replacement."""
        return self._rng.sample(population, k)

    def gauss(self, mu: float, sigma: float) -> float:
        """Gaussian variate with the given mean and sigma."""
        return self._rng.gauss(mu, sigma)
