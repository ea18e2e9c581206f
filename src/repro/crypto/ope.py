"""Order-preserving encryption (OPE).

A deterministic, stateless OPE in the style of Boldyreva et al. (EUROCRYPT
2009) as used by CryptDB, which the paper's implementation is based on: the
ciphertext of ``m`` is found by a binary descent over the plaintext domain,
where at every node a pseudorandom split point divides the remaining
ciphertext range between the two halves of the remaining plaintext domain.
All pseudorandomness is derived from the key via HMAC-SHA256, so ``Enc`` is
a pure function of ``(key, m)`` and strictly monotone in ``m``.  A node's
split point is ``DeterministicStream(key, label).randint(lo, hi)`` for the
label ``tag|dlo|dhi|rlo|rhi`` (see :class:`repro.utils.rand.DeterministicStream`).
An :class:`OPE` hashes its key's HMAC pads once
(:class:`repro.utils.mac.HmacSha256`) and draws each node straight from a
fresh stream state with :func:`repro.utils.rand.draw_below`, the stream's
own rejection loop, so a level costs one HMAC finish and one draw and no
stream object.  A 64-bit descent walks 64 levels (counted once per walk as
``ope_level``); at the default 16-bit expansion about 57 of them draw, the
rest are forced.

Split-point distributions:

* ``"uniform"`` (default): the split is uniform over its feasible interval.
  This yields a pseudorandom order-preserving function with the same leakage
  profile (order and nothing else, modulo distributional distance) at any
  domain size, in O(k) PRF calls per operation even for 2048-bit plaintexts.
* ``"hypergeometric"``: the split follows the exact law of a random
  order-preserving function (the negative hypergeometric recursion of
  Boldyreva et al.), sampled by inverse CDF.  Exact-reference mode for
  moderate domains; the ablation benchmark compares the two.

When the ciphertext range equals the plaintext range (the paper's
"ciphertext range in OPE is set as the same as the plaintext range",
``expansion_bits = 0``) the only order-preserving injection is the identity
and both modes degenerate to it: every split and leaf is forced, so
:meth:`OPE.encrypt` and :meth:`OPE.decrypt` return their input at once,
after the same range check and with the same ``ope_level`` count as a
walk.  The default adds 16 bits of expansion.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from repro.errors import CiphertextError, KeyError_, ParameterError
from repro.obs.instrument import count_op
from repro.obs.trace import span
from repro.utils.mac import HmacSha256
from repro.utils.rand import DeterministicStream, draw_below

__all__ = ["OpeParams", "OPE", "AdaptiveOPE"]

_SPLITS = ("uniform", "hypergeometric")


def _label(tag: bytes, dlo: int, dhi: int, rlo: int, rhi: int) -> bytes:
    """A node's stream label ``tag|dlo|dhi|rlo|rhi``, each bound minimal
    big-endian (one zero byte for 0)."""
    return b"|".join((
        tag,
        dlo.to_bytes((dlo.bit_length() + 7) // 8 or 1, "big"),
        dhi.to_bytes((dhi.bit_length() + 7) // 8 or 1, "big"),
        rlo.to_bytes((rlo.bit_length() + 7) // 8 or 1, "big"),
        rhi.to_bytes((rhi.bit_length() + 7) // 8 or 1, "big"),
    ))


@dataclass(frozen=True)
class OpeParams:
    """OPE domain/range parameters.

    Attributes:
        plaintext_bits: domain is ``[0, 2**plaintext_bits)``.
        expansion_bits: the range has this many extra bits.
        split: ``"uniform"`` or ``"hypergeometric"`` (see module docstring).
    """

    plaintext_bits: int
    expansion_bits: int = 16
    split: str = "uniform"

    def __post_init__(self) -> None:
        if self.plaintext_bits < 1:
            raise ParameterError("plaintext_bits must be >= 1")
        if self.expansion_bits < 0:
            raise ParameterError("expansion_bits must be >= 0")
        if self.split not in _SPLITS:
            raise ParameterError(f"split must be one of {_SPLITS}")
        if self.split == "hypergeometric" and self.plaintext_bits > 24:
            raise ParameterError(
                "hypergeometric reference mode supports at most 24-bit "
                "domains; use the uniform split for larger plaintexts"
            )

    @property
    def ciphertext_bits(self) -> int:
        """Ciphertext size in bits."""
        return self.plaintext_bits + self.expansion_bits

    @property
    def domain_size(self) -> int:
        """Number of plaintext values in the domain."""
        return 1 << self.plaintext_bits

    @property
    def range_size(self) -> int:
        """Number of ciphertext values in the range."""
        return 1 << self.ciphertext_bits


def _hypergeometric_logpmf(k: int, total: int, good: int, draws: int) -> float:
    """Log-PMF of Hypergeometric(total, good, draws) via log-gamma."""
    return (
        math.lgamma(good + 1)
        - math.lgamma(k + 1)
        - math.lgamma(good - k + 1)
        + math.lgamma(total - good + 1)
        - math.lgamma(draws - k + 1)
        - math.lgamma(total - good - draws + k + 1)
        - (
            math.lgamma(total + 1)
            - math.lgamma(draws + 1)
            - math.lgamma(total - draws + 1)
        )
    )


def _hypergeometric_ppf(u: float, total: int, good: int, draws: int) -> int:
    """Inverse CDF of Hypergeometric(total, good, draws) at ``u``.

    A linear CDF walk from the lower support end, with the PMF advanced by
    the one-multiply/one-divide ratio recurrence

        P(k+1) = P(k) * (good - k)(draws - k)
                      / ((k + 1)(total - good - draws + k + 1))

    instead of six log-gamma evaluations per step.  Only the first term (and
    terms in the far tail below the normal float range, where the unimodal
    PMF climbs back toward representability) pays the log-gamma price, so
    the walk costs O(range) cheap float ops — the walk length itself is
    bounded by the reference-mode domain cap on ``OpeParams``.
    """
    lo = max(0, draws - (total - good))
    hi = min(draws, good)
    term = math.exp(_hypergeometric_logpmf(lo, total, good, draws))
    acc = term
    if u <= acc:
        return lo
    for k in range(lo, hi):
        if term < sys.float_info.min:
            # far-tail underflow: a zero or subnormal term carries almost no
            # significant bits, and the recurrence would drag that error
            # through the rest of the walk — re-anchor from the exact
            # log-PMF until the mass is back in the normal float range
            term = math.exp(_hypergeometric_logpmf(k + 1, total, good, draws))
        else:
            term *= (good - k) * (draws - k)
            term /= (k + 1) * (total - good - draws + k + 1)
        acc += term
        if u <= acc:
            return k + 1
    return hi


class OPE:
    """Deterministic order-preserving encryption under a symmetric key."""

    KEY_SIZE = 32

    def __init__(self, key: bytes, params: OpeParams) -> None:
        if len(key) < 16:
            raise KeyError_("OPE key must be at least 16 bytes")
        # every node, leaf and hypergeometric draw is keyed by this one
        # object, so the key's HMAC pads are hashed once per OPE
        self._prf = HmacSha256(bytes(key))
        self.params = params

    # -- internal: pseudorandom choices ---------------------------------------

    def _draw(
        self, tag: bytes, dlo: int, dhi: int, rlo: int, rhi: int, lo: int, hi: int
    ) -> int:
        """``DeterministicStream(key, label).randint(lo, hi)`` for the node's
        label ``tag|dlo|dhi|rlo|rhi`` (minimal big-endian bounds), drawn
        from a fresh stream state without building the stream."""
        return lo + draw_below(
            self._prf, _label(tag, dlo, dhi, rlo, rhi), 0, b"", hi - lo + 1
        )[0]

    def _split_point(
        self, dlo: int, dhi: int, rlo: int, rhi: int
    ) -> int:
        """The last range value allocated to the left half of the domain.

        Feasibility: the left half ``[dlo, dmid]`` needs at least
        ``dmid - dlo + 1`` range values, the right half at least
        ``dhi - dmid``.
        """
        dmid = (dlo + dhi) // 2
        left_need = dmid - dlo + 1
        right_need = dhi - dmid
        lo = rlo + left_need - 1
        hi = rhi - right_need
        if lo == hi:
            return lo
        if self.params.split == "uniform":
            return self._draw(b"node", dlo, dhi, rlo, rhi, lo, hi)
        # Hypergeometric: of the (rhi-rlo+1) range values, the left domain
        # half receives `left_extra` of the slack positions according to the
        # random-OPF law.
        stream = DeterministicStream(
            self._prf, _label(b"node", dlo, dhi, rlo, rhi)
        )
        total = rhi - rlo + 1
        domain = (dhi - dlo + 1)
        u = stream.getrandbits(53) / float(1 << 53)
        # Sample how many range values go left: law of the left_need-th order
        # statistic; the classic Boldyreva recursion samples
        # x ~ HG(range+domain-ish). We sample the count of range slots on the
        # left as `left_need + HG(slack split proportional to domain split)`.
        slack = total - domain
        left_slack = _hypergeometric_ppf(u, slack + domain, slack, left_need)
        return min(hi, max(lo, rlo + left_need - 1 + left_slack))

    def _leaf_value(self, m: int, rlo: int, rhi: int) -> int:
        if rlo == rhi:
            return rlo
        return self._draw(b"leaf", m, m, rlo, rhi, rlo, rhi)

    # -- public API --------------------------------------------------------------

    def encrypt(self, m: int) -> int:
        """Encrypt ``m``; strictly monotone in ``m`` for a fixed key."""
        p = self.params
        if not 0 <= m < p.domain_size:
            raise ParameterError(
                f"plaintext {m} outside [0, 2^{p.plaintext_bits})"
            )
        with span("ope.encrypt", bits=p.plaintext_bits):
            # halving a power-of-two domain takes one level per plaintext bit
            count_op("ope_level", p.plaintext_bits)
            if p.expansion_bits == 0:
                return m  # every split is forced: the identity
            dlo, dhi = 0, p.domain_size - 1
            rlo, rhi = 0, p.range_size - 1
            while dlo < dhi:
                dmid = (dlo + dhi) // 2
                rmid = self._split_point(dlo, dhi, rlo, rhi)
                if m <= dmid:
                    dhi, rhi = dmid, rmid
                else:
                    dlo, rlo = dmid + 1, rmid + 1
            return self._leaf_value(dlo, rlo, rhi)

    def decrypt(self, c: int) -> int:
        """Invert :meth:`encrypt`; raises on values not in the image."""
        p = self.params
        if not 0 <= c < p.range_size:
            raise CiphertextError(
                f"ciphertext {c} outside [0, 2^{p.ciphertext_bits})"
            )
        with span("ope.decrypt", bits=p.plaintext_bits):
            count_op("ope_level", p.plaintext_bits)
            if p.expansion_bits == 0:
                return c  # every split is forced: the identity
            dlo, dhi = 0, p.domain_size - 1
            rlo, rhi = 0, p.range_size - 1
            while dlo < dhi:
                dmid = (dlo + dhi) // 2
                rmid = self._split_point(dlo, dhi, rlo, rhi)
                if c <= rmid:
                    dhi, rhi = dmid, rmid
                else:
                    dlo, rlo = dmid + 1, rmid + 1
            if self._leaf_value(dlo, rlo, rhi) != c:
                raise CiphertextError(f"{c} is not a valid ciphertext")
            return dlo


class AdaptiveOPE(OPE):
    """OPE whose range width adapts to the measured attribute entropy.

    The paper's future work proposes an OPE "able to choose the length of
    keys adaptively based on the entropy of social attributes".  This variant
    picks the ciphertext expansion so the *range* provides at least
    ``security_margin`` bits of slack beyond the measured entropy of the
    plaintext distribution, instead of a fixed expansion: low-entropy
    attributes get proportionally more range slack (more hiding of gaps),
    high-entropy attributes get less (smaller ciphertexts).
    """

    @classmethod
    def for_entropy(
        cls,
        key: bytes,
        plaintext_bits: int,
        measured_entropy: float,
        security_margin: int = 16,
        split: str = "uniform",
    ) -> "AdaptiveOPE":
        """Build an OPE whose range adapts to the measured entropy."""
        if measured_entropy < 0:
            raise ParameterError("entropy must be non-negative")
        if measured_entropy > plaintext_bits:
            raise ParameterError("entropy cannot exceed the plaintext size")
        deficit = plaintext_bits - measured_entropy
        expansion = security_margin + math.ceil(deficit / 2)
        params = OpeParams(
            plaintext_bits=plaintext_bits,
            expansion_bits=expansion,
            split=split,
        )
        return cls(key, params)
