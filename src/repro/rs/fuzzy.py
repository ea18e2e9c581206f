"""Fuzzy-vector extraction: the RSD step of S-MATCH key generation.

Paper Section VI (Key Generation): "the profile of user v is decoded by a
Reed-Solomon decoder (RSD) to obtain a fuzzy vector T(v), and the profile key
is generated [from] the fuzzy vector ... With RSD, the Euclidean-distance
close profiles (i.e. ||Au - Av|| <= theta ...) will be transformed to the
same fuzzy vector".  (The paper's Definition 3 "Euclidean distance" is in
fact the infinity norm, MAX over per-attribute differences.)

Concretely we implement this in two layers:

1. **Quantization** with step ``theta + 1``: attribute values within ``theta``
   of each other land in the same bucket except when they straddle a bucket
   boundary.  Each bucket index becomes a GF(2^10) symbol.
2. **RS decoding** of the quantized symbol vector as a received word of an
   ``(d, k)`` Reed-Solomon code over GF(2^10): up to ``t = (d - k) / 2``
   boundary-straddling attributes are corrected toward the nearest codeword.
   Profiles that are not within distance ``t`` of any codeword keep their raw
   quantized vector as the fuzzy vector (decoding is then a no-op), so exact
   bucket agreement is required of their matches.

Layer 2 is effective exactly when profile clusters sit near codewords.  Real
profile data concentrates on *canonical profiles* (the same landmark structure
Section IV measures), which the dataset generators model by anchoring cluster
centers on codewords; see DESIGN.md's substitution table.  The fallback keeps
the construction total and honest for unanchored data — this is the source of
the sub-100% true-positive rate the paper reports in Fig. 4(b).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ParameterError, UncorrectableError
from repro.rs.code import RSCode
from repro.rs.decoder import decode
from repro.utils.rand import SystemRandomSource

__all__ = ["FuzzyParams", "FuzzyExtractor"]


@dataclass(frozen=True)
class FuzzyParams:
    """Parameters of the fuzzy key-generation code.

    Attributes:
        num_attributes: ``d``, symbols per profile (the RS block length).
        theta: the RS-decoder threshold of paper Definition 3; profiles
            within infinity-norm ``theta`` are meant to collide.
        symbol_bits: GF(2^m) symbol size; the paper uses m = 10.
        parity_symbols: number of RS parity symbols (``n - k``); defaults to
            ``2 * max(1, d // 3)`` capped so the message keeps >= 1 symbol.
        quant_step: quantization step; defaults to ``theta + 1``.
    """

    num_attributes: int
    theta: int
    symbol_bits: int = 10
    parity_symbols: Optional[int] = None
    quant_step: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_attributes < 2:
            raise ParameterError("need at least 2 attributes")
        if self.theta < 0:
            raise ParameterError("theta must be non-negative")
        if self.quant_step is not None and self.quant_step < 1:
            raise ParameterError("quant_step must be >= 1")
        parity = self.resolved_parity
        if not 1 <= parity <= self.num_attributes - 1:
            raise ParameterError(
                f"parity symbols {parity} leave no message symbols"
            )
        if parity % 2 != 0:
            raise ParameterError("parity symbol count must be even")

    @property
    def resolved_parity(self) -> int:
        """Effective parity-symbol count after defaults."""
        if self.parity_symbols is not None:
            return self.parity_symbols
        parity = 2 * max(1, self.num_attributes // 3)
        # keep at least one message symbol
        if parity > self.num_attributes - 1:
            parity = 2 * ((self.num_attributes - 1) // 2)
        return parity

    @property
    def resolved_step(self) -> int:
        """Effective quantization step after defaults."""
        return self.quant_step if self.quant_step is not None else self.theta + 1

    @property
    def tolerated_errors(self) -> int:
        """Symbol errors correctable by the decoder (``t``)."""
        return self.resolved_parity // 2


class FuzzyExtractor:
    """Maps profiles to fuzzy vectors; close profiles collide (paper RSD)."""

    def __init__(self, params: FuzzyParams) -> None:
        self.params = params
        self.code = RSCode(
            n=params.num_attributes,
            k=params.num_attributes - params.resolved_parity,
            m=params.symbol_bits,
        )

    # -- quantization --------------------------------------------------------

    def quantize(self, values: Sequence[int]) -> List[int]:
        """Bucket attribute values into GF(2^m) symbols."""
        if len(values) != self.params.num_attributes:
            raise ParameterError(
                f"profile has {len(values)} attributes, "
                f"expected {self.params.num_attributes}"
            )
        step = self.params.resolved_step
        size = self.code.field_.size
        symbols = []
        for v in values:
            if v < 0:
                raise ParameterError(f"attribute values must be >= 0, got {v}")
            symbols.append((v // step) % size)
        return symbols

    # -- fuzzy vector ---------------------------------------------------------

    def fuzzy_vector(
        self, values: Sequence[int], erasures: Optional[Sequence[int]] = None
    ) -> Tuple[int, ...]:
        """The fuzzy vector ``T(v)`` of a profile.

        Quantizes, then attempts bounded-distance RS decoding; profiles not
        within the correction radius of any codeword fall back to their raw
        quantized vector.  Optional ``erasures`` mark attribute positions the
        caller knows to be unreliable (the Guruswami-Sudan-inspired TPR
        improvement; see benchmarks' ablations).
        """
        quantized = self.quantize(values)
        try:
            corrected = decode(self.code, quantized, erasures=erasures)
        except UncorrectableError:
            return tuple(quantized)
        return tuple(corrected)

    def boundary_erasures(self, values: Sequence[int], margin: int) -> List[int]:
        """Positions whose value lies within ``margin`` of a bucket boundary.

        Declaring these as erasures doubles the decoder's budget for exactly
        the attributes most likely to have flipped — the mechanism behind the
        erasure-augmented decoding mode.
        """
        if margin < 0:
            raise ParameterError("margin must be non-negative")
        step = self.params.resolved_step
        positions = []
        for i, v in enumerate(values):
            offset = v % step
            if offset < margin or step - offset <= margin:
                positions.append(i)
        # Keep half the parity budget for plain error correction: an erasure
        # costs 1 unit and an error 2, so marking every suspicious position
        # would starve the decoder of error-correction capacity.
        max_erasures = self.code.n_parity // 2
        return positions[:max_erasures]

    # -- key material -----------------------------------------------------------

    def key_material(self, values: Sequence[int]) -> bytes:
        """``K' = H(T(v))`` — the hash the OPRF then strengthens."""
        vector = self.fuzzy_vector(values)
        encoded = b"".join(s.to_bytes(2, "big") for s in vector)
        return hashlib.sha256(b"smatch-fuzzy-v1" + encoded).digest()

    # -- helpers for dataset generation ----------------------------------------

    def random_codeword(
        self, rng: Optional[SystemRandomSource] = None
    ) -> List[int]:
        """A uniformly random codeword (used to anchor profile clusters)."""
        rng = rng or SystemRandomSource()
        message = [
            rng.randrange(0, self.code.field_.size) for _ in range(self.code.k)
        ]
        return self.code.encode(message)

    def codeword_center_values(
        self, codeword: Sequence[int], value_range: int
    ) -> List[int]:
        """Lift a codeword back to attribute-value space (bucket midpoints).

        Symbols are reduced modulo the number of buckets available in
        ``[0, value_range)`` so the lifted values stay in the attribute
        domain.
        """
        step = self.params.resolved_step
        n_buckets = max(1, value_range // step)
        values = []
        for s in codeword:
            bucket = s % n_buckets
            values.append(bucket * step + step // 2)
        return values
