"""Shared utilities: bit packing, deterministic randomness, constant-time
comparison, statistics, and wire serialization."""

from repro.utils.bits import (
    bit_length_ceil,
    bytes_to_int,
    int_to_bytes,
    pack_blocks,
    unpack_blocks,
)
from repro.utils.ct import constant_time_eq
from repro.utils.rand import DeterministicStream, SystemRandomSource
from repro.utils.stats import (
    empirical_entropy,
    entropy_from_counts,
    landmark_values,
    perfect_entropy,
)

__all__ = [
    "bit_length_ceil",
    "bytes_to_int",
    "int_to_bytes",
    "pack_blocks",
    "unpack_blocks",
    "constant_time_eq",
    "DeterministicStream",
    "SystemRandomSource",
    "empirical_entropy",
    "entropy_from_counts",
    "landmark_values",
    "perfect_entropy",
]
