"""Bit- and byte-level helpers used throughout the library.

All multi-byte encodings are big-endian, matching the network byte order used
by the wire protocol in :mod:`repro.net.messages`.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import ParameterError

__all__ = [
    "bit_length_ceil",
    "bytes_to_int",
    "int_to_bytes",
    "pack_blocks",
    "unpack_blocks",
    "rotl32",
    "xor_bytes",
]


def bit_length_ceil(n: int) -> int:
    """Return the number of bits needed to represent ``n`` values (ceil log2).

    ``bit_length_ceil(1)`` is 0 (a single value needs no bits),
    ``bit_length_ceil(2)`` is 1, ``bit_length_ceil(5)`` is 3.
    """
    if n < 1:
        raise ParameterError(f"need a positive count, got {n}")
    return (n - 1).bit_length()


def bytes_to_int(data: bytes) -> int:
    """Interpret ``data`` as a big-endian unsigned integer."""
    return int.from_bytes(data, "big")


def int_to_bytes(value: int, length: int | None = None) -> bytes:
    """Encode a non-negative integer big-endian.

    When ``length`` is omitted the minimal number of bytes is used (at least
    one, so zero encodes to ``b"\\x00"``).
    """
    if value < 0:
        raise ParameterError(f"cannot encode negative integer {value}")
    if length is None:
        length = max(1, (value.bit_length() + 7) // 8)
    if value.bit_length() > length * 8:
        raise ParameterError(
            f"{value.bit_length()}-bit value does not fit in {length} bytes"
        )
    return value.to_bytes(length, "big")


def pack_blocks(blocks: Sequence[int], block_bits: int) -> int:
    """Concatenate fixed-width integer blocks into one big integer.

    ``blocks[0]`` becomes the most-significant block, mirroring the
    left-to-right chaining of attribute values in the paper's Eq. (3).
    """
    if block_bits < 1:
        raise ParameterError(f"block_bits must be positive, got {block_bits}")
    acc = 0
    for block in blocks:
        if block < 0 or block.bit_length() > block_bits:
            raise ParameterError(
                f"block {block} does not fit in {block_bits} bits"
            )
        acc = (acc << block_bits) | block
    return acc


def unpack_blocks(value: int, block_bits: int, count: int) -> List[int]:
    """Split a packed integer back into ``count`` fixed-width blocks."""
    if value < 0:
        raise ParameterError("packed value must be non-negative")
    if value.bit_length() > block_bits * count:
        raise ParameterError(
            f"{value.bit_length()}-bit value too large for "
            f"{count} x {block_bits}-bit blocks"
        )
    mask = (1 << block_bits) - 1
    blocks = [0] * count
    for i in range(count - 1, -1, -1):
        blocks[i] = value & mask
        value >>= block_bits
    return blocks


def rotl32(value: int, shift: int) -> int:
    """Rotate a 32-bit word left by ``shift`` bits."""
    value &= 0xFFFFFFFF
    return ((value << shift) | (value >> (32 - shift))) & 0xFFFFFFFF


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    if len(a) != len(b):
        raise ParameterError(f"length mismatch: {len(a)} vs {len(b)}")
    mixed = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    return mixed.to_bytes(len(a), "big")
