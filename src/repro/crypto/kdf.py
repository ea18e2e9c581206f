"""Hashing, key derivation, and PRF helpers.

SHA-256 itself comes from :mod:`hashlib` (part of the Python standard
library, not a third-party dependency); this module builds the constructions
the scheme needs on top of it: HKDF (RFC 5869), a keyed PRF, and
hash-to-integer/range helpers used by the OPRF and the verification protocol.
Hash invocations are instrumented so the cost experiments can check the
paper's "d + 2 hash operations" accounting.
"""

from __future__ import annotations

import hashlib

from repro.errors import ParameterError
from repro.obs.instrument import count_op
from repro.utils.mac import HmacSha256

__all__ = ["sha256", "hkdf", "prf", "hash_to_int", "hash_to_range"]

#: HKDF-Extract under the default salt, a HashLen string of zeros
#: (RFC 5869 §2.2), keyed once for the process.
_ZERO_SALT = HmacSha256(b"\x00" * 32)


def sha256(*parts: bytes) -> bytes:
    """SHA-256 over the concatenation of ``parts`` (instrumented)."""
    count_op("hash")
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.digest()


def hkdf(
    key_material: bytes,
    info: bytes = b"",
    salt: bytes = b"",
    length: int = 32,
) -> bytes:
    """HKDF-SHA256 extract-and-expand (RFC 5869)."""
    if length < 1 or length > 255 * 32:
        raise ParameterError(f"invalid HKDF output length {length}")
    count_op("hash")
    extract = HmacSha256(salt) if salt else _ZERO_SALT
    expand = HmacSha256(extract.mac(key_material))
    okm = b""
    block = b""
    counter = 1
    while len(okm) < length:
        block = expand.mac(block + info + bytes([counter]))
        okm += block
        counter += 1
    return okm[:length]


def prf(key: bytes, *parts: bytes) -> bytes:
    """HMAC-SHA256 as a PRF (instrumented as a hash operation)."""
    count_op("hash")
    return HmacSha256(key).mac(b"".join(parts))


def hash_to_int(data: bytes, bits: int = 256) -> int:
    """Hash ``data`` to an integer with at most ``bits`` bits.

    For more than 256 bits, output blocks are chained with a counter
    (SHA-256 in counter mode) before truncation.
    """
    if bits < 1:
        raise ParameterError("bits must be positive")
    nblocks = (bits + 255) // 256
    digest = b"".join(
        sha256(i.to_bytes(4, "big"), data) for i in range(nblocks)
    )
    return int.from_bytes(digest, "big") >> (nblocks * 256 - bits)


def hash_to_range(data: bytes, modulus: int) -> int:
    """Hash ``data`` to ``[0, modulus)`` with negligible bias.

    Uses 128 extra bits before reduction so the modular bias is < 2^-128.
    """
    if modulus < 1:
        raise ParameterError("modulus must be positive")
    bits = modulus.bit_length() + 128
    return hash_to_int(data, bits) % modulus
