"""HMAC-SHA256 under one key, with the key's padded states hashed once.

RFC 2104 defines ``HMAC(K, m) = H((K0 ^ opad) || H((K0 ^ ipad) || m))``,
where ``K0`` is the key zero-padded to SHA-256's 64-byte block (a longer
key is hashed first).  The two padded-key blocks depend on the key alone,
so :class:`HmacSha256` absorbs each into a SHA-256 state once and every
:meth:`HmacSha256.mac` finishes from copies of the two states, byte for
byte the standard library's HMAC-SHA256.  The standard library's ``hmac``
calls (the constructor and the one-shot ``digest``) key a fresh HMAC
context on every call, which dominated a level of the OPE descent
(:mod:`repro.crypto.ope`): one HMAC-keyed split point per level, all under
one key.

It lives in :mod:`repro.utils`, not in :mod:`repro.crypto.kdf`, because
:mod:`repro.utils.rand` builds on it and the ``repro.crypto`` package
imports the OPE, which imports :mod:`repro.utils.rand`.
"""

from __future__ import annotations

import hashlib

from repro.errors import ParameterError

__all__ = ["HmacSha256"]

_BLOCK = 64  # SHA-256 block size in bytes
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


class HmacSha256:
    """HMAC-SHA256 keyed once; :meth:`mac` is the keyed PRF.

    The object holds key-derived hash states: treat it as key material.
    """

    __slots__ = ("_inner", "_outer")

    def __init__(self, key: bytes) -> None:
        if not isinstance(key, (bytes, bytearray)):
            raise ParameterError("HMAC key must be bytes")
        if len(key) > _BLOCK:
            key = hashlib.sha256(key).digest()
        padded = bytes(key).ljust(_BLOCK, b"\x00")
        self._inner = hashlib.sha256(padded.translate(_IPAD))
        self._outer = hashlib.sha256(padded.translate(_OPAD))

    def mac(self, message: bytes) -> bytes:
        """``HMAC-SHA256(key, message)``: 32 bytes."""
        inner = self._inner.copy()
        inner.update(message)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()
