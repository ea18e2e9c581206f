"""Block-cipher modes: CTR keystream and encrypt-then-MAC AEAD.

The paper's implementation section specifies "AES in CTR mode with random IV"
for the verification ciphertexts and packages "sent with the mode
Encrypt-then-MAC" over the SSL channel.  :class:`EtMCipher` composes AES-CTR
with HMAC-SHA256 in the standard EtM arrangement (separate encryption and MAC
keys derived from one master key).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.crypto.aes import AES
from repro.crypto.kdf import hkdf
from repro.errors import IntegrityError, ParameterError
from repro.utils.bits import xor_bytes
from repro.utils.ct import constant_time_eq
from repro.utils.mac import HmacSha256
from repro.utils.rand import SystemRandomSource

__all__ = [
    "ctr_keystream",
    "ctr_keystreams",
    "ctr_xcrypt",
    "AeadCiphertext",
    "EtMCipher",
]


def ctr_keystream(cipher: AES, nonce: bytes, length: int) -> bytes:
    """Generate ``length`` keystream bytes for a 16-byte initial counter."""
    return ctr_keystreams(cipher, ((nonce, length),))[0]


def ctr_keystreams(
    cipher: AES, runs: Sequence[Tuple[bytes, int]]
) -> List[bytes]:
    """The keystream of every ``(nonce, length)`` run, in one AES pass.

    Each nonce is a 16-byte initial counter.  An empty run gets ``b""``,
    and no pass runs when every run is empty.
    """
    counters = []
    for nonce, length in runs:
        if len(nonce) != AES.BLOCK_SIZE:
            raise ParameterError("CTR nonce must be a full 16-byte block")
        if length > 0:
            counters.append((int.from_bytes(nonce, "big"), (length + 15) // 16))
    stream = cipher.encrypt_runs(counters) if counters else b""
    out = []
    pos = 0
    for _, length in runs:
        length = max(length, 0)
        out.append(stream[pos : pos + length])
        pos += 16 * ((length + 15) // 16)
    return out


def ctr_xcrypt(cipher: AES, nonce: bytes, data: bytes) -> bytes:
    """CTR encryption == decryption: XOR with the keystream."""
    return xor_bytes(data, ctr_keystream(cipher, nonce, len(data)))


@dataclass(frozen=True)
class AeadCiphertext:
    """A sealed message: IV, ciphertext body, and MAC tag."""

    iv: bytes
    body: bytes
    tag: bytes

    def encode(self) -> bytes:
        """Serialize to tagged, length-prefixed wire bytes."""
        return self.iv + self.tag + self.body

    @classmethod
    def decode(cls, raw: bytes) -> "AeadCiphertext":
        """Parse iv || tag || body wire bytes."""
        if len(raw) < 16 + 32:
            raise ParameterError("AEAD ciphertext too short")
        return cls(iv=raw[:16], tag=raw[16:48], body=raw[48:])

    @property
    def wire_size(self) -> int:
        """Total sealed size in bytes (IV + tag + body)."""
        return 16 + 32 + len(self.body)


class EtMCipher:
    """AES-CTR + HMAC-SHA256 in encrypt-then-MAC composition.

    The master key is split into independent AES-256 encryption and MAC
    keys with HKDF; the MAC covers IV, associated data, and ciphertext body.
    """

    def __init__(self, master_key: bytes) -> None:
        self._aes = AES(hkdf(master_key, info=b"etm-enc", length=32))
        # the MAC key's HMAC pads are hashed once, not once per tag
        self._hmac = HmacSha256(hkdf(master_key, info=b"etm-mac", length=32))

    def _tag(self, iv: bytes, aad: bytes, body: bytes) -> bytes:
        return self._hmac.mac(
            b"".join((len(aad).to_bytes(8, "big"), aad, iv, body))
        )

    def seal(
        self,
        plaintext: bytes,
        aad: bytes = b"",
        rng: SystemRandomSource | None = None,
    ) -> AeadCiphertext:
        """Encrypt and authenticate ``plaintext`` with a fresh random IV."""
        rng = rng or SystemRandomSource()
        iv = rng.randbytes(16)
        body = ctr_xcrypt(self._aes, iv, plaintext)
        return AeadCiphertext(iv=iv, body=body, tag=self._tag(iv, aad, body))

    def open(self, ciphertext: AeadCiphertext, aad: bytes = b"") -> bytes:
        """Verify the tag then decrypt; raises :class:`IntegrityError`.

        The one-ciphertext case of :meth:`open_many`.
        """
        plaintext = self.open_many((ciphertext,), aad)[0]
        if plaintext is None:
            raise IntegrityError("MAC verification failed")
        return plaintext

    def open_many(
        self, ciphertexts: Sequence[AeadCiphertext], aad: bytes = b""
    ) -> List[Optional[bytes]]:
        """Open several ciphertexts under this key and ``aad``.

        Every tag is checked in constant time first; then one keystream
        pass decrypts the ciphertexts whose tag verified.  One slot per
        ciphertext, in order: its plaintext, or ``None`` when its tag
        failed (nothing of it is decrypted).
        """
        verified = [
            ct
            if constant_time_eq(self._tag(ct.iv, aad, ct.body), ct.tag)
            else None
            for ct in ciphertexts
        ]
        streams = iter(
            ctr_keystreams(
                self._aes,
                [(ct.iv, len(ct.body)) for ct in verified if ct is not None],
            )
        )
        return [
            None if ct is None else xor_bytes(ct.body, next(streams))
            for ct in verified
        ]
