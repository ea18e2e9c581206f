"""Block-cipher modes: CTR keystream and encrypt-then-MAC AEAD.

The paper's implementation section specifies "AES in CTR mode with random IV"
for the verification ciphertexts and packages "sent with the mode
Encrypt-then-MAC" over the SSL channel.  :class:`EtMCipher` composes AES-CTR
with HMAC-SHA256 in the standard EtM arrangement (separate encryption and MAC
keys derived from one master key).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.aes import AES
from repro.crypto.kdf import hkdf
from repro.errors import IntegrityError, ParameterError
from repro.utils.bits import xor_bytes
from repro.utils.ct import constant_time_eq
from repro.utils.mac import HmacSha256
from repro.utils.rand import SystemRandomSource

__all__ = ["ctr_keystream", "ctr_xcrypt", "AeadCiphertext", "EtMCipher"]


def ctr_keystream(cipher: AES, nonce: bytes, length: int) -> bytes:
    """Generate ``length`` keystream bytes for a 16-byte initial counter."""
    if len(nonce) != AES.BLOCK_SIZE:
        raise ParameterError("CTR nonce must be a full 16-byte block")
    blocks = (length + 15) // 16
    if blocks < 1:
        return b""
    counter = int.from_bytes(nonce, "big")
    return cipher.encrypt_counters(counter, blocks)[:length]


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

    The master key is split into independent encryption and MAC keys with
    HKDF; the MAC covers IV, associated data, and ciphertext body.
    """

    def __init__(self, master_key: bytes, key_size: int = 32) -> None:
        if key_size not in (16, 24, 32):
            raise ParameterError("key_size must be an AES key size")
        enc_key = hkdf(master_key, info=b"etm-enc", length=key_size)
        # the MAC key's HMAC pads are hashed once, not once per tag
        self._hmac = HmacSha256(hkdf(master_key, info=b"etm-mac", length=32))
        self._aes = AES(enc_key)

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
        """Verify the tag then decrypt; raises :class:`IntegrityError`."""
        expected_tag = self._tag(ciphertext.iv, aad, ciphertext.body)
        if not constant_time_eq(expected_tag, ciphertext.tag):
            raise IntegrityError("MAC verification failed")
        return ctr_xcrypt(self._aes, ciphertext.iv, ciphertext.body)
