"""AES block cipher (FIPS-197), pure Python.

Supports 128/192/256-bit keys.  The verification protocol uses AES-256 in CTR
mode (paper Section VIII: "AES in CTR mode with random IV was utilized"), and
the secure channel uses AES-CTR inside encrypt-then-MAC.

Encryption uses the word-oriented T-table form (Daemen & Rijmen, *The Design
of Rijndael*, §4.2): SubBytes, ShiftRows and MixColumns of one column fold
into four lookups in 256-entry tables of 32-bit words, so a round is sixteen
lookups and XORs on four integers instead of a Python call per state byte.
The key schedule expands straight into 32-bit words, and
:meth:`AES.encrypt_counters` encrypts a whole run of CTR counter blocks in
one call.  Every channel message and every authenticator ``ciph_v`` goes
through AES-CTR, which makes this the hot path of a user's round trip; the
paper's cost argument (Fig. 4(c)) is that this symmetric layer is cheap.

The tables are indexed by key- and data-dependent bytes, so this cipher
leaks through cache timing, like the rest of this not-constant-time library.

Decryption has no caller in the protocol (CTR only encrypts).  It keeps the
textbook byte-oriented inverse cipher over byte round keys taken from the
word schedule, so the ``decrypt(encrypt(x)) == x`` tests check the T-table
encryptor against an independent implementation.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

from repro.errors import KeyError_, ParameterError
from repro.obs.instrument import count_op
from repro.obs.trace import span

__all__ = ["AES"]

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1

#: One round's four key words (the state's four big-endian columns).
RoundKey = Tuple[int, int, int, int]


def _build_sbox() -> bytes:
    """Construct the AES S-box from the field inverse + affine map."""
    # multiplicative inverse table in GF(2^8) via log/antilog with generator 3
    exp = [0] * 510
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        # multiply by 3 = x * 2 ^ x
        x ^= (x << 1) ^ (0x11B if x & 0x80 else 0)
        x &= 0xFF
    for i in range(255, 510):
        exp[i] = exp[i - 255]

    sbox = bytearray(256)
    for value in range(256):
        inv = 0 if value == 0 else exp[255 - log[value]]
        b = inv
        res = 0
        for _ in range(5):
            res ^= b
            b = ((b << 1) | (b >> 7)) & 0xFF
        sbox[value] = res ^ 0x63
    return bytes(sbox)


def _invert_sbox(sbox: bytes) -> bytes:
    inverse = bytearray(256)
    for index, value in enumerate(sbox):
        inverse[value] = index
    return bytes(inverse)


_SBOX = _build_sbox()
_INV_SBOX = _invert_sbox(_SBOX)

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C, 0xD8, 0xAB, 0x4D]


def _xtime(b: int) -> int:
    b <<= 1
    if b & 0x100:
        b ^= 0x11B
    return b & 0xFF


def _gmul(a: int, b: int) -> int:
    """GF(2^8) multiply (used by InvMixColumns)."""
    res = 0
    while b:
        if b & 1:
            res ^= a
        a = _xtime(a)
        b >>= 1
    return res


def _build_t_tables() -> Tuple[List[int], List[int], List[int], List[int]]:
    """``T0[x]`` is the MixColumns column ``(2, 1, 1, 3) * S[x]`` as a
    big-endian word; ``T1``..``T3`` are its byte rotations right by 1..3."""
    t0 = []
    for s in _SBOX:
        s2 = _xtime(s)
        t0.append((s2 << 24) | (s << 16) | (s << 8) | (s2 ^ s))
    t1 = [((w >> 8) | (w << 24)) & _MASK32 for w in t0]
    t2 = [((w >> 16) | (w << 16)) & _MASK32 for w in t0]
    t3 = [((w >> 24) | (w << 8)) & _MASK32 for w in t0]
    return t0, t1, t2, t3


_T0, _T1, _T2, _T3 = _build_t_tables()


def _sub_word(w: int) -> int:
    s = _SBOX
    return (
        (s[w >> 24] << 24)
        | (s[(w >> 16) & 0xFF] << 16)
        | (s[(w >> 8) & 0xFF] << 8)
        | s[w & 0xFF]
    )


def _expand_key(key: bytes, rounds: int) -> List[int]:
    """The FIPS-197 key schedule as ``4 * (rounds + 1)`` 32-bit words."""
    nk = len(key) // 4
    words = [int.from_bytes(key[4 * i : 4 * i + 4], "big") for i in range(nk)]
    for i in range(nk, 4 * (rounds + 1)):
        temp = words[i - 1]
        if i % nk == 0:
            rot = ((temp << 8) | (temp >> 24)) & _MASK32  # RotWord
            temp = _sub_word(rot) ^ (_RCON[i // nk - 1] << 24)
        elif nk > 6 and i % nk == 4:
            temp = _sub_word(temp)
        words.append(words[i - nk] ^ temp)
    return words


class AES:
    """The AES block cipher with a fixed expanded key.

    Use :meth:`encrypt_block` / :meth:`decrypt_block` on 16-byte blocks and
    :meth:`encrypt_counters` for a run of CTR blocks; for bulk data use the
    modes in :mod:`repro.crypto.modes`.
    """

    BLOCK_SIZE = 16

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise KeyError_(
                f"AES key must be 16/24/32 bytes, got {len(key)}"
            )
        self.key_size = len(key)
        self.rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        with span("aes.key_schedule", key_bits=8 * len(key)):
            count_op("aes_key_schedule")
            words = _expand_key(key, self.rounds)
            self._round_keys: List[RoundKey] = [
                (words[i], words[i + 1], words[i + 2], words[i + 3])
                for i in range(0, len(words), 4)
            ]

    # -- encryption (T-table rounds) --------------------------------------------

    def encrypt_counters(self, counter: int, n: int) -> bytes:
        """Encrypt the ``n`` blocks ``counter, counter + 1, ...`` (mod 2^128).

        Returns the ``16 * n`` ciphertext bytes in order: the CTR keystream
        for initial counter ``counter``.  One call covers a whole message.
        """
        if n < 1:
            raise ParameterError(f"need at least one block, got {n}")
        count_op("aes_block", n)
        t0, t1, t2, t3, sbox = _T0, _T1, _T2, _T3, _SBOX
        (k0, k1, k2, k3), *middle, (f0, f1, f2, f3) = self._round_keys
        out: List[int] = []
        append = out.append
        for i in range(n):
            block = (counter + i) & _MASK128
            s0 = (block >> 96) ^ k0
            s1 = ((block >> 64) & _MASK32) ^ k1
            s2 = ((block >> 32) & _MASK32) ^ k2
            s3 = (block & _MASK32) ^ k3
            for r0, r1, r2, r3 in middle:
                s0, s1, s2, s3 = (
                    t0[s0 >> 24] ^ t1[(s1 >> 16) & 0xFF]
                    ^ t2[(s2 >> 8) & 0xFF] ^ t3[s3 & 0xFF] ^ r0,
                    t0[s1 >> 24] ^ t1[(s2 >> 16) & 0xFF]
                    ^ t2[(s3 >> 8) & 0xFF] ^ t3[s0 & 0xFF] ^ r1,
                    t0[s2 >> 24] ^ t1[(s3 >> 16) & 0xFF]
                    ^ t2[(s0 >> 8) & 0xFF] ^ t3[s1 & 0xFF] ^ r2,
                    t0[s3 >> 24] ^ t1[(s0 >> 16) & 0xFF]
                    ^ t2[(s1 >> 8) & 0xFF] ^ t3[s2 & 0xFF] ^ r3,
                )
            # last round: SubBytes + ShiftRows, no MixColumns
            append(f0 ^ ((sbox[s0 >> 24] << 24) | (sbox[(s1 >> 16) & 0xFF] << 16)
                         | (sbox[(s2 >> 8) & 0xFF] << 8) | sbox[s3 & 0xFF]))
            append(f1 ^ ((sbox[s1 >> 24] << 24) | (sbox[(s2 >> 16) & 0xFF] << 16)
                         | (sbox[(s3 >> 8) & 0xFF] << 8) | sbox[s0 & 0xFF]))
            append(f2 ^ ((sbox[s2 >> 24] << 24) | (sbox[(s3 >> 16) & 0xFF] << 16)
                         | (sbox[(s0 >> 8) & 0xFF] << 8) | sbox[s1 & 0xFF]))
            append(f3 ^ ((sbox[s3 >> 24] << 24) | (sbox[(s0 >> 16) & 0xFF] << 16)
                         | (sbox[(s1 >> 8) & 0xFF] << 8) | sbox[s2 & 0xFF]))
        return struct.pack(f">{len(out)}I", *out)

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block."""
        if len(block) != self.BLOCK_SIZE:
            raise ParameterError("AES block must be 16 bytes")
        return self.encrypt_counters(int.from_bytes(block, "big"), 1)

    # -- decryption (byte-oriented inverse cipher) -----------------------------
    # state is a flat 16-byte column-major list

    @staticmethod
    def _inv_sub_bytes(state: List[int]) -> None:
        for i in range(16):
            state[i] = _INV_SBOX[state[i]]

    @staticmethod
    def _inv_shift_rows(state: List[int]) -> List[int]:
        return [
            state[(0) * 4 + 0], state[(3) * 4 + 1], state[(2) * 4 + 2], state[(1) * 4 + 3],
            state[(1) * 4 + 0], state[(0) * 4 + 1], state[(3) * 4 + 2], state[(2) * 4 + 3],
            state[(2) * 4 + 0], state[(1) * 4 + 1], state[(0) * 4 + 2], state[(3) * 4 + 3],
            state[(3) * 4 + 0], state[(2) * 4 + 1], state[(1) * 4 + 2], state[(0) * 4 + 3],
        ]

    @staticmethod
    def _inv_mix_columns(state: List[int]) -> None:
        for c in range(4):
            a0, a1, a2, a3 = state[4 * c : 4 * c + 4]
            state[4 * c + 0] = _gmul(a0, 14) ^ _gmul(a1, 11) ^ _gmul(a2, 13) ^ _gmul(a3, 9)
            state[4 * c + 1] = _gmul(a0, 9) ^ _gmul(a1, 14) ^ _gmul(a2, 11) ^ _gmul(a3, 13)
            state[4 * c + 2] = _gmul(a0, 13) ^ _gmul(a1, 9) ^ _gmul(a2, 14) ^ _gmul(a3, 11)
            state[4 * c + 3] = _gmul(a0, 11) ^ _gmul(a1, 13) ^ _gmul(a2, 9) ^ _gmul(a3, 14)

    @staticmethod
    def _add_round_key(state: List[int], rk: List[int]) -> None:
        for i in range(16):
            state[i] ^= rk[i]

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one 16-byte block."""
        if len(block) != self.BLOCK_SIZE:
            raise ParameterError("AES block must be 16 bytes")
        count_op("aes_block")
        round_keys = [list(struct.pack(">4I", *rk)) for rk in self._round_keys]
        state = list(block)
        self._add_round_key(state, round_keys[self.rounds])
        for rnd in range(self.rounds - 1, 0, -1):
            state = self._inv_shift_rows(state)
            self._inv_sub_bytes(state)
            self._add_round_key(state, round_keys[rnd])
            self._inv_mix_columns(state)
        state = self._inv_shift_rows(state)
        self._inv_sub_bytes(state)
        self._add_round_key(state, round_keys[0])
        return bytes(state)
