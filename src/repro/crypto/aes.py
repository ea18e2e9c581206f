"""AES block cipher (FIPS-197), pure Python.

Supports 128/192/256-bit keys.  The verification protocol uses AES-256 in CTR
mode (paper Section VIII: "AES in CTR mode with random IV was utilized"), and
the secure channel uses AES-CTR inside encrypt-then-MAC.

Encryption is byte-sliced over whole messages: :meth:`AES.encrypt_runs`
encrypts the counter blocks of several CTR messages together, and
:meth:`AES.encrypt_counters` is its one-message case.  For ``n`` blocks in
all, the state is 16 segments of ``n`` bytes in row-major order: segment
``4r + c`` holds state byte ``(r, c)`` of every block.  Between rounds it is
held as one ``128n``-bit big-endian integer.  A round is then about thirty
Python-level operations whatever ``n`` is:

* ShiftRows rotates row ``r`` left by ``r`` segments (a join of slices);
* SubBytes is one C-level ``bytes.translate`` through the S-box over every
  block, and a second through ``2 * S`` gives MixColumns its doubled bytes;
* MixColumns is a few XORs of the whole state with its rows rotated;
* AddRoundKey XORs an integer made by one ``translate`` through the round
  key of a string that names the block byte each segment holds.

Every channel message and every authenticator ``ciph_v`` goes through
AES-CTR, which makes this the hot path of a user's round trip; the paper's
cost argument (Fig. 4(c)) is that this symmetric layer is cheap.

The S-box ``translate`` tables are indexed by key- and data-dependent state
bytes, so this cipher leaks through cache timing, like the rest of this
not-constant-time library.

Decryption has no caller in the protocol (CTR only encrypts).  It keeps the
textbook byte-oriented inverse cipher over the same round keys, so the
``decrypt(encrypt(x)) == x`` tests check the byte-sliced encryptor against
an independent implementation.
"""

from __future__ import annotations

import struct
from typing import List, Sequence, Tuple

from repro.errors import KeyError_, ParameterError
from repro.obs.instrument import count_op
from repro.obs.trace import span

__all__ = ["AES"]

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1


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


#: ``_XT[v]`` is ``2 * S[v]`` in GF(2^8): the doubled S-box output MixColumns needs.
_XT = bytes(_xtime(s) for s in _SBOX)

#: Row-major state order: position ``4r + c`` holds block byte ``4c + r``,
#: since FIPS-197 fills the state column by column.
_ROW_MAJOR = [4 * c + r for r in range(4) for c in range(4)]

#: For each segment in order, the block byte it holds, as one byte.
_SEGMENT_BYTES = [bytes((k,)) for k in _ROW_MAJOR]

#: Pads a 16-byte round key to a full ``bytes.translate`` table.
_TABLE_PAD = bytes(256 - 16)


def _shift_rows(state: bytes, n: int) -> bytes:
    """ShiftRows on a byte-sliced state: row ``r`` rotates left by ``r``
    segments of ``n`` bytes."""
    return b"".join((
        state[: 4 * n],
        state[5 * n : 8 * n], state[4 * n : 5 * n],
        state[10 * n : 12 * n], state[8 * n : 10 * n],
        state[15 * n :], state[12 * n : 15 * n],
    ))


def _sub_word(w: int) -> int:
    return int.from_bytes(w.to_bytes(4, "big").translate(_SBOX), "big")


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

    Use :meth:`encrypt_block` / :meth:`decrypt_block` on 16-byte blocks,
    :meth:`encrypt_counters` for a run of CTR blocks and :meth:`encrypt_runs`
    for several runs at once; for bulk data use the modes in
    :mod:`repro.crypto.modes`.
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
            schedule = struct.pack(f">{len(words)}I", *words)
            #: Round key ``i`` as a ``translate`` table: its 16 bytes in
            #: FIPS-197 order (entry ``k`` is XORed into block byte ``k``),
            #: then padding.
            self._key_tables = [
                schedule[i : i + 16] + _TABLE_PAD
                for i in range(0, len(schedule), 16)
            ]

    # -- encryption (byte-sliced rounds) ----------------------------------------

    def encrypt_counters(self, counter: int, n: int) -> bytes:
        """Encrypt the ``n`` blocks ``counter, counter + 1, ...`` (mod 2^128).

        Returns the ``16 * n`` ciphertext bytes in order: the CTR keystream
        for initial counter ``counter``.  One call covers a whole message;
        this is the one-run case of :meth:`encrypt_runs`.
        """
        return self.encrypt_runs(((counter, n),))

    def encrypt_runs(self, runs: Sequence[Tuple[int, int]]) -> bytes:
        """Encrypt several CTR runs in one byte-sliced pass.

        Each ``(counter, n)`` run is the ``n`` blocks ``counter, counter +
        1, ...`` (mod 2^128); the result is every run's ``16 * n`` bytes,
        concatenated in run order.  A pass costs about the same
        Python-level operations for one block or many, so several short
        messages under one key are cheapest as one call.
        """
        if not runs:
            raise ParameterError("need at least one CTR run")
        for _, count in runs:
            if count < 1:
                raise ParameterError(f"a CTR run needs a block, got {count}")
        blocks = b"".join([
            ((counter + i) & _MASK128).to_bytes(16, "big")
            for counter, count in runs
            for i in range(count)
        ])
        size = len(blocks)
        n = size // 16
        count_op("aes_block", n)
        full = (1 << (8 * size)) - 1
        row1, row2, row3 = 32 * n, 64 * n, 96 * n  # bits in 1, 2, 3 rows
        from_bytes = int.from_bytes
        # for each segment, the block byte it holds, n times: translated
        # through a round key's table it lays that key out like the state
        index = b"".join([k * n for k in _SEGMENT_BYTES])
        first, *middle, last = [
            from_bytes(index.translate(table), "big") for table in self._key_tables
        ]
        state = first ^ from_bytes(
            b"".join([blocks[k::16] for k in _ROW_MAJOR]), "big"
        )
        for round_key in middle:
            shifted = _shift_rows(state.to_bytes(size, "big"), n)
            a = from_bytes(shifted.translate(_SBOX), "big")
            b = from_bytes(shifted.translate(_XT), "big")
            # MixColumns: out_r = 2*a_r ^ 3*a_{r+1} ^ a_{r+2} ^ a_{r+3}; a
            # left rotation of the state by k rows brings row r + k to row r
            ab = a ^ b
            aa = a ^ ((a << row1) & full) ^ (a >> row3)
            state = (
                b
                ^ ((ab << row1) & full) ^ (ab >> row3)
                ^ ((aa << row2) & full) ^ (aa >> row2)
                ^ round_key
            )
        # the last round has no MixColumns
        shifted = _shift_rows(state.to_bytes(size, "big"), n)
        state = last ^ from_bytes(shifted.translate(_SBOX), "big")
        segments = state.to_bytes(size, "big")
        out = bytearray(size)
        for seg, k in enumerate(_ROW_MAJOR):
            out[k::16] = segments[seg * n : (seg + 1) * n]
        return bytes(out)

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
        round_keys = [list(table[:16]) for table in self._key_tables]
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
