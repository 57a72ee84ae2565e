"""AES-128 block cipher implemented from scratch.

The paper's prototype uses the AES implementation shipped with the Intel
SGX SDK.  We have no native crypto available in this environment, so this
module provides a self-contained AES-128 whose tables (S-box, inverse
S-box, GF(2^8) multiplication tables and the 32-bit encryption T-tables)
are *derived at import time* from the field definition rather than
transcribed, which keeps the implementation auditable and removes
transcription risk.  Correctness is pinned to the FIPS-197 vectors in the
test suite.

Encryption uses T-tables: one table lookup per state byte performs
SubBytes and that byte's MixColumns contribution at once, so a round is
16 lookups and 16 XORs.  :meth:`AES128.encrypt_blocks` picks one of two
executions by batch size:

* fewer than ``_NUMPY_MIN_BLOCKS`` blocks run through a pure-Python
  T-table block function on a 128-bit integer state, which has no fixed
  per-call cost;
* larger batches run the same rounds vectorised in numpy: per round one
  gather of all 16 state bytes from a (16, 256) ``uint32`` table, then a
  4-way XOR per column.

:meth:`AES128.encrypt_block` always takes the pure-Python path.
Decryption (:meth:`AES128.decrypt_block`, :meth:`AES128.decrypt_blocks`)
keeps the byte-wise numpy inverse rounds; nothing on the data path
decrypts with AES, since CTR and GCM only ever encrypt.
"""

from __future__ import annotations

import numpy as np

from ..errors import CryptoError

BLOCK_SIZE = 16
KEY_SIZE = 16
_NUM_ROUNDS = 10


def _xtime(b: int) -> int:
    """Multiply by x (0x02) in GF(2^8) with the AES polynomial 0x11B."""
    b <<= 1
    if b & 0x100:
        b ^= 0x11B
    return b & 0xFF


def _build_tables():
    """Derive all AES lookup tables from the GF(2^8) field definition."""
    # Discrete log tables over the generator 0x03.
    log = [0] * 256
    exp = [0] * 510
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x ^= _xtime(x)  # x *= 0x03
    for i in range(255, 510):
        exp[i] = exp[i - 255]

    def gf_mul(a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return exp[log[a] + log[b]]

    sbox = [0] * 256
    for i in range(256):
        inv = 0 if i == 0 else exp[255 - log[i]]
        s = inv
        for shift in range(1, 5):
            s ^= ((inv << shift) | (inv >> (8 - shift))) & 0xFF
        sbox[i] = s ^ 0x63

    inv_sbox = [0] * 256
    for i, s in enumerate(sbox):
        inv_sbox[s] = i

    mul = {c: [gf_mul(i, c) for i in range(256)] for c in (1, 2, 3, 9, 11, 13, 14)}
    return sbox, inv_sbox, mul


_SBOX_LIST, _INV_SBOX_LIST, _MUL = _build_tables()

SBOX = np.array(_SBOX_LIST, dtype=np.uint8)
INV_SBOX = np.array(_INV_SBOX_LIST, dtype=np.uint8)
_M9 = np.array(_MUL[9], dtype=np.uint8)
_M11 = np.array(_MUL[11], dtype=np.uint8)
_M13 = np.array(_MUL[13], dtype=np.uint8)
_M14 = np.array(_MUL[14], dtype=np.uint8)

# ShiftRows as a flat permutation of the 16-byte state.  Byte i of a block
# holds state cell (row i % 4, column i // 4); row r rotates left by r.
_SHIFT_ROWS = np.array(
    [(i % 4) + 4 * (((i // 4) + (i % 4)) % 4) for i in range(16)], dtype=np.intp
)
_INV_SHIFT_ROWS = np.empty(16, dtype=np.intp)
_INV_SHIFT_ROWS[_SHIFT_ROWS] = np.arange(16, dtype=np.intp)

# Encryption T-tables.  _TE[r][x] is the MixColumns output column (row 0
# in the most significant byte) contributed by S[x] sitting in row r;
# _FE[r][x] is S[x] alone in row r, for the last round, which has no
# MixColumns.  A round of either kind XORs one entry per state byte.
_MIX_COLUMNS = ((2, 3, 1, 1), (1, 2, 3, 1), (1, 1, 2, 3), (3, 1, 1, 2))
_TE = tuple(
    [sum(_MUL[_MIX_COLUMNS[row][r]][s] << (24 - 8 * row) for row in range(4))
     for s in _SBOX_LIST]
    for r in range(4)
)
_FE = tuple([s << (24 - 8 * r) for s in _SBOX_LIST] for r in range(4))
_ROUND_TABLES = (_TE,) * (_NUM_ROUNDS - 1) + (_FE,)

# The same T-tables for the numpy path: row j serves state byte j, which
# sits in row j % 4, flattened so one take() gathers all 16 bytes.  Words
# are stored so that their memory bytes are the column in row order; the
# XORs never look at the value, so the host byte order does not matter.
_TE_GATHER = (
    np.array([_TE[j % 4] for j in range(16)], dtype=">u4")
    .view(np.uint8).view(np.uint32).reshape(-1)
)
_TE_OFFSETS = 256 * np.arange(16, dtype=np.intp)

# Batches below this many blocks take the pure-Python path.  Measured on
# one x86-64 core (CPython 3.11, numpy 2.4): the Python block function
# costs ~13 us per block with no per-call overhead, while the numpy path
# costs ~80-95 us for any batch up to ~25 blocks (its ~90 array
# operations dominate), so the two cross between 6 and 7 blocks.
_NUMPY_MIN_BLOCKS = 7


def _expand_key(key: bytes) -> bytes:
    """FIPS-197 key expansion for AES-128: 11 round keys, 176 bytes."""
    sbox = _SBOX_LIST
    w = [int.from_bytes(key[i:i + 4], "big") for i in range(0, KEY_SIZE, 4)]
    rcon = 1
    for i in range(4, 4 * (_NUM_ROUNDS + 1)):
        t = w[-1]
        if i % 4 == 0:
            # RotWord and SubWord, then Rcon into the first byte.
            t = (
                sbox[(t >> 16) & 0xFF] << 24 | sbox[(t >> 8) & 0xFF] << 16
                | sbox[t & 0xFF] << 8 | sbox[t >> 24]
            ) ^ (rcon << 24)
            rcon = _xtime(rcon)
        w.append(w[-4] ^ t)
    return b"".join(x.to_bytes(4, "big") for x in w)


def _encrypt_int(x: int, round_keys: tuple[int, ...]) -> int:
    """Encrypt one block held as a 128-bit big-endian integer.

    Column ``c`` of the state is bytes ``4c..4c+3``; after ShiftRows,
    row ``r`` of output column ``c`` comes from input column
    ``(c + r) % 4``, which is the byte each lookup below picks.
    """
    x ^= round_keys[0]
    for k, (t0, t1, t2, t3) in zip(round_keys[1:], _ROUND_TABLES):
        a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3 = (
            x.to_bytes(16, "big")
        )
        x = (
            (t0[a0] ^ t1[b1] ^ t2[c2] ^ t3[d3]) << 96
            | (t0[b0] ^ t1[c1] ^ t2[d2] ^ t3[a3]) << 64
            | (t0[c0] ^ t1[d1] ^ t2[a2] ^ t3[b3]) << 32
            | (t0[d0] ^ t1[a1] ^ t2[b2] ^ t3[c3])
        ) ^ k
    return x


def _inv_mix_columns(state: np.ndarray) -> np.ndarray:
    """InvMixColumns over an (N, 16) state array."""
    v = state.reshape(-1, 4, 4)
    b0, b1, b2, b3 = v[:, :, 0], v[:, :, 1], v[:, :, 2], v[:, :, 3]
    out = np.empty_like(v)
    out[:, :, 0] = _M14[b0] ^ _M11[b1] ^ _M13[b2] ^ _M9[b3]
    out[:, :, 1] = _M9[b0] ^ _M14[b1] ^ _M11[b2] ^ _M13[b3]
    out[:, :, 2] = _M13[b0] ^ _M9[b1] ^ _M14[b2] ^ _M11[b3]
    out[:, :, 3] = _M11[b0] ^ _M13[b1] ^ _M9[b2] ^ _M14[b3]
    return out.reshape(-1, 16)


class AES128:
    """AES-128 with precomputed round keys.

    Instances are immutable after construction and safe to share between
    the simulated enclave threads.
    """

    def __init__(self, key: bytes):
        if len(key) != KEY_SIZE:
            raise CryptoError(f"AES-128 requires a {KEY_SIZE}-byte key, got {len(key)}")
        schedule = _expand_key(bytes(key))
        # Row r is round key r: as bytes, as 128-bit integers (pure-Python
        # path) and as native uint32 words over the same bytes (numpy path).
        self._round_keys = np.frombuffer(schedule, dtype=np.uint8).reshape(-1, BLOCK_SIZE)
        self._round_ints = tuple(
            int.from_bytes(schedule[i:i + BLOCK_SIZE], "big")
            for i in range(0, len(schedule), BLOCK_SIZE)
        )
        self._round_words = self._round_keys.view(np.uint32)

    def encrypt_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Encrypt an (N, 16) uint8 array of blocks; returns a new array.

        Batches of fewer than ``_NUMPY_MIN_BLOCKS`` blocks run block by
        block in pure Python, larger ones through the numpy T-table
        rounds; both give the same bytes.
        """
        if blocks.ndim != 2 or blocks.shape[1] != BLOCK_SIZE:
            raise CryptoError("encrypt_blocks expects an (N, 16) array")
        blocks = blocks.astype(np.uint8, copy=False)
        if len(blocks) >= _NUMPY_MIN_BLOCKS:
            return self._encrypt_vectorised(blocks)
        data = blocks.tobytes()
        round_keys = self._round_ints
        out = bytearray()
        for off in range(0, len(data), BLOCK_SIZE):
            x = int.from_bytes(data[off:off + BLOCK_SIZE], "big")
            out += _encrypt_int(x, round_keys).to_bytes(BLOCK_SIZE, "big")
        return np.frombuffer(out, dtype=np.uint8).reshape(-1, BLOCK_SIZE)

    def _encrypt_vectorised(self, blocks: np.ndarray) -> np.ndarray:
        state = blocks ^ self._round_keys[0]
        for rnd in range(1, _NUM_ROUNDS):
            # take() along an axis returns a C-ordered array.  Fancy
            # indexing (state[:, _SHIFT_ROWS]) returns an F-ordered one,
            # whose order carries through to ``words``, and that could not
            # be viewed back as bytes.
            index = state.take(_SHIFT_ROWS, axis=1).astype(np.intp)
            index += _TE_OFFSETS
            cols = _TE_GATHER.take(index).reshape(-1, 4, 4)
            words = cols[:, :, 0] ^ cols[:, :, 1]
            words ^= cols[:, :, 2]
            words ^= cols[:, :, 3]
            words ^= self._round_words[rnd]
            state = words.view(np.uint8)
        state = SBOX.take(state.take(_SHIFT_ROWS, axis=1))
        state ^= self._round_keys[_NUM_ROUNDS]
        return state

    def decrypt_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Decrypt an (N, 16) uint8 array of blocks; returns a new array."""
        if blocks.ndim != 2 or blocks.shape[1] != BLOCK_SIZE:
            raise CryptoError("decrypt_blocks expects an (N, 16) array")
        state = blocks.astype(np.uint8, copy=True)
        state ^= self._round_keys[_NUM_ROUNDS]
        state = state[:, _INV_SHIFT_ROWS]
        state = INV_SBOX[state]
        for rnd in range(_NUM_ROUNDS - 1, 0, -1):
            state ^= self._round_keys[rnd]
            state = _inv_mix_columns(state)
            state = state[:, _INV_SHIFT_ROWS]
            state = INV_SBOX[state]
        state ^= self._round_keys[0]
        return state

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block (pure-Python T-table path)."""
        if len(block) != BLOCK_SIZE:
            raise CryptoError("block must be 16 bytes")
        x = int.from_bytes(block, "big")
        return _encrypt_int(x, self._round_ints).to_bytes(BLOCK_SIZE, "big")

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise CryptoError("block must be 16 bytes")
        arr = np.frombuffer(block, dtype=np.uint8).reshape(1, BLOCK_SIZE)
        return self.decrypt_blocks(arr).tobytes()
