"""AES-GCM-128 authenticated encryption (NIST SP 800-38D), from scratch.

The paper encrypts every cached computation result with ``AES-GCM-128``
from the SGX SDK crypto library.  This module reproduces that primitive:
CTR for confidentiality (:mod:`repro.crypto.ctr`) and GHASH over
GF(2^128) for authenticity.

One AES call per record: the counter blocks J0, inc32(J0), ... are
encrypted in a single :meth:`AES128.encrypt_blocks` batch.  The first
output block, E(K, J0), masks the tag; the rest are the CTR keystream.
:meth:`AesGcm.decrypt` verifies the tag before it forms any plaintext.

GHASH strategy: multiplication by the fixed hash subkey ``H`` is done with
per-key byte tables.  The 128 field elements ``B[k] = (1 << k) · H`` are
derived with 127 cheap "divide by x" steps, then each 256-entry table row
is built by doubling over its byte's eight bits.  The bulk loop unpacks
each block, XORed into the running state, into 16 byte locals and XORs
16 lookups from locally bound table rows, with no inner loop.

Both expensive setups are cached across records: an :class:`AesGcm`
instance builds its GHASH table once on first use (a channel endpoint
keeps one instance per direction for its whole life, so per-record cost
drops to the bulk work), and the one-shot :func:`seal`/:func:`open_`
helpers reuse a small keyed LRU cipher cache instead of re-running the
AES key schedule and table build for every blob.
"""

from __future__ import annotations

import numpy as np

from .aes import AES128, BLOCK_SIZE
from .constant_time import bytes_eq
from .ctr import _counter_blocks, xor_keystream
from ..errors import CryptoError, IntegrityError

TAG_SIZE = 16
IV_SIZE = 12

_R = 0xE1000000000000000000000000000000
_MASK128 = (1 << 128) - 1


def gf_mult(x: int, y: int) -> int:
    """Bitwise GF(2^128) multiplication (NIST algorithm); used for tests
    and for table construction sanity checks."""
    z = 0
    v = x
    for i in range(127, -1, -1):
        if (y >> i) & 1:
            z ^= v
        if v & 1:
            v = (v >> 1) ^ _R
        else:
            v >>= 1
    return z & _MASK128


# Table builds since import; the micro-bench asserts caching keeps this
# flat while record counts grow.
table_builds = 0


def _build_ghash_table(h: int) -> list[list[int]]:
    """Byte-indexed multiplication tables for the hash subkey ``h``.

    Row ``i`` maps byte ``i`` of a block (big-endian) to its product with
    ``h``.  Each row doubles from ``[0]`` over the byte's eight bits: the
    entries with bit ``j`` set are the entries without it XOR the product
    of that bit alone.
    """
    global table_builds
    table_builds += 1
    b = [0] * 128  # b[k] = (1 << k) · h
    b[127] = h
    for k in range(126, -1, -1):
        v = b[k + 1]
        b[k] = ((v >> 1) ^ _R) if (v & 1) else (v >> 1)
    table: list[list[int]] = []
    for i in range(16):
        row = [0]
        for bit in b[8 * (15 - i):8 * (16 - i)]:
            row += [r ^ bit for r in row]
        table.append(row)
    return table


def _ghash(table: list[list[int]], y: int, data: bytes) -> int:
    """Fold ``data``, zero-padded to whole blocks, into GHASH state ``y``.

    Each block is unpacked into 16 byte locals and multiplied by ``H``
    with one lookup per byte in the locally bound table rows.
    """
    if len(data) % BLOCK_SIZE:
        data = b"".join((data, bytes(BLOCK_SIZE - len(data) % BLOCK_SIZE)))
    t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15 = table
    for off in range(0, len(data), BLOCK_SIZE):
        b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15 = (
            y ^ int.from_bytes(data[off:off + BLOCK_SIZE], "big")
        ).to_bytes(BLOCK_SIZE, "big")
        y = (
            t0[b0] ^ t1[b1] ^ t2[b2] ^ t3[b3] ^ t4[b4] ^ t5[b5] ^ t6[b6] ^ t7[b7]
            ^ t8[b8] ^ t9[b9] ^ t10[b10] ^ t11[b11] ^ t12[b12] ^ t13[b13]
            ^ t14[b14] ^ t15[b15]
        )
    return y


class AesGcm:
    """AES-GCM-128 AEAD with 12-byte IVs and 16-byte tags.

    Mirrors the interface of the SGX SDK's ``sgx_rijndael128GCM_*``
    functions used by the paper's prototype.
    """

    def __init__(self, key: bytes):
        self._aes = AES128(key)
        self._h = int.from_bytes(self._aes.encrypt_block(b"\x00" * 16), "big")
        self._table: list[list[int]] | None = None  # built on first record

    def _ghash_table(self) -> list[list[int]]:
        if self._table is None:
            self._table = _build_ghash_table(self._h)
        return self._table

    def _j0(self, iv: bytes) -> bytes:
        if len(iv) == IV_SIZE:
            return iv + b"\x00\x00\x00\x01"
        table = self._ghash_table()
        y = _ghash(table, _ghash(table, 0, iv), (len(iv) * 8).to_bytes(16, "big"))
        return y.to_bytes(16, "big")

    def _keystream(self, j0: bytes, length: int) -> tuple[int, np.ndarray]:
        """E(K, J0) and the CTR keystream for ``length`` bytes.

        One AES call encrypts the counters J0, inc32(J0), ...: the first
        block masks the tag, the rest are the CTR keystream.
        """
        n_blocks = (length + BLOCK_SIZE - 1) // BLOCK_SIZE
        blocks = self._aes.encrypt_blocks(_counter_blocks(j0, 1 + n_blocks))
        return int.from_bytes(blocks[0].tobytes(), "big"), blocks[1:]

    def _tag(self, mask: int, aad: bytes, ciphertext: bytes) -> bytes:
        table = self._ghash_table()
        y = _ghash(table, 0, aad)
        y = _ghash(table, y, ciphertext)
        lengths = (len(aad) * 8).to_bytes(8, "big") + (len(ciphertext) * 8).to_bytes(8, "big")
        return (_ghash(table, y, lengths) ^ mask).to_bytes(TAG_SIZE, "big")

    def encrypt(self, iv: bytes, plaintext: bytes, aad: bytes = b"") -> tuple[bytes, bytes]:
        """Return ``(ciphertext, tag)``."""
        if not iv:
            raise CryptoError("GCM requires a non-empty IV")
        mask, keystream = self._keystream(self._j0(iv), len(plaintext))
        ciphertext = xor_keystream(plaintext, keystream)
        return ciphertext, self._tag(mask, aad, ciphertext)

    def decrypt(self, iv: bytes, ciphertext: bytes, tag: bytes, aad: bytes = b"") -> bytes:
        """Verify ``tag`` and return the plaintext; raise IntegrityError on
        any mismatch (the ``⊥`` of the paper's Fig. 3)."""
        if not iv:
            raise CryptoError("GCM requires a non-empty IV")
        mask, keystream = self._keystream(self._j0(iv), len(ciphertext))
        expected = self._tag(mask, aad, ciphertext)
        if len(tag) != TAG_SIZE or not bytes_eq(expected, tag):
            raise IntegrityError("GCM tag verification failed")
        return xor_keystream(ciphertext, keystream)


# Keyed cipher cache for the one-shot helpers.  Convergent (MLE) result
# keys repeat across PUT/GET of the same tag and channel record keys
# repeat for a connection's lifetime, so re-running the AES key schedule
# and the GHASH table build per blob was pure waste.  Bounded LRU: a hit
# moves the key to the end, so under Zipf traffic the hottest result keys
# stay cached while one-off keys are evicted.  Each entry holds a ~230 KB
# GHASH table and a miss costs ~0.5 ms to rebuild one; at 64 entries the
# cache stays near 15 MB, and on the hot-single benchmark workload
# (Zipf 1.1 over 256 keys) it rebuilds ~0.25 tables per request against
# ~0.12 at 128 entries, which would hold twice the memory.  The cache
# holds key material already present in process memory, so it adds no
# exposure beyond the caller's own key handling.
_CIPHER_CACHE: dict[bytes, AesGcm] = {}
_CIPHER_CACHE_MAX = 64


def _cipher_for(key: bytes) -> AesGcm:
    cipher = _CIPHER_CACHE.pop(key, None)
    if cipher is None:
        if len(_CIPHER_CACHE) >= _CIPHER_CACHE_MAX:
            _CIPHER_CACHE.pop(next(iter(_CIPHER_CACHE)))
        cipher = AesGcm(key)
    _CIPHER_CACHE[key] = cipher
    return cipher


def seal(key: bytes, iv: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
    """One-shot AEAD returning ``iv || tag || ciphertext`` as the paper's
    ``[res]`` notation (ciphertext covering auth code and IV)."""
    ct, tag = _cipher_for(key).encrypt(iv, plaintext, aad)
    return iv + tag + ct


def open_(key: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
    """Inverse of :func:`seal`; raises IntegrityError on tampering."""
    if len(sealed) < IV_SIZE + TAG_SIZE:
        raise IntegrityError("sealed blob too short")
    iv, tag, ct = sealed[:IV_SIZE], sealed[IV_SIZE:IV_SIZE + TAG_SIZE], sealed[IV_SIZE + TAG_SIZE:]
    return _cipher_for(key).decrypt(iv, ct, tag, aad)
