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
is built by doubling over its byte's eight bits.  :meth:`AesGcm._hash`
picks one of two executions by input length:

* fewer than ``_LANE_MIN_BLOCKS`` blocks run the scalar Horner loop
  :func:`_ghash`: each block, XORed into the running state, is unpacked
  into 16 byte locals and multiplied by ``H`` with 16 lookups from
  locally bound table rows, with no inner loop;
* longer inputs run :func:`_ghash_lanes`.  The blocks are zero-padded at
  the front to ``G`` groups of ``_LANES`` = 64 and the incoming state is
  XORed into the first real block (leading zero blocks leave a sum that
  starts at 0 unchanged).  Lane ``j`` takes block ``j`` of every group,
  and all 64 lanes run Horner by ``H^64`` at once in numpy, one table
  gather per group, giving lane sums ``s_j``.  GHASH of the whole input
  is ``Σ_i x_i · H^(n-i)``; block ``i = 64g + j`` sits in lane ``j``
  with weight ``H^(64(G-1-g))``, so one scalar Horner pass by ``H`` over
  ``s_0 .. s_63`` supplies the missing ``H^(64-j)`` and yields exactly
  the scalar result.  The ``H^64`` table is derived the same way as the
  ``H`` table, vectorised across its 16 rows.

Both expensive setups are cached across records: an :class:`AesGcm`
instance builds its GHASH table once on first use, and its ``H^64`` lane
table once on its first long input (a channel endpoint keeps one
instance per direction for its whole life, so per-record cost drops to
the bulk work), and the one-shot :func:`seal`/:func:`open_`
helpers reuse a small keyed LRU cipher cache instead of re-running the
AES key schedule and table build for every blob.
"""

from __future__ import annotations

import threading

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


# Table builds since import; the micro-bench asserts caching keeps these
# flat while record counts grow.
table_builds = 0
lane_table_builds = 0

# Lane execution of GHASH (see the module docstring).  Measured on a
# 2-core x86 VM: the scalar loop costs ~1.1-1.5 us per block; the lane
# path costs ~90 us for the 64-block scalar fold, ~10-15 us per group of
# 64 blocks, and ~0.2-0.3 ms once per key to build the H^64 table.  With
# the tables built the two cross near 80-100 blocks; for a fresh key that
# pays the lane-table build they cross near 270-300 blocks.  256 blocks
# (4 KiB) keeps every short record, including all hit-path traffic, on
# the scalar loop and off the lane-table build.
_LANES = 64
_LANE_MIN_BLOCKS = 4 * _LANES
_LANE_OFFSETS = (256 * np.arange(BLOCK_SIZE, dtype=np.intp))[:, None]


def _basis(h: int) -> list[int]:
    """``b[k] = (1 << k) · h`` for k = 0..127, by "divide by x" steps."""
    b = [0] * 128
    b[127] = h
    for k in range(126, -1, -1):
        v = b[k + 1]
        b[k] = ((v >> 1) ^ _R) if (v & 1) else (v >> 1)
    return b


def _build_ghash_table(h: int) -> list[list[int]]:
    """Byte-indexed multiplication tables for the hash subkey ``h``.

    Row ``i`` maps byte ``i`` of a block (big-endian) to its product with
    ``h``.  Each row doubles from ``[0]`` over the byte's eight bits: the
    entries with bit ``j`` set are the entries without it XOR the product
    of that bit alone.
    """
    global table_builds
    table_builds += 1
    b = _basis(h)
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


def _build_lane_table(table: list[list[int]], h: int) -> np.ndarray:
    """(16 * 256, 2) ``uint64`` multiplication table for ``H^64``.

    Row ``256 * i + v`` is byte value ``v`` at big-endian position ``i``
    times ``H^64``, stored as its 16 big-endian bytes so that it XORs
    directly against block bytes viewed as ``uint64``.  ``H^64`` is
    ``H`` run through 63 zero blocks of the scalar loop; the rows are
    built as in :func:`_build_ghash_table`, doubling all 16 at once.
    """
    global lane_table_builds
    lane_table_builds += 1
    b = _basis(_ghash(table, h, bytes(BLOCK_SIZE * (_LANES - 1))))
    # Row i takes b[8 * (15 - i) + j] for bit j; reversed(b) lists those
    # high bit first, hence the flip of the bit axis.
    basis = np.frombuffer(
        b"".join(v.to_bytes(BLOCK_SIZE, "big") for v in reversed(b)), dtype=np.uint64,
    ).reshape(BLOCK_SIZE, 8, 1, 2)[:, ::-1]
    rows = np.zeros((BLOCK_SIZE, 1, 2), dtype=np.uint64)
    for j in range(8):
        rows = np.concatenate((rows, rows ^ basis[:, j]), axis=1)
    return rows.reshape(BLOCK_SIZE * 256, 2)


def _ghash_lanes(lane_table: np.ndarray, table: list[list[int]], y: int, data: bytes) -> int:
    """:func:`_ghash` for long inputs: 64-lane Horner by ``H^64`` in
    numpy, then one scalar fold of the lane sums.  Same result."""
    n_blocks = -(-len(data) // BLOCK_SIZE)
    front = BLOCK_SIZE * (-n_blocks % _LANES)
    buf = bytearray(front + BLOCK_SIZE * n_blocks)
    buf[front:front + len(data)] = data
    first = int.from_bytes(buf[front:front + BLOCK_SIZE], "big") ^ y
    buf[front:front + BLOCK_SIZE] = first.to_bytes(BLOCK_SIZE, "big")
    groups = np.frombuffer(buf, dtype=np.uint64).reshape(-1, _LANES, 2)
    s = groups[0].copy()
    s_bytes = s.view(np.uint8).reshape(_LANES, BLOCK_SIZE).T
    idx = np.empty((BLOCK_SIZE, _LANES), dtype=np.intp)
    products = np.empty((BLOCK_SIZE, _LANES, 2), dtype=np.uint64)
    for x in groups[1:]:
        # s <- s · H^64 ^ x: gather each byte's product, then XOR-reduce
        # over the contiguous leading (byte-position) axis.
        np.add(s_bytes, _LANE_OFFSETS, out=idx)
        lane_table.take(idx, axis=0, out=products)
        np.bitwise_xor.reduce(products, axis=0, out=s)
        np.bitwise_xor(s, x, out=s)
    return _ghash(table, 0, s.tobytes())


class AesGcm:
    """AES-GCM-128 AEAD with 12-byte IVs and 16-byte tags.

    Mirrors the interface of the SGX SDK's ``sgx_rijndael128GCM_*``
    functions used by the paper's prototype.

    An instance may be shared between threads.  Its GHASH tables are
    built lazily and each build assigns only a complete table, so two
    threads racing on the first record at worst both build one and the
    last assignment wins; either table gives the same bytes.
    """

    def __init__(self, key: bytes):
        self._aes = AES128(key)
        self._h = int.from_bytes(self._aes.encrypt_block(b"\x00" * 16), "big")
        self._table: list[list[int]] | None = None  # built on first record
        self._lane_table: np.ndarray | None = None  # built on first long input

    def _ghash_table(self) -> list[list[int]]:
        if self._table is None:
            self._table = _build_ghash_table(self._h)
        return self._table

    def _hash(self, y: int, data: bytes) -> int:
        """Fold ``data`` into GHASH state ``y``, on the lane path when
        ``data`` spans at least ``_LANE_MIN_BLOCKS`` blocks."""
        table = self._ghash_table()
        if len(data) < BLOCK_SIZE * _LANE_MIN_BLOCKS:
            return _ghash(table, y, data)
        if self._lane_table is None:
            self._lane_table = _build_lane_table(table, self._h)
        return _ghash_lanes(self._lane_table, table, y, data)

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
        y = self._hash(self._hash(0, aad), ciphertext)
        lengths = (len(aad) * 8).to_bytes(8, "big") + (len(ciphertext) * 8).to_bytes(8, "big")
        return (_ghash(self._ghash_table(), y, lengths) ^ mask).to_bytes(TAG_SIZE, "big")

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
# GHASH table, plus a 64 KB H^64 lane table once the key has seen an
# input of at least _LANE_MIN_BLOCKS blocks; a miss costs ~0.3-0.5 ms to
# rebuild the first.  At 64 entries the cache stays near 15-19 MB, and on
# the hot-single benchmark workload (Zipf 1.1 over 256 keys, 256 B
# results, so no lane tables) it rebuilds ~0.25 tables per request
# against ~0.12 at 128 entries, which would hold twice the memory.  The
# cache holds key material already present in process memory, so it adds
# no exposure beyond the caller's own key handling.  _CIPHER_CACHE_LOCK
# guards every read-modify-write of the dict: without it two threads can
# pick the same LRU victim and the second pop fails.
_CIPHER_CACHE: dict[bytes, AesGcm] = {}
_CIPHER_CACHE_MAX = 64
_CIPHER_CACHE_LOCK = threading.Lock()


def _cipher_for(key: bytes) -> AesGcm:
    with _CIPHER_CACHE_LOCK:
        cipher = _CIPHER_CACHE.pop(key, None)
        if cipher is not None:
            _CIPHER_CACHE[key] = cipher
            return cipher
    fresh = AesGcm(key)  # key schedule outside the lock
    with _CIPHER_CACHE_LOCK:
        # Another thread may have cached this key meanwhile; keep theirs.
        cipher = _CIPHER_CACHE.pop(key, None) or fresh
        if cipher is fresh and len(_CIPHER_CACHE) >= _CIPHER_CACHE_MAX:
            del _CIPHER_CACHE[next(iter(_CIPHER_CACHE))]
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
