"""AES-128 counter mode: one keystream batch per message.

CTR is the confidentiality half of GCM.  The keystream is produced by
encrypting a run of counter blocks in one :meth:`AES128.encrypt_blocks`
call, which picks the pure-Python block function for short runs and the
numpy T-table rounds for long ones, so the megabyte-scale result
ciphertexts of the paper's Fig. 6 sweep stay feasible in pure Python.
GCM builds its counters with the same :func:`_counter_blocks`, prefixed
by J0 so the tag mask comes out of the same batch, and applies the
keystream with the same :func:`xor_keystream`.
"""

from __future__ import annotations

import numpy as np

from .aes import AES128, BLOCK_SIZE
from ..errors import CryptoError


def _counter_blocks(initial: bytes, count: int) -> np.ndarray:
    """Build ``count`` counter blocks with GCM's inc32 on the last 4 bytes."""
    if len(initial) != BLOCK_SIZE:
        raise CryptoError("initial counter block must be 16 bytes")
    # Each block as four big-endian words; uint32 addition wraps the last
    # word mod 2^32, which is exactly inc32.
    words = np.frombuffer(bytes(initial) * count, dtype=">u4").reshape(count, 4).copy()
    words[:, 3] += np.arange(count, dtype=np.uint32)
    return words.view(np.uint8)


def xor_keystream(data: bytes, keystream: np.ndarray) -> bytes:
    """XOR ``data`` with the leading bytes of an (N, 16) keystream."""
    buf = np.frombuffer(data, dtype=np.uint8)
    return (buf ^ keystream.reshape(-1)[: len(data)]).tobytes()


def ctr_transform(cipher: AES128, initial_counter: bytes, data: bytes) -> bytes:
    """Encrypt or decrypt ``data`` (CTR is an involution) in one batch."""
    if not data:
        return b""
    n_blocks = (len(data) + BLOCK_SIZE - 1) // BLOCK_SIZE
    keystream = cipher.encrypt_blocks(_counter_blocks(initial_counter, n_blocks))
    return xor_keystream(data, keystream)
