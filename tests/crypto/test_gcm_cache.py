"""Micro-bench and regression tests for GCM setup caching.

BENCH_batch.json attributed ~2.0 s of a 2.17 s wall-clock PUT run to
``channel.encrypt`` + ``channel.decrypt``; nearly all of it was GCM
*setup* (AES key schedule + 16x256 GHASH table) being rebuilt for every
record even though the channel keys never change.  These tests pin the
fix: setup cost is paid once per key, not once per record, and the
cached path is measurably faster than fresh per-record construction.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.crypto import gcm
from repro.crypto.gcm import AesGcm, open_, seal


def _iv(i: int) -> bytes:
    return i.to_bytes(12, "big")


def test_instance_builds_ghash_table_once_across_records():
    cipher = AesGcm(b"\x11" * 16)
    before = gcm.table_builds
    for i in range(50):
        ct, tag = cipher.encrypt(_iv(i), b"payload-%d" % i)
        assert cipher.decrypt(_iv(i), ct, tag) == b"payload-%d" % i
    assert gcm.table_builds - before == 1


def test_seal_open_reuse_one_cipher_per_key():
    key = b"\x22" * 16
    gcm._CIPHER_CACHE.pop(key, None)
    before = gcm.table_builds
    blobs = [seal(key, _iv(i), b"record-%d" % i) for i in range(40)]
    for i, blob in enumerate(blobs):
        assert open_(key, blob) == b"record-%d" % i
    # One table build for the whole 80-record run, not 80.
    assert gcm.table_builds - before == 1


def test_instance_builds_lane_table_once_across_long_records():
    cipher = AesGcm(b"\x12" * 16)
    before = gcm.lane_table_builds
    long_record = bytes(16 * gcm._LANE_MIN_BLOCKS)
    for i in range(8):
        ct, tag = cipher.encrypt(_iv(i), long_record + bytes(i), aad=long_record)
        assert cipher.decrypt(_iv(i), ct, tag, aad=long_record) == long_record + bytes(i)
    assert gcm.lane_table_builds - before == 1


def test_records_below_lane_threshold_never_build_lane_table():
    # Hit-path records are all far below the threshold; they must keep
    # paying only the scalar table build per fresh key.
    cipher = AesGcm(b"\x13" * 16)
    before = gcm.lane_table_builds
    short = bytes(16 * gcm._LANE_MIN_BLOCKS - 1)
    for i in range(4):
        ct, tag = cipher.encrypt(_iv(i), short, aad=short)
        assert cipher.decrypt(_iv(i), ct, tag, aad=short) == short
    assert gcm.lane_table_builds == before


def test_fresh_key_short_seal_builds_one_scalar_table_and_no_lane_table():
    key = b"\x14" * 16
    gcm._CIPHER_CACHE.pop(key, None)
    tables, lanes = gcm.table_builds, gcm.lane_table_builds
    seal(key, _iv(0), b"r" * 512)
    assert gcm.table_builds - tables == 1
    assert gcm.lane_table_builds == lanes


def test_cipher_cache_is_bounded():
    gcm._CIPHER_CACHE.clear()
    for i in range(gcm._CIPHER_CACHE_MAX + 40):
        seal(i.to_bytes(16, "big"), _iv(i), b"x")
    assert len(gcm._CIPHER_CACHE) <= gcm._CIPHER_CACHE_MAX


def test_cipher_cache_keeps_a_reused_key():
    # LRU, not FIFO: a key used between runs of fresh keys survives far
    # more than _CIPHER_CACHE_MAX inserts without a rebuild.
    gcm._CIPHER_CACHE.clear()
    hot = b"\x55" * 16
    seal(hot, _iv(0), b"x")
    before = gcm.table_builds
    fresh = 0
    for _ in range(4):
        for _ in range(gcm._CIPHER_CACHE_MAX // 2):
            fresh += 1
            seal(fresh.to_bytes(16, "big"), _iv(fresh), b"x")
        seal(hot, _iv(fresh), b"x")
    assert fresh > gcm._CIPHER_CACHE_MAX
    assert gcm.table_builds - before == fresh  # one per fresh key, none for hot


def test_cached_seal_matches_fresh_cipher_and_rejects_tampering():
    key = b"\x33" * 16
    blob = seal(key, _iv(7), b"value", aad=b"meta")
    ct, tag = AesGcm(key).encrypt(_iv(7), b"value", aad=b"meta")
    assert blob == _iv(7) + tag + ct
    tampered = blob[:-1] + bytes([blob[-1] ^ 1])
    try:
        open_(key, tampered, aad=b"meta")
    except Exception as exc:
        assert type(exc).__name__ == "IntegrityError"
    else:  # pragma: no cover
        raise AssertionError("tampered blob verified")


def test_microbench_cached_setup_beats_per_record_setup():
    """Wall-clock micro-bench: N sealed records through the cached path
    must beat N records each paying full setup.  The margin is lenient
    (1.5x) so CI noise cannot flip it; the real ratio is far larger."""
    key = b"\x44" * 16
    payload = b"p" * 256
    n = 60

    seal(key, _iv(0), payload)  # warm the keyed cache

    t0 = time.perf_counter()
    for i in range(n):
        seal(key, _iv(i), payload)
    cached = time.perf_counter() - t0

    t0 = time.perf_counter()
    for i in range(n):
        cipher = AesGcm(key)
        cipher.encrypt(_iv(i), payload)
    fresh = time.perf_counter() - t0

    assert fresh > cached * 1.5, (
        f"expected cached GCM setup to win: fresh={fresh:.4f}s cached={cached:.4f}s"
    )


@pytest.mark.thread_stress
def test_cipher_cache_survives_concurrent_fresh_keys():
    # Fresh keys from many threads force constant LRU eviction; the pop,
    # evict and insert must not interleave (a shared victim made the
    # second pop raise KeyError, and the dict outgrew its bound).
    gcm._CIPHER_CACHE.clear()
    threads_n, per_thread = 8, 100
    errors = []
    barrier = threading.Barrier(threads_n)

    def work(t):
        barrier.wait()
        try:
            for i in range(per_thread):
                key = (t * per_thread + i).to_bytes(16, "big")
                assert open_(key, seal(key, _iv(i), b"x")) == b"x"
        except Exception as exc:  # recorded and asserted on below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(gcm._CIPHER_CACHE) <= gcm._CIPHER_CACHE_MAX
