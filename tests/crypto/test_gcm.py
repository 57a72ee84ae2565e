"""AES-GCM: NIST vectors, GF(2^128) algebra, tamper detection."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import gcm
from repro.crypto.aes import AES128
from repro.crypto.gcm import (
    AesGcm, gf_mult, open_, seal, _build_ghash_table, _build_lane_table, _ghash, _ghash_lanes,
)
from repro.errors import CryptoError, IntegrityError

# McGrew-Viega GCM test cases 3-6 share this key, plaintext and AAD.
CASE_KEY = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
CASE_PT = bytes.fromhex(
    "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
    "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255"
)
CASE_AAD = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")
CASE3_CT = (
    "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
    "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985"
)


def _horner_reference(h: int, y: int, data: bytes) -> int:
    """Fold ``data``, zero-padded to whole blocks, into state ``y`` with the
    bitwise NIST multiplication, one block at a time."""
    data += bytes(-len(data) % 16)
    for i in range(0, len(data), 16):
        y = gf_mult(y ^ int.from_bytes(data[i:i + 16], "big"), h)
    return y


def _ghash_reference(h: int, aad: bytes, ciphertext: bytes) -> int:
    """GHASH by the bitwise NIST multiplication, one block at a time."""
    lengths = (((len(aad) * 8) << 64) | (len(ciphertext) * 8)).to_bytes(16, "big")
    y = _horner_reference(h, 0, aad)
    y = _horner_reference(h, y, ciphertext)
    return _horner_reference(h, y, lengths)


class TestNistVectors:
    def test_case1_empty(self):
        _, tag = AesGcm(b"\x00" * 16).encrypt(b"\x00" * 12, b"")
        assert tag.hex() == "58e2fccefa7e3061367f1d57a4e7455a"

    def test_case2_one_block(self):
        ct, tag = AesGcm(b"\x00" * 16).encrypt(b"\x00" * 12, b"\x00" * 16)
        assert ct.hex() == "0388dace60b6a392f328c2b971b2fe78"
        assert tag.hex() == "ab6e47d42cec13bdf53a67b21257bddf"

    def test_case3_four_blocks(self):
        ct, tag = AesGcm(CASE_KEY).encrypt(bytes.fromhex("cafebabefacedbaddecaf888"), CASE_PT)
        assert ct.hex() == CASE3_CT
        assert tag.hex() == "4d5c2af327cd64a62cf35abd2ba6fab4"

    def test_case4_with_aad(self):
        key = CASE_KEY
        iv = bytes.fromhex("cafebabefacedbaddecaf888")
        pt = CASE_PT[:60]
        aad = CASE_AAD
        ct, tag = AesGcm(key).encrypt(iv, pt, aad)
        assert ct.hex() == CASE3_CT[:120]
        assert tag.hex() == "5bc94fbc3221a5db94fae95ae7121a47"
        assert AesGcm(key).decrypt(iv, ct, tag, aad) == pt

    @pytest.mark.parametrize("iv_hex, ct_hex, tag_hex", [
        # Case 5: 8-byte IV.
        ("cafebabefacedbad",
         "61353b4c2806934a777ff51fa22a4755699b2a714fcdc6f83766e5f97b6c7423"
         "73806900e49f24b22b097544d4896b424989b5e1ebac0f07c23f4598",
         "3612d2e79e3b0785561be14aaca2fccb"),
        # Case 6: 60-byte IV.
        ("9313225df88406e555909c5aff5269aa6a7a9538534f7da1e4c303d2a318a728"
         "c3c0c95156809539fcf0e2429a6b525416aedbf5a0de6a57a637b39b",
         "8ce24998625615b603a033aca13fb894be9112a5c3a211a8ba262a3cca7e2ca7"
         "01e4a9a4fba43c90ccdcb281d48c7c6fd62875d2aca417034c34aee5",
         "619cc5aefffe0bfa462af43c1699d050"),
    ])
    def test_cases5_6_ghash_derived_j0(self, iv_hex, ct_hex, tag_hex):
        # Non-12-byte IVs derive J0 through GHASH; the keystream batch
        # must start its counters from that J0.
        iv = bytes.fromhex(iv_hex)
        ct, tag = AesGcm(CASE_KEY).encrypt(iv, CASE_PT[:60], CASE_AAD)
        assert ct.hex() == ct_hex
        assert tag.hex() == tag_hex
        assert AesGcm(CASE_KEY).decrypt(iv, ct, tag, CASE_AAD) == CASE_PT[:60]

    def test_long_iv_path(self):
        # Non-12-byte IVs go through the GHASH J0 derivation.
        g = AesGcm(b"\x01" * 16)
        ct, tag = g.encrypt(b"\x02" * 20, b"payload")
        assert g.decrypt(b"\x02" * 20, ct, tag) == b"payload"


class TestFoldedKeystream:
    def test_j0_counter_wrap_matches_unfolded_reference(self, monkeypatch):
        # J0's counter field at 0xFFFFFFFF: the tag mask is E(K, J0) and
        # the CTR keystream starts at inc32(J0), which wraps to zero.
        key = b"\x5a" * 16
        j0 = bytes.fromhex("00112233445566778899aabb") + b"\xff\xff\xff\xff"
        pt, aad = bytes(range(100)), b"header"
        cipher = AesGcm(key)
        monkeypatch.setattr(cipher, "_j0", lambda iv: j0)
        ct, tag = cipher.encrypt(b"iv", pt, aad)

        aes = AES128(key)
        keystream = b"".join(
            aes.encrypt_block(j0[:12] + ((0xFFFFFFFF + 1 + i) % (1 << 32)).to_bytes(4, "big"))
            for i in range(7)
        )
        assert ct == bytes(a ^ b for a, b in zip(pt, keystream))
        h = int.from_bytes(aes.encrypt_block(bytes(16)), "big")
        mask = int.from_bytes(aes.encrypt_block(j0), "big")
        assert tag == (_ghash_reference(h, aad, ct) ^ mask).to_bytes(16, "big")
        assert cipher.decrypt(b"iv", ct, tag, aad) == pt

    @pytest.mark.parametrize("size", [0, 60, 200, 8192])
    def test_one_aes_call_per_record(self, monkeypatch, size):
        cipher = AesGcm(b"\x0f" * 16)
        calls = []
        batch = AES128.encrypt_blocks

        def counting(self, blocks):
            calls.append(len(blocks))
            return batch(self, blocks)

        def forbidden(self, block):
            raise AssertionError("record path called encrypt_block")

        monkeypatch.setattr(AES128, "encrypt_blocks", counting)
        monkeypatch.setattr(AES128, "encrypt_block", forbidden)
        ct, tag = cipher.encrypt(b"\x01" * 12, bytes(size))
        assert calls == [1 + (size + 15) // 16]
        assert cipher.decrypt(b"\x01" * 12, ct, tag) == bytes(size)
        assert len(calls) == 2


class TestGhashAlgebra:
    H = int.from_bytes(bytes.fromhex("66e94bd4ef8a2c3b884cfa59ca342b2e"), "big")

    def test_identity_element(self):
        one = 1 << 127
        assert gf_mult(self.H, one) == self.H

    def test_commutative(self):
        a, b = 0x1234567890ABCDEF << 64, 0xFEDCBA0987654321
        assert gf_mult(a, b) == gf_mult(b, a)

    def test_distributive(self):
        a, b, c = (0x1111 << 100), (0x2222 << 50), 0x3333
        assert gf_mult(a ^ b, c) == gf_mult(a, c) ^ gf_mult(b, c)

    def test_table_agrees_with_bitwise_mult(self):
        table = _build_ghash_table(self.H)
        for x in (1, 0xDEADBEEF, (1 << 127) | 0xABCD, (0x77 << 120) | (0x55 << 8)):
            via_table = 0
            for i in range(16):
                via_table ^= table[i][(x >> (8 * (15 - i))) & 0xFF]
            assert via_table == gf_mult(x, self.H)

    def test_lane_table_agrees_with_bitwise_mult_by_h64(self):
        lane_table = _build_lane_table(_build_ghash_table(self.H), self.H)
        h64 = self.H
        for _ in range(63):
            h64 = gf_mult(h64, self.H)
        for x in (1, 0xDEADBEEF, (1 << 127) | 0xABCD, (0x77 << 120) | (0x55 << 8), (1 << 128) - 1):
            rows = [256 * i + byte for i, byte in enumerate(x.to_bytes(16, "big"))]
            product = np.bitwise_xor.reduce(lane_table[rows], axis=0)
            assert int.from_bytes(product.tobytes(), "big") == gf_mult(x, h64)


LANES = gcm._LANES
LANE_MIN = gcm._LANE_MIN_BLOCKS
# Block counts either side of the lane threshold and of lane multiples.
LANE_BLOCK_COUNTS = [
    LANE_MIN - 1, LANE_MIN, LANE_MIN + 1,
    5 * LANES - 1, 5 * LANES + 1, 8 * LANES - 1, 8 * LANES + 1,
]


class TestLaneGhash:
    CIPHER = AesGcm(CASE_KEY)
    H = CIPHER._h
    TABLE = _build_ghash_table(H)
    LANE_TABLE = _build_lane_table(TABLE, H)

    @given(
        n_blocks=st.sampled_from(LANE_BLOCK_COUNTS),
        cut=st.integers(0, 15),
        y=st.integers(1, (1 << 128) - 1),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_lanes_match_scalar_loop(self, n_blocks, cut, y, seed):
        # ``cut`` > 0 leaves a partial last block; the block count stays.
        data = random.Random(seed).randbytes(16 * n_blocks - cut)
        scalar = _ghash(self.TABLE, y, data)
        assert _ghash_lanes(self.LANE_TABLE, self.TABLE, y, data) == scalar
        assert self.CIPHER._hash(y, data) == scalar

    @pytest.mark.parametrize("n_blocks, cut", [
        (LANE_MIN, 0), (LANE_MIN + 1, 7), (5 * LANES - 1, 0), (1100, 3),
    ])
    def test_lanes_match_bitwise_reference(self, n_blocks, cut):
        data = random.Random(n_blocks).randbytes(16 * n_blocks - cut)
        y = 0x0123456789ABCDEF0FEDCBA987654321
        assert _ghash_lanes(self.LANE_TABLE, self.TABLE, y, data) == _horner_reference(self.H, y, data)

    def test_long_record_tag_matches_bitwise_reference(self):
        # Both the AAD and the ciphertext take the lane path, so the
        # ciphertext's incoming state is the AAD's hash.
        rng = random.Random(5)
        pt, aad = rng.randbytes(16 * 1000 + 9), rng.randbytes(16 * LANE_MIN + 4)
        iv = bytes(range(12))
        ct, tag = AesGcm(CASE_KEY).encrypt(iv, pt, aad)
        aes = AES128(CASE_KEY)
        mask = int.from_bytes(aes.encrypt_block(iv + b"\x00\x00\x00\x01"), "big")
        assert tag == (_ghash_reference(self.H, aad, ct) ^ mask).to_bytes(16, "big")

    @pytest.mark.parametrize("size", [4096 - 1, 4096, 8192, 128 * 1024 + 5])
    def test_long_record_roundtrip_and_tamper(self, size):
        rng = random.Random(size)
        pt, aad = rng.randbytes(size), rng.randbytes(40)
        iv = rng.randbytes(12)
        ct, tag = AesGcm(CASE_KEY).encrypt(iv, pt, aad)
        cipher = AesGcm(CASE_KEY)
        assert cipher.decrypt(iv, ct, tag, aad) == pt

        def flip(data, at):
            return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:]

        for bad_ct, bad_tag, bad_aad in [
            (flip(ct, 0), tag, aad),              # first block
            (flip(ct, size // 2), tag, aad),      # middle block
            (flip(ct, size - 1), tag, aad),       # last block
            (ct, tag, flip(aad, 17)),
            (ct, flip(tag, 15), aad),
        ]:
            with pytest.raises(IntegrityError):
                cipher.decrypt(iv, bad_ct, bad_tag, bad_aad)


class TestTamperDetection:
    KEY = b"k" * 16
    IV = b"i" * 12

    def _encrypt(self, pt=b"secret result bytes", aad=b"tag-binding"):
        return AesGcm(self.KEY).encrypt(self.IV, pt, aad)

    def test_ciphertext_flip_detected(self):
        ct, tag = self._encrypt()
        bad = ct[:-1] + bytes([ct[-1] ^ 1])
        with pytest.raises(IntegrityError):
            AesGcm(self.KEY).decrypt(self.IV, bad, tag, b"tag-binding")

    def test_tag_flip_detected(self):
        ct, tag = self._encrypt()
        bad = tag[:-1] + bytes([tag[-1] ^ 1])
        with pytest.raises(IntegrityError):
            AesGcm(self.KEY).decrypt(self.IV, ct, bad, b"tag-binding")

    def test_wrong_aad_detected(self):
        ct, tag = self._encrypt()
        with pytest.raises(IntegrityError):
            AesGcm(self.KEY).decrypt(self.IV, ct, tag, b"other-binding")

    def test_wrong_iv_detected(self):
        ct, tag = self._encrypt()
        with pytest.raises(IntegrityError):
            AesGcm(self.KEY).decrypt(b"j" * 12, ct, tag, b"tag-binding")

    def test_wrong_key_detected(self):
        ct, tag = self._encrypt()
        with pytest.raises(IntegrityError):
            AesGcm(b"x" * 16).decrypt(self.IV, ct, tag, b"tag-binding")

    def test_truncated_tag_rejected(self):
        ct, tag = self._encrypt()
        with pytest.raises(IntegrityError):
            AesGcm(self.KEY).decrypt(self.IV, ct, tag[:12], b"tag-binding")

    def test_empty_iv_rejected(self):
        with pytest.raises(CryptoError):
            AesGcm(self.KEY).encrypt(b"", b"data")


class TestSealOpen:
    @given(st.binary(max_size=2048), st.binary(max_size=64))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip(self, plaintext, aad):
        blob = seal(b"k" * 16, b"i" * 12, plaintext, aad)
        assert open_(b"k" * 16, blob, aad) == plaintext

    def test_blob_layout(self):
        blob = seal(b"k" * 16, b"i" * 12, b"abc")
        assert blob[:12] == b"i" * 12
        assert len(blob) == 12 + 16 + 3

    def test_short_blob_rejected(self):
        with pytest.raises(IntegrityError):
            open_(b"k" * 16, b"too-short")

    def test_randomised_ivs_give_distinct_ciphertexts(self):
        a = seal(b"k" * 16, b"i" * 12, b"same message")
        b = seal(b"k" * 16, b"j" * 12, b"same message")
        assert a[28:] != b[28:]
