"""Unit tests for the Reed-Solomon codec and coding configuration."""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from repro.erasure import (
    CodingConfig,
    NotEnoughShares,
    RSCodec,
    Share,
    ShareMismatch,
    codec_for,
    decode,
    encode,
)
from repro.erasure.matrix import systematic_encode_matrix, vandermonde
from repro.erasure import gf256


class TestCodingConfig:
    def test_paper_example_redundancy(self):
        # Section 2.2: n=5, m=3, k=2 -> r = 5/3.
        cfg = CodingConfig(3, 5)
        assert cfg.k == 2
        assert cfg.redundancy_rate == Fraction(5, 3)

    def test_replication_degenerate(self):
        cfg = CodingConfig(1, 5)
        assert cfg.is_replication
        assert cfg.redundancy_rate == Fraction(5, 1)
        assert cfg.share_size(1000) == 1000

    def test_share_size_rounds_up(self):
        cfg = CodingConfig(3, 5)
        assert cfg.share_size(9) == 3
        assert cfg.share_size(10) == 4
        assert cfg.share_size(0) == 0

    def test_padded_and_total(self):
        cfg = CodingConfig(3, 5)
        assert cfg.padded_size(10) == 12
        assert cfg.total_coded_size(10) == 20

    def test_savings(self):
        cfg = CodingConfig(3, 5)
        # 5 shares of ~1/3 size vs 5 full copies ~ 2/3 saved.
        assert cfg.savings_vs_replication(3 * 1024) == pytest.approx(2 / 3)
        assert cfg.savings_vs_replication(0) == 0.0

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            CodingConfig(0, 5)
        with pytest.raises(ValueError):
            CodingConfig(6, 5)
        with pytest.raises(ValueError):
            CodingConfig(10, 300)

    def test_str_matches_paper_notation(self):
        assert str(CodingConfig(3, 5)) == "theta(3,5)"

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            CodingConfig(3, 5).share_size(-1)


class TestEncodeMatrix:
    def test_vandermonde_all_submatrices_invertible(self):
        v = vandermonde(7, 3)
        for rows in combinations(range(7), 3):
            assert gf256.mat_rank(v[list(rows)]) == 3

    def test_systematic_top_is_identity(self):
        m = systematic_encode_matrix(6, 4)
        assert np.array_equal(m[:4], np.eye(4, dtype=np.uint8))

    def test_systematic_is_mds(self):
        m = systematic_encode_matrix(7, 3)
        for rows in combinations(range(7), 3):
            assert gf256.mat_rank(m[list(rows)]) == 3

    def test_bad_params(self):
        with pytest.raises(ValueError):
            vandermonde(3, 5)
        with pytest.raises(ValueError):
            vandermonde(500, 2)


class TestRSCodec:
    @pytest.mark.parametrize("x,n", [(1, 3), (2, 3), (3, 5), (3, 7), (5, 7), (4, 6)])
    def test_roundtrip_all_x_subsets(self, x, n):
        cfg = CodingConfig(x, n)
        codec = RSCodec(cfg)
        value = bytes(np.random.default_rng(42).integers(0, 256, 101, dtype=np.uint8))
        shares = codec.encode(value)
        assert len(shares) == n
        for subset in combinations(shares, x):
            assert codec.decode(list(subset)) == value

    def test_original_shares_are_verbatim_slices(self):
        cfg = CodingConfig(3, 5)
        value = b"abcdefghi"  # 9 bytes, divides evenly by 3
        shares = codec_for(cfg).encode(value)
        assert shares[0].data == b"abc"
        assert shares[1].data == b"def"
        assert shares[2].data == b"ghi"
        assert all(s.is_original for s in shares[:3])
        assert not any(s.is_original for s in shares[3:])

    def test_share_sizes_equal(self):
        """Every share is charged at the one canonical size ceil(100/3);
        the tail original holds only the 32 bytes the value has left,
        its two bytes of zero padding implicit."""
        cfg = CodingConfig(3, 5)
        value = b"x" * 100
        shares = encode(value, cfg)
        assert [len(s) for s in shares] == [34, 34, 32, 34, 34]
        assert {cfg.share_size(s.value_size) for s in shares} == {34}
        assert shares[2].data == value[68:]

    @pytest.mark.parametrize("delta", [1, -1])
    def test_tail_original_of_wrong_length_rejected(self, delta):
        """A tail original must be exactly as long as what the value has
        left (32 of 34 bytes here): one zero byte too long or one byte
        too short is rejected, whether it is decoded beside the other
        originals or beside parity."""
        cfg = CodingConfig(3, 5)
        value = bytes(range(100))
        shares = encode(value, cfg)
        tail = shares[2]
        data = bytes(tail.data) + b"\0" if delta > 0 else bytes(tail.data[:-1])
        bad = Share(tail.index, cfg, tail.value_size, data)
        with pytest.raises(ShareMismatch):
            codec_for(cfg).decode([shares[0], shares[1], bad])
        with pytest.raises(ShareMismatch):
            codec_for(cfg).decode([bad, shares[3], shares[4]])

    def test_not_enough_shares(self):
        cfg = CodingConfig(3, 5)
        shares = encode(b"hello world!", cfg)
        codec = codec_for(cfg)
        with pytest.raises(NotEnoughShares):
            codec.decode(shares[:2])
        # Duplicates of one index do not count twice.
        with pytest.raises(NotEnoughShares):
            codec.decode([shares[0], shares[0], shares[0]])

    def test_decode_empty_list(self):
        with pytest.raises(NotEnoughShares):
            decode([])

    def test_empty_value(self):
        cfg = CodingConfig(3, 5)
        shares = encode(b"", cfg)
        assert all(len(s) == 0 for s in shares)
        assert decode(shares) == b""
        assert decode(shares[2:]) == b""

    def test_single_byte_value(self):
        cfg = CodingConfig(3, 5)
        shares = encode(b"Z", cfg)
        assert decode([shares[4], shares[2], shares[3]]) == b"Z"

    def test_value_size_not_multiple_of_x(self):
        cfg = CodingConfig(3, 5)
        for size in (1, 2, 3, 4, 7, 100, 1001):
            value = bytes(range(256)) * (size // 256 + 1)
            value = value[:size]
            shares = encode(value, cfg)
            assert decode(shares[-3:]) == value

    def test_mismatched_config_rejected(self):
        a = encode(b"a" * 12, CodingConfig(3, 5))
        b = encode(b"a" * 12, CodingConfig(2, 5))
        codec = codec_for(CodingConfig(3, 5))
        with pytest.raises(ShareMismatch):
            codec.decode([a[0], a[1], b[0]])

    def test_mismatched_value_size_rejected(self):
        cfg = CodingConfig(2, 4)
        a = encode(b"a" * 10, cfg)
        b = encode(b"b" * 12, cfg)
        with pytest.raises(ShareMismatch):
            codec_for(cfg).decode([a[0], b[1]])

    def test_encode_share_matches_full_encode(self):
        cfg = CodingConfig(3, 7)
        codec = RSCodec(cfg)
        value = bytes(np.random.default_rng(1).integers(0, 256, 50, dtype=np.uint8))
        full = codec.encode(value)
        for i in range(7):
            single = codec.encode_share(value, i)
            assert single.data == full[i].data
            assert single.index == i

    def test_encode_share_bad_index(self):
        codec = RSCodec(CodingConfig(3, 5))
        with pytest.raises(ValueError):
            codec.encode_share(b"abc", 5)

    def test_encode_share_empty(self):
        codec = RSCodec(CodingConfig(3, 5))
        assert codec.encode_share(b"", 4).data == b""

    def test_can_decode(self):
        codec = RSCodec(CodingConfig(3, 5))
        assert codec.can_decode({0, 3, 4})
        assert not codec.can_decode({0, 3})
        assert not codec.can_decode([1, 1, 1])

    def test_replication_path(self):
        cfg = CodingConfig(1, 3)
        shares = encode(b"full copy", cfg)
        assert all(s.data == b"full copy" for s in shares)
        assert decode([shares[2]]) == b"full copy"

    def test_large_value_roundtrip(self):
        cfg = CodingConfig(3, 5)
        value = bytes(
            np.random.default_rng(7).integers(0, 256, 1 << 20, dtype=np.uint8)
        )
        shares = encode(value, cfg)
        # Decode from a parity-heavy subset.
        assert decode([shares[0], shares[3], shares[4]]) == value

    @pytest.mark.parametrize("x,n", [(3, 5), (4, 7)])
    def test_decode_table_passes(self, x, n, monkeypatch):
        """A table pass is a ``lincomb`` term whose coefficient is not 0
        or 1. Decode solves each missing original with at most X of
        them — except that when the all-ones parity row is among the X
        shares picked, the last missing original is that row XOR the
        others, with none. θ(3, 5)'s first parity row is all ones;
        θ(4, 7) has no such row and keeps the plain solve."""
        cfg = CodingConfig(x, n)
        codec = RSCodec(cfg)
        ones = [i for i, row in enumerate(systematic_encode_matrix(n, x).tolist())
                if i >= x and set(row) == {1}]
        assert ones == ([3] if (x, n) == (3, 5) else [])
        value = bytes(np.random.default_rng(3).integers(0, 256, 301, dtype=np.uint8))
        shares = codec.encode(value)
        passes = []
        lincomb = gf256.lincomb

        def counting(coeffs, rows):
            passes.append(sum(c not in (0, 1) for c in coeffs))
            return lincomb(coeffs, rows)

        monkeypatch.setattr(gf256, "lincomb", counting)
        for subset in combinations(range(n), x):
            passes.clear()
            assert codec.decode([shares[i] for i in subset]) == value
            missing = sum(i >= x for i in subset)
            bound = x * (missing - 1) if set(subset) & set(ones) else x * missing
            assert sum(passes) <= bound, subset

    def test_decode_prefers_any_x_shares_deterministically(self):
        cfg = CodingConfig(2, 4)
        value = b"0123456789"
        shares = encode(value, cfg)
        # Passing more than X shares still decodes correctly.
        assert decode(shares) == value
        assert decode(list(reversed(shares))) == value
