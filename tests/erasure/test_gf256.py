"""Unit tests for GF(2^8) scalar and matrix arithmetic (the bulk
kernel is checked against the scalar ops in ``test_rs_properties``)."""

import numpy as np
import pytest

from repro.erasure import gf256


class TestScalarOps:
    def test_add_is_xor(self):
        assert gf256.add(0b1010, 0b0110) == 0b1100

    def test_sub_equals_add(self):
        for a, b in [(1, 2), (200, 57), (255, 255)]:
            assert gf256.sub(a, b) == gf256.add(a, b)

    def test_mul_identity(self):
        for a in range(256):
            assert gf256.mul(a, 1) == a
            assert gf256.mul(1, a) == a

    def test_mul_zero(self):
        for a in range(256):
            assert gf256.mul(a, 0) == 0
            assert gf256.mul(0, a) == 0

    def test_mul_commutative(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a, b = rng.integers(0, 256, 2)
            assert gf256.mul(int(a), int(b)) == gf256.mul(int(b), int(a))

    def test_mul_associative(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a, b, c = (int(v) for v in rng.integers(0, 256, 3))
            assert gf256.mul(gf256.mul(a, b), c) == gf256.mul(a, gf256.mul(b, c))

    def test_distributive(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b, c = (int(v) for v in rng.integers(0, 256, 3))
            assert gf256.mul(a, b ^ c) == gf256.mul(a, b) ^ gf256.mul(a, c)

    def test_div_inverts_mul(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            a = int(rng.integers(0, 256))
            b = int(rng.integers(1, 256))
            assert gf256.div(gf256.mul(a, b), b) == a

    def test_div_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            gf256.div(5, 0)

    def test_inv(self):
        for a in range(1, 256):
            assert gf256.mul(a, gf256.inv(a)) == 1

    def test_inv_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            gf256.inv(0)

    def test_pow_matches_repeated_mul(self):
        for a in (2, 3, 57, 200):
            acc = 1
            for n in range(10):
                assert gf256.pow_(a, n) == acc
                acc = gf256.mul(acc, a)

    def test_pow_negative(self):
        assert gf256.pow_(7, -1) == gf256.inv(7)
        assert gf256.mul(gf256.pow_(7, -3), gf256.pow_(7, 3)) == 1

    def test_pow_zero_base(self):
        assert gf256.pow_(0, 0) == 1
        assert gf256.pow_(0, 5) == 0
        with pytest.raises(ZeroDivisionError):
            gf256.pow_(0, -1)

    def test_generator_has_full_order(self):
        # The generator's powers must enumerate all 255 nonzero elements.
        seen = {gf256.exp(i) for i in range(255)}
        assert seen == set(range(1, 256))


class TestMatrixOps:
    def test_matmul_identity(self):
        rng = np.random.default_rng(7)
        data = rng.integers(0, 256, (4, 32)).astype(np.uint8)
        eye = np.eye(4, dtype=np.uint8)
        assert np.array_equal(gf256.matmul(eye, data), data)

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError):
            gf256.matmul(np.zeros((2, 3), np.uint8), np.zeros((4, 5), np.uint8))

    def test_matmul_matches_scalar_reference(self):
        rng = np.random.default_rng(8)
        a = rng.integers(0, 256, (3, 4)).astype(np.uint8)
        b = rng.integers(0, 256, (4, 6)).astype(np.uint8)
        out = gf256.matmul(a, b)
        for i in range(3):
            for j in range(6):
                acc = 0
                for k in range(4):
                    acc ^= gf256.mul(int(a[i, k]), int(b[k, j]))
                assert out[i, j] == acc

    def test_mat_inv_roundtrip(self):
        rng = np.random.default_rng(9)
        for n in (1, 2, 5, 8):
            while True:
                m = rng.integers(0, 256, (n, n)).astype(np.uint8)
                if gf256.mat_rank(m) == n:
                    break
            minv = gf256.mat_inv(m)
            assert np.array_equal(
                gf256.matmul(m, minv), np.eye(n, dtype=np.uint8)
            )
            assert np.array_equal(
                gf256.matmul(minv, m), np.eye(n, dtype=np.uint8)
            )

    def test_mat_inv_singular_raises(self):
        sing = np.array([[1, 2], [1, 2]], dtype=np.uint8)
        with pytest.raises(np.linalg.LinAlgError):
            gf256.mat_inv(sing)

    def test_mat_inv_non_square_raises(self):
        with pytest.raises(ValueError):
            gf256.mat_inv(np.zeros((2, 3), np.uint8))

    def test_mat_rank(self):
        assert gf256.mat_rank(np.eye(4, dtype=np.uint8)) == 4
        assert gf256.mat_rank(np.zeros((3, 3), np.uint8)) == 0
        two = np.array([[1, 2, 3], [2, 4, 6], [0, 0, 1]], dtype=np.uint8)
        # Row 2 = 2 * row 1 over GF(2^8)? 2*1=2, 2*2=4, 2*3=6 -> yes.
        assert gf256.mat_rank(two) == 2

    def test_exp_log_tables_consistent(self):
        for a in range(1, 256):
            i = int(gf256.LOG_TABLE[a])
            assert int(gf256.EXP_TABLE[i]) == a
