"""Arithmetic over the Galois field GF(2^8).

All Reed-Solomon coding in this package happens over GF(2^8) with the
primitive polynomial ``x^8 + x^4 + x^3 + x^2 + 1`` (0x11d), the same
polynomial used by most storage-oriented RS libraries (including Zfec,
the library the paper's prototype uses).

The implementation is table-driven: one 256-entry exponential table and
one 256-entry logarithm table are built once at import time, and a
256x256 product table lazily on first use. Scalar helpers operate on
Python ints. The one bulk kernel, :func:`lincomb`, works on bytes-like
rows: multiplying a row by a constant is ``row.translate(T[c])`` — one
C pass over the row through a 256-byte table — because numpy's
equivalent, ``table[c][row]`` with a ``uint8`` index array, first widens
every index to ``intp`` (8 bytes per coded byte) and runs ~5x slower.
The matrix routines (:func:`matmul`, :func:`mat_inv`, :func:`mat_rank`)
are for the tiny X-by-X coefficient algebra only.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cache

import numpy as np

#: The field size.
ORDER = 256

#: Primitive polynomial x^8 + x^4 + x^3 + x^2 + 1, as an integer.
PRIMITIVE_POLY = 0x11D

#: Generator element of the multiplicative group.
GENERATOR = 2


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    """Build exp/log tables for GF(2^8).

    ``exp`` is doubled in length (512 entries) so products of two logs
    (max 254 + 254) can be looked up without a modular reduction.
    """
    exp = np.zeros(512, dtype=np.uint8)
    log = np.zeros(256, dtype=np.int16)  # log[0] is undefined; kept 0
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= PRIMITIVE_POLY
    # Extend so exp[i] == exp[i % 255] for i in [0, 510).
    exp[255:510] = exp[0:255]
    return exp, log


EXP_TABLE, LOG_TABLE = _build_tables()


@cache
def _mul_table() -> np.ndarray:
    """The full 256x256 multiplication table: 64 KiB, one lookup per
    product instead of three. Built lazily on first use."""
    a = np.arange(256, dtype=np.int16)
    logs = LOG_TABLE[a][:, None] + LOG_TABLE[a][None, :]
    table = EXP_TABLE[logs]
    table[0, :] = 0
    table[:, 0] = 0
    return np.ascontiguousarray(table)


# ---------------------------------------------------------------------------
# Scalar operations
# ---------------------------------------------------------------------------

def add(a: int, b: int) -> int:
    """Field addition (bitwise XOR)."""
    return a ^ b


def sub(a: int, b: int) -> int:
    """Field subtraction (identical to addition in characteristic 2)."""
    return a ^ b


def mul(a: int, b: int) -> int:
    """Field multiplication of two scalars."""
    if a == 0 or b == 0:
        return 0
    return int(EXP_TABLE[int(LOG_TABLE[a]) + int(LOG_TABLE[b])])


def div(a: int, b: int) -> int:
    """Field division ``a / b``.

    Raises
    ------
    ZeroDivisionError
        If ``b`` is zero.
    """
    if b == 0:
        raise ZeroDivisionError("division by zero in GF(2^8)")
    if a == 0:
        return 0
    return int(EXP_TABLE[(int(LOG_TABLE[a]) - int(LOG_TABLE[b])) % 255])


def inv(a: int) -> int:
    """Multiplicative inverse of ``a``.

    Raises
    ------
    ZeroDivisionError
        If ``a`` is zero.
    """
    if a == 0:
        raise ZeroDivisionError("zero has no inverse in GF(2^8)")
    return int(EXP_TABLE[(255 - int(LOG_TABLE[a])) % 255])


def pow_(a: int, n: int) -> int:
    """Field exponentiation ``a ** n`` for integer ``n`` (``n`` may be
    negative if ``a`` is nonzero)."""
    if a == 0:
        if n == 0:
            return 1
        if n < 0:
            raise ZeroDivisionError("zero has no inverse in GF(2^8)")
        return 0
    return int(EXP_TABLE[(int(LOG_TABLE[a]) * n) % 255])


def exp(i: int) -> int:
    """The field element ``GENERATOR ** i``."""
    return int(EXP_TABLE[i % 255])


# ---------------------------------------------------------------------------
# Bulk kernel and matrix algebra
# ---------------------------------------------------------------------------

@cache
def _translate_tables() -> tuple[bytes, ...]:
    """``T[c]`` is the ``bytes.translate`` table of ``b -> c * b``: the
    rows of the multiplication table as 256 ``bytes`` objects."""
    return tuple(row.tobytes() for row in _mul_table())


def lincomb(coeffs: Sequence[int], rows: Sequence[bytes]) -> bytes:
    """The linear combination ``sum_j coeffs[j] * rows[j]`` over GF(2^8).

    ``rows`` are bytes-like objects (``bytes`` or a view into one); the
    result is ``bytes`` as long as the longest row, and a shorter row is
    zero-extended to it — that is how a tail original with implicit
    padding enters a parity row. This is the only operation encode and
    decode perform on payload bytes: one parity share, or one
    reconstructed data share, is one call. Each term costs one
    ``translate`` pass (none when the coefficient is 1, nothing at all
    when it is 0) and one XOR into the output buffer's head.
    ``translate`` is a ``bytes`` method, so a view row with a
    coefficient outside {0, 1} is first copied into a short-lived
    ``bytes`` that dies with its product; no other row is copied.
    """
    tables = _translate_tables()
    out = np.zeros(max(map(len, rows)), dtype=np.uint8)
    for c, row in zip(coeffs, rows, strict=True):
        if c == 0:
            continue
        if c != 1:
            row = bytes(row).translate(tables[c])
        head = out[:len(row)]
        np.bitwise_xor(head, np.frombuffer(row, dtype=np.uint8), out=head)
    return out.tobytes()


def matmul(mat: np.ndarray, data: np.ndarray) -> np.ndarray:
    """GF(2^8) matrix product ``mat @ data``.

    Parameters
    ----------
    mat:
        ``(r, k)`` uint8 coefficient matrix.
    data:
        ``(k, w)`` uint8 matrix.

    Returns
    -------
    ``(r, w)`` uint8 product.

    Meant for coefficient matrices (a few rows and columns, as in
    :mod:`.matrix`); payload bytes go through :func:`lincomb`.
    """
    mat = np.asarray(mat, dtype=np.uint8)
    data = np.ascontiguousarray(data, dtype=np.uint8)
    r, k = mat.shape
    k2, w = data.shape
    if k != k2:
        raise ValueError(f"shape mismatch: ({r},{k}) @ ({k2},{w})")
    out = np.zeros((r, w), dtype=np.uint8)
    table = _mul_table()
    for i in range(r):
        row = out[i]
        for j in range(k):
            c = int(mat[i, j])
            if c == 0:
                continue
            if c == 1:
                np.bitwise_xor(row, data[j], out=row)
            else:
                np.bitwise_xor(row, table[c][data[j]], out=row)
    return out


def mat_inv(mat: np.ndarray) -> np.ndarray:
    """Invert a square GF(2^8) matrix by Gauss-Jordan elimination.

    Raises
    ------
    np.linalg.LinAlgError
        If the matrix is singular.
    """
    mat = np.asarray(mat, dtype=np.uint8)
    n, m = mat.shape
    if n != m:
        raise ValueError("matrix must be square")
    # Augmented [mat | I]; uint8 suffices, every entry is a field element.
    aug = np.zeros((n, 2 * n), dtype=np.uint8)
    aug[:, :n] = mat
    aug[np.arange(n), n + np.arange(n)] = 1
    table = _mul_table()
    for col in range(n):
        # Partial pivot: any nonzero entry works in a field.
        pivot_rows = np.nonzero(aug[col:, col])[0]
        if pivot_rows.size == 0:
            raise np.linalg.LinAlgError("singular matrix over GF(2^8)")
        p = col + int(pivot_rows[0])
        if p != col:
            aug[[col, p]] = aug[[p, col]]
        pivot = int(aug[col, col])
        if pivot != 1:
            aug[col] = table[inv(pivot)][aug[col]]
        # Eliminate all other rows (vectorized over rows).
        coeffs = aug[:, col].copy()
        coeffs[col] = 0
        nz = np.nonzero(coeffs)[0]
        if nz.size:
            aug[nz] ^= table[coeffs[nz][:, None], aug[col][None, :]]
    return np.ascontiguousarray(aug[:, n:])


def mat_rank(mat: np.ndarray) -> int:
    """Rank of a GF(2^8) matrix (Gaussian elimination)."""
    work = np.asarray(mat, dtype=np.uint8).copy()
    rows, cols = work.shape
    table = _mul_table()
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        pivot_rows = np.nonzero(work[rank:, col])[0]
        if pivot_rows.size == 0:
            continue
        p = rank + int(pivot_rows[0])
        if p != rank:
            work[[rank, p]] = work[[p, rank]]
        pivot = int(work[rank, col])
        if pivot != 1:
            work[rank] = table[inv(pivot)][work[rank]]
        coeffs = work[:, col].copy()
        coeffs[rank] = 0
        nz = np.nonzero(coeffs)[0]
        if nz.size:
            work[nz] ^= table[coeffs[nz][:, None], work[rank][None, :]]
        rank += 1
    return rank
