"""Systematic Reed-Solomon encoder/decoder over GF(2^8).

This is the stand-in for Zfec, the C erasure-coding library used by the
paper's prototype (Section 5). It implements a systematic MDS code: the
first ``X`` shares are verbatim slices of the input — read-only views
into the value's own ``bytes``, not copies — the remaining ``N - X``
shares are parity, and any ``X`` shares reconstruct the value.

The canonical share is ``ceil(size / X)`` bytes, the value zero-padded
to a multiple of ``X``. The padding is implicit: the original the value
runs out in is a short view and any original past its end is empty;
each, zero-extended, is its canonical row, and the kernel zero-extends
short rows itself, so parity bytes are those of the padded value.

Encode matrices and decode matrices (per present-share subset) are
cached per configuration, because a replicated KV store encodes millions
of values under a handful of θ(X, N) configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import gf256, matrix
from .config import CodingConfig


@dataclass(frozen=True, slots=True)
class Share:
    """One coded share of a value.

    Attributes
    ----------
    index:
        Share index in [0, N); indices < X are original data slices.
    config:
        The θ(X, N) configuration the share was produced under.
    value_size:
        Original (unpadded) value length in bytes: it fixes the share
        width and how long each original is.
    data:
        The share payload, bytes-like: an original share is a read-only
        ``memoryview`` of ``value[i·w:(i+1)·w]`` in the encoded value's
        ``bytes`` — short for the row the value runs out in, empty past
        its end, its zero padding implicit; row 0 when it is the whole
        value is the value itself — and parity is ``bytes`` of the full
        width ``w``.
    """

    index: int
    config: CodingConfig
    value_size: int
    data: bytes | memoryview

    @property
    def is_original(self) -> bool:
        """True if this share is a verbatim slice of the input."""
        return self.index < self.config.x

    def __len__(self) -> int:
        return len(self.data)


class NotEnoughShares(ValueError):
    """Raised when fewer than X distinct shares are offered to decode.

    This is the precise failure mode the naive EC+Paxos combination of
    Section 2.3 runs into: a chosen value whose surviving shares no
    longer reach X cannot be reconstructed by any later proposer.
    """


class ShareMismatch(ValueError):
    """Raised when offered shares disagree on config/size/length."""


def _as_bytes(value) -> bytes:
    """Normalise a bytes-like value at the codec boundary: ``bytes`` is
    kept as it is, anything else is copied once into ``bytes``, so a
    share's view only ever points into an immutable buffer."""
    return value if isinstance(value, bytes) else memoryview(value).tobytes()


def _original(value: bytes, index: int, width: int) -> bytes | memoryview:
    """Original share ``index``: a read-only view of
    ``value[index·width:(index+1)·width]``, no copy. The row the value
    runs out in is short, a row past its end is empty: their zero
    padding is implicit. Row 0 when it is the whole value (θ(1, N)) is
    ``value`` itself."""
    if index == 0 and width == len(value):
        return value
    return memoryview(value)[index * width:(index + 1) * width]


def _original_len(size: int, index: int, width: int) -> int:
    """The length of original share ``index`` of a ``size``-byte value."""
    return min(max(size - index * width, 0), width)


@lru_cache(maxsize=128)
def _encode_matrix(x: int, n: int) -> np.ndarray:
    return matrix.systematic_encode_matrix(n, x)


@lru_cache(maxsize=4096)
def _decode_matrix(x: int, n: int, rows: tuple[int, ...]) -> list[list[int]]:
    """Row i: the coefficients that rebuild original share i from the
    shares ``rows``, as Python ints (what the kernel takes)."""
    return matrix.decode_matrix(_encode_matrix(x, n), list(rows)).tolist()


class RSCodec:
    """Encoder/decoder bound to one θ(X, N) configuration."""

    def __init__(self, config: CodingConfig):
        self.config = config
        # Row i holds the X coefficients of share i, as Python ints.
        self._coeffs: list[list[int]] = _encode_matrix(
            config.x, config.n
        ).tolist()
        # A parity row of all ones (θ(3, 5)'s first) is the XOR of the
        # originals: decode takes one missing original from it by XOR.
        self._ones_row = next(
            (i for i in range(config.x, config.n)
             if all(c == 1 for c in self._coeffs[i])),
            None,
        )

    # -- encode ---------------------------------------------------------

    def encode(self, value: bytes) -> list[Share]:
        """Encode ``value`` into N shares (X original + N-X parity)."""
        cfg = self.config
        value = _as_bytes(value)
        size = len(value)
        width = cfg.share_size(size)
        if width == 0:
            return [Share(i, cfg, 0, b"") for i in range(cfg.n)]
        data = [_original(value, i, width) for i in range(cfg.x)]
        if cfg.x == 1:
            # Replication fast path: every share is the value itself.
            payloads = data * cfg.n
        else:
            payloads = data + [
                gf256.lincomb(coeffs, data) for coeffs in self._coeffs[cfg.x:]
            ]
        return [Share(i, cfg, size, p) for i, p in enumerate(payloads)]

    def encode_share(self, value: bytes, index: int) -> Share:
        """Encode only the share with the given index.

        An original share is a view of the value; a parity share
        costs one kernel call (``X`` table passes) rather than ``N - X``
        of them. The KV store uses this when re-sending a single
        replica's share during catch-up (Section 4.5).
        """
        cfg = self.config
        if not 0 <= index < cfg.n:
            raise ValueError(f"share index {index} out of range for N={cfg.n}")
        value = _as_bytes(value)
        size = len(value)
        width = cfg.share_size(size)
        if width == 0:
            return Share(index, cfg, 0, b"")
        if index < cfg.x:
            return Share(index, cfg, size, _original(value, index, width))
        data = [_original(value, i, width) for i in range(cfg.x)]
        return Share(index, cfg, size, gf256.lincomb(self._coeffs[index], data))

    # -- decode ---------------------------------------------------------

    def decode(self, shares: list[Share]) -> bytes:
        """Reconstruct the original value from any >= X distinct shares.

        Original shares that are present pass through untouched; only
        the missing ones are solved for, from the X lowest-indexed
        shares offered. When those include the all-ones parity row, the
        last missing original is that row XOR the others: no table pass.

        Raises
        ------
        NotEnoughShares
            If fewer than X distinct share indices are present.
        ShareMismatch
            If the shares disagree on configuration or sizing.
        """
        cfg = self.config
        by_index: dict[int, Share] = {}
        for s in shares:
            if s.config != cfg:
                raise ShareMismatch(
                    f"share coded under {s.config}, codec is {cfg}"
                )
            by_index.setdefault(s.index, s)
        if len(by_index) < cfg.x:
            raise NotEnoughShares(
                f"need {cfg.x} distinct shares, have {len(by_index)}"
            )
        picked = sorted(by_index)[: cfg.x]
        chosen = [by_index[i] for i in picked]
        size = chosen[0].value_size
        width = cfg.share_size(size)
        if any(s.value_size != size for s in chosen):
            raise ShareMismatch("shares disagree on original value size")
        if any(
            len(s.data) != (_original_len(size, s.index, width)
                            if s.index < cfg.x else width)
            for s in chosen
        ):
            raise ShareMismatch("share payload length inconsistent with size")
        if size == 0:
            return b""
        payloads = [s.data for s in chosen]
        if cfg.x == 1:
            return _as_bytes(payloads[0])
        offered = dict(zip(picked, payloads))
        rows = {i: d for i, d in offered.items() if i < cfg.x}
        missing = [i for i in range(cfg.x) if i not in rows]
        ones = offered.get(self._ones_row)
        solve = missing[:-1] if ones is not None else missing
        if solve:
            dec = _decode_matrix(cfg.x, cfg.n, tuple(picked))
            for i in solve:
                rows[i] = gf256.lincomb(dec[i], payloads)
        if missing and ones is not None:
            last = missing[-1]
            rest = [rows[i] for i in range(cfg.x) if i != last]
            rows[last] = gf256.lincomb([1] * cfg.x, [ones, *rest])
        # A solved row is full width: trim off the padding it carries
        # past the value's end, then one join assembles the value.
        for i in missing:
            rows[i] = rows[i][:_original_len(size, i, width)]
        return b"".join(rows[i] for i in range(cfg.x))

    def can_decode(self, indices: set[int] | list[int]) -> bool:
        """Whether a set of share indices suffices to reconstruct."""
        return len(set(indices)) >= self.config.x


@lru_cache(maxsize=64)
def codec_for(config: CodingConfig) -> RSCodec:
    """Shared codec instance for a configuration (matrices are cached)."""
    return RSCodec(config)


def encode(value: bytes, config: CodingConfig) -> list[Share]:
    """Module-level convenience: encode under θ(X, N)."""
    return codec_for(config).encode(value)


def decode(shares: list[Share]) -> bytes:
    """Module-level convenience: decode a list of shares.

    The configuration is taken from the shares themselves.
    """
    if not shares:
        raise NotEnoughShares("no shares given")
    return codec_for(shares[0].config).decode(shares)
