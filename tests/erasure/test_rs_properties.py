"""Property-based tests (hypothesis) for the Reed-Solomon codec.

These check the MDS contract — any X distinct shares reconstruct the
value — and algebraic field laws, over randomized inputs.
"""

import functools
import itertools
import operator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.erasure import CodingConfig, RSCodec, codec_for
from repro.erasure import gf256
from repro.erasure.matrix import systematic_encode_matrix

from .test_share_format import assert_byte_contract, canonical


@st.composite
def config_value_subset(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    x = draw(st.integers(min_value=1, max_value=n))
    value = draw(st.binary(min_size=0, max_size=300))
    subset = draw(
        st.sets(st.integers(min_value=0, max_value=n - 1), min_size=x, max_size=n)
    )
    return CodingConfig(x, n), value, sorted(subset)


@given(config_value_subset())
@settings(max_examples=200, deadline=None)
def test_any_x_shares_reconstruct(case):
    cfg, value, subset = case
    codec = codec_for(cfg)
    shares = codec.encode(value)
    picked = [shares[i] for i in subset]
    assert codec.decode(picked) == value


@pytest.mark.parametrize(
    "cfg",
    [
        CodingConfig(3, 5),  # the paper's headline θ(3,5) (rs_paxos(5,1))
        CodingConfig(1, 5),  # classic Paxos at N=5: full replication
    ],
    ids=["rs-theta35", "classic-n5"],
)
@given(value=st.binary(min_size=0, max_size=300))
@settings(max_examples=50, deadline=None)
def test_every_x_subset_decodes_bit_identical(cfg, value):
    """The degraded-read contract: whichever X clean shares a server
    manages to fetch — not just a lucky subset — the decode must be
    bit-identical to the written value. Exhaustive over all C(n, x)
    subsets per drawn value."""
    codec = codec_for(cfg)
    shares = codec.encode(value)
    for subset in itertools.combinations(range(cfg.n), cfg.x):
        assert codec.decode([shares[i] for i in subset]) == value


@given(config_value_subset())
@settings(max_examples=100, deadline=None)
def test_share_sizes_and_count(case):
    cfg, value, _ = case
    shares = codec_for(cfg).encode(value)
    assert len(shares) == cfg.n
    width = cfg.share_size(len(value))
    # Parity is full width; an original is what the value has in its
    # row, the tail's zero padding implicit.
    assert [len(s) for s in shares] == [
        min(max(len(value) - i * width, 0), width) if i < cfg.x else width
        for i in range(cfg.n)
    ]
    assert [s.index for s in shares] == list(range(cfg.n))


@given(
    st.binary(min_size=0, max_size=200),
    st.integers(min_value=0, max_value=6),
)
@settings(max_examples=100, deadline=None)
def test_encode_share_consistent_with_encode(value, index):
    cfg = CodingConfig(3, 7)
    codec = RSCodec(cfg)
    assert codec.encode_share(value, index).data == codec.encode(value)[index].data


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_field_laws(a, b, c):
    # Associativity and commutativity of multiplication, distributivity.
    assert gf256.mul(a, b) == gf256.mul(b, a)
    assert gf256.mul(gf256.mul(a, b), c) == gf256.mul(a, gf256.mul(b, c))
    assert gf256.mul(a, b ^ c) == gf256.mul(a, b) ^ gf256.mul(a, c)


@given(st.integers(1, 255))
def test_inverse_law(a):
    assert gf256.mul(a, gf256.inv(a)) == 1


@st.composite
def coeffs_and_rows(draw):
    k = draw(st.integers(min_value=1, max_value=5))
    width = draw(st.integers(min_value=0, max_value=64))
    # 0 (term skipped) and 1 (term not translated) are the kernel's two
    # special cases: draw them far more often than 2 in 256.
    coeff = st.one_of(st.sampled_from([0, 1]), st.integers(0, 255))
    coeffs = draw(st.lists(coeff, min_size=k, max_size=k))
    # Rows of unequal length, as a short tail original enters a parity
    # row; half the cases keep them equal.
    row = st.one_of(st.binary(min_size=width, max_size=width),
                    st.binary(max_size=width))
    rows = draw(st.lists(row, min_size=k, max_size=k))
    return coeffs, rows


@given(coeffs_and_rows())
@example(([0, 0, 0], [b"abc", b"def", b"ghi"]))  # all-zero coefficients
@example(([7, 1, 0], [b"", b"", b""]))  # empty rows
@example(([7, 1, 3], [b"abc", b"d", b""]))  # short and empty rows
@example(([1, 5], [b"", b"xyz"]))  # the longest row is not the first
@settings(max_examples=200, deadline=None)
def test_addmul_matches_scalar(case):
    """The bulk kernel — every coded byte is an XOR-accumulated product
    (add-mul) computed by ``gf256.lincomb`` — against scalar ``mul``,
    each row zero-extended to the longest."""
    coeffs, rows = case
    width = max(len(row) for row in rows)
    padded = [row.ljust(width, b"\0") for row in rows]
    expected = bytes(
        functools.reduce(
            operator.xor, (gf256.mul(c, row[b]) for c, row in zip(coeffs, padded))
        )
        for b in range(width)
    )
    out = gf256.lincomb(coeffs, rows)
    assert type(out) is bytes
    assert out == expected


def copying_encode(cfg: CodingConfig, value: bytes) -> list[bytes]:
    """The shares as the copying codec built them: every original a
    zero-padded slice of its own, every parity one kernel call."""
    width = cfg.share_size(len(value))
    data = [value[i * width:(i + 1) * width].ljust(width, b"\0")
            for i in range(cfg.x)]
    parity = systematic_encode_matrix(cfg.n, cfg.x).tolist()[cfg.x:]
    return data + [gf256.lincomb(coeffs, data) if width else b""
                   for coeffs in parity]


@given(config_value_subset())
@settings(max_examples=100, deadline=None)
def test_bytes_like_inputs_encode_identically(case):
    """``bytes``, ``bytearray`` and ``memoryview`` values produce the
    same shares, each zero-extended to the share width equal byte for
    byte to the copying codec's. Originals are views into the ``bytes``
    the codec was handed — for ``bytearray`` / ``memoryview`` input, its
    one boundary copy — and parity and decoded rows are ``bytes``."""
    cfg, value, subset = case
    codec = codec_for(cfg)
    want = codec.encode(value)
    assert [canonical(s) for s in want] == copying_encode(cfg, value)
    assert_byte_contract(cfg, want, value)
    assert type(codec.decode([want[i] for i in subset])) is bytes
    for like in (bytearray(value), memoryview(value)):
        got = codec.encode(like)
        assert got == want
        # Row 0 never pads: it is a view into the boundary copy, or the
        # copy itself; every other view must point into that same copy.
        first = got[0].data
        copy = first.obj if type(first) is memoryview else first
        assert type(copy) is bytes and copy is not like
        assert_byte_contract(cfg, got, copy)
        for i in range(cfg.n):
            assert codec.encode_share(like, i) == want[i]


@st.composite
def unaligned_bytes_like(draw):
    """θ(X, N) with X >= 2 and a value whose size is not a multiple of
    X, handed over as a ``bytearray`` or as a ``memoryview`` — the
    latter possibly a slice starting inside its buffer."""
    n = draw(st.integers(min_value=2, max_value=9))
    x = draw(st.integers(min_value=2, max_value=n))
    size = draw(st.integers(min_value=1, max_value=300).filter(lambda s: s % x))
    value = draw(st.binary(min_size=size, max_size=size))
    skip = draw(st.integers(min_value=0, max_value=3))
    like = draw(st.sampled_from([
        bytearray(value), memoryview(bytes(skip) + value)[skip:],
    ]))
    return CodingConfig(x, n), value, like


@given(unaligned_bytes_like())
@settings(max_examples=100, deadline=None)
def test_unaligned_bytes_like_inputs_pad(case):
    """A non-``bytes`` value that needs padding pads like ``bytes``
    does — each share zero-extended to the width is the copying codec's
    — and every X-subset decodes it."""
    cfg, value, like = case
    codec = codec_for(cfg)
    shares = codec.encode(like)
    assert [canonical(s) for s in shares] == copying_encode(cfg, value)
    # The tail row is a view, short by its implicit padding.
    tail = next(s for s in shares[:cfg.x] if len(s) < cfg.share_size(len(value)))
    assert type(tail.data) is memoryview
    for i in range(cfg.n):
        assert codec.encode_share(like, i) == shares[i]
    for picked in itertools.combinations(shares, cfg.x):
        assert codec.decode(list(picked)) == value
