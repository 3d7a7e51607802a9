"""Peak transient allocation of the coded byte path, as a multiple of
the value size.

A timing cannot gate in tier-1 — hosts are too noisy — but allocation
sizes repeat exactly, and they are what the byte path is made of: every
copy of a value (or of a share) is an allocation of that size. Before
the PR 17 rewrite ``encode`` peaked at 3.35x the value (a padded
staging copy, a 2-D parity array, N ``tobytes``) and a parity ``decode``
at 4.0x (stacked shares, a full X-row solve, ``tobytes``, a trim copy).
The bounds below leave room for one share-sized temporary, not for a
value-sized one, so a reintroduced staging copy fails here.
"""

import tracemalloc

from repro.erasure import CodingConfig, RSCodec

from .test_share_format import seeded_value

SIZE = 131_072


def peak_ratio(fn, *args) -> float:
    """Peak bytes allocated while ``fn(*args)`` runs, over the value
    size (tracing starts from zero: the arguments are not counted)."""
    fn(*args)  # warm caches: matrices, translate tables
    tracemalloc.start()
    try:
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / SIZE


def test_encode_peak_allocation():
    codec = RSCodec(CodingConfig(3, 5))
    assert peak_ratio(codec.encode, seeded_value(SIZE)) <= 2.8


def test_encode_retains_parity_rows_only():
    """What the shares keep alive once ``encode`` returns: the N - X
    parity rows, not N rows — every original is a view into the value,
    which the caller already holds, the tail one included (131,072 is
    not a multiple of 3; its zero padding is implicit, not a padded
    copy). The slack is object headers: five ``Share``s, three views,
    the list."""
    cfg = CodingConfig(3, 5)
    codec = RSCodec(cfg)
    value = seeded_value(SIZE)
    codec.encode(value)  # warm caches
    width = cfg.share_size(SIZE)
    tracemalloc.start()
    try:
        shares = codec.encode(value)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(shares) == cfg.n
    assert kept <= (cfg.n - cfg.x) * width + 2_048


def test_parity_decode_peak_allocation():
    codec = RSCodec(CodingConfig(3, 5))
    shares = codec.encode(seeded_value(SIZE))
    assert peak_ratio(codec.decode, shares[2:]) <= 2.1
