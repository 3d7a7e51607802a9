"""The on-wire / on-disk share format, pinned byte for byte.

A share's payload is what `Accept` messages carry and what the WAL
stores, so it is part of the contract: a codec change that produced
different (even if self-consistent) parity bytes would make shares
written by one build undecodable beside shares written by another.
The Hypothesis tests stop at 300 bytes; these digests — computed on the
commit *before* the byte path was rewritten (PR 17) — cover the padding
boundaries around X and the sizes the benchmark moves. Each share is
hashed as its canonical row, zero-extended to the share width: the
digests were taken when the tail original carried its zero padding, and
they still hold now that the padding is implicit.
"""

import hashlib
import itertools

import pytest

from repro.erasure import CodingConfig, RSCodec

CONFIGS = [(1, 3), (2, 4), (3, 5), (4, 7), (5, 7)]


def seeded_value(size: int) -> bytes:
    """``size`` reproducible bytes (an XOF: no RNG whose stream a
    library upgrade could change)."""
    return hashlib.shake_256(b"rs-paxos share format").digest(size)


def sizes_for(x: int) -> list[int]:
    return sorted({0, 1, x - 1, x, x + 1, 4_096, 131_072, 131_073})


def assert_byte_contract(cfg: CodingConfig, shares, handed: bytes) -> None:
    """What a share's payload is, given the ``bytes`` the codec encoded
    (for ``bytearray`` / ``memoryview`` input, its one boundary copy):
    original ``i`` is ``handed[i·w:(i+1)·w]`` as a read-only view into
    ``handed`` — or ``handed`` itself when row 0 is the whole value — so
    the tail row is short and a row past the end empty, its zero padding
    implicit; parity rows are ``bytes`` of their own, ``w`` long."""
    width = cfg.share_size(len(handed))
    for s in shares:
        assert len(s.data) <= width, s.index
        if width == 0:
            assert s.data == b"", s.index
        elif s.index >= cfg.x:
            assert type(s.data) is bytes and len(s.data) == width, s.index
        elif s.index == 0 and width == len(handed):
            assert s.data is handed, s.index
        else:
            assert type(s.data) is memoryview and s.data.readonly, s.index
            assert s.data.obj is handed, s.index
            assert s.data == handed[s.index * width:(s.index + 1) * width]


def canonical(share) -> bytes:
    """The share's canonical row: its payload zero-extended to the share
    width."""
    width = share.config.share_size(share.value_size)
    return bytes(share.data).ljust(width, b"\0")


def shares_digest(shares) -> str:
    h = hashlib.blake2b(digest_size=16)
    for s in shares:
        row = canonical(s)
        h.update(len(row).to_bytes(4, "big"))
        h.update(row)
    return h.hexdigest()


# (x, n) -> {value size -> BLAKE2b over the N length-prefixed payloads}
GOLDEN: dict[tuple[int, int], dict[int, str]] = {
    (1, 3): {
        0: "5cf0479a381380026a05c1e7bc18bfbb",
        1: "82c3b23923064d011e2a6d47a058d1cf",
        2: "8c0468e5a999e0757d995dce836ac144",
        4096: "eb29302392015e69ab659b1e7f03d177",
        131072: "7a1d0129221939934b23d68e71cbed22",
        131073: "970633feb88844f8db395230996c93aa",
    },
    (2, 4): {
        0: "463be1d58a72e9618ea59884367c4358",
        1: "b385d44e7fa519d5dea741efa92bde99",
        2: "240a5a0957b3ee58443b9cb491587bb0",
        3: "06798836149e82c8794a3bd2341bedfe",
        4096: "15290ef6250352384796ba7ad99f5f12",
        131072: "6da30491c64de8118f191ef9e0c4a27f",
        131073: "a24deaff90d88d60bf1bfd50102b023a",
    },
    (3, 5): {
        0: "9583000fb4548029c502d9455d72a499",
        1: "04ba45552723b0f4b34afbe3e979e8cb",
        2: "cadfe9e2d34f5374fb3bb36f47b98804",
        3: "fd3fa5ea4f8ba9aa17c055ede590b016",
        4: "861f4374388d87b708b1b15d1a37bf93",
        4096: "020dada91a422efc8621e04b410c9597",
        131072: "e44ef1d9c1eb27916db99a2759e23724",
        131073: "1cb10b3a55609e8f67d7f686273394ce",
    },
    (4, 7): {
        0: "a185b65e60c893712b18def7cf888f41",
        1: "82551ab6d4a838c6f9403bbca27f6b61",
        3: "59b74ebfb89821db6109367cb5564b28",
        4: "adbacec7c67fe545888506f9a0158f49",
        5: "c3dc1fb6e025be1fe675f0f2c901157f",
        4096: "7bcead4e65e0199b7c700bba6d04d4bd",
        131072: "49f50e2aed4be2f4036e27774d43dd36",
        131073: "941fa5ca9cf95feef8e763653604471c",
    },
    (5, 7): {
        0: "a185b65e60c893712b18def7cf888f41",
        1: "ef09e6907cbdd349c27eda199fb7ff79",
        4: "fff891115d8e33fc19683829b7a51dbe",
        5: "f35e4e521b6579c66ccab948267ca06d",
        6: "9e4cb262418031f7b5431b5c0291e3b3",
        4096: "074653e17111d05258114a1ce5702444",
        131072: "1197fb5ba3658527d70fc2ff6c14d713",
        131073: "f64027fca0c2f06f54a3c1a4c212c56b",
    },
}


@pytest.mark.parametrize("x,n", CONFIGS)
def test_share_payloads_match_golden_digests(x, n):
    codec = RSCodec(CodingConfig(x, n))
    got = {
        size: shares_digest(codec.encode(seeded_value(size)))
        for size in sizes_for(x)
    }
    assert got == GOLDEN[(x, n)]


@pytest.mark.parametrize("x,n", [(3, 5), (4, 7)])
def test_benchmark_size_every_subset_and_single_share(x, n):
    """At the benchmark's 128 KB: all X originals are views into the
    value (θ(3, 5)'s last one short by its implicit padding, θ(4, 7)'s
    none), all C(N, X) subsets decode byte identical into ``bytes``, and
    the one-share encoder agrees with the full one, views included."""
    cfg = CodingConfig(x, n)
    codec = RSCodec(cfg)
    value = seeded_value(131_072)
    shares = codec.encode(value)
    assert_byte_contract(cfg, shares, value)
    views = sum(type(s.data) is memoryview for s in shares)
    assert views == x
    for subset in itertools.combinations(range(n), x):
        got = codec.decode([shares[i] for i in subset])
        assert type(got) is bytes and got == value, subset
    single = [codec.encode_share(value, i) for i in range(n)]
    assert single == shares
    assert_byte_contract(cfg, single, value)
