"""Properties behind two message-hop shortcuts (DESIGN.md §4).

``Ballot`` spells its four comparisons out instead of letting
``dataclass(order=True)`` build two tuples per comparison: they must
still be exactly the order of the tuple ``(round, proposer)``.
``CodedShare.size`` is stored instead of derived on every read: it must
still be ``config.share_size(value_size)`` however the share was built,
and must not disturb equality, hashing or the WAL checksum.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    NULL_BALLOT,
    Accept,
    Ballot,
    CodedShare,
    Value,
    encode_one_share,
    encode_value,
)
from repro.erasure import CodingConfig
from repro.storage.wal import record_checksum

# Narrow ranges, so that ties on round (and on both fields) are common.
ballots = st.one_of(
    st.just(NULL_BALLOT),
    st.builds(Ballot, st.integers(0, 4), st.integers(-1, 4)),
)


def key(b: Ballot) -> tuple[int, int]:
    return (b.round, b.proposer)


class TestBallotOrderIsTheTupleOrder:
    @given(ballots, ballots)
    def test_comparisons_eq_and_hash(self, a, b):
        assert (a < b) == (key(a) < key(b))
        assert (a <= b) == (key(a) <= key(b))
        assert (a > b) == (key(a) > key(b))
        assert (a >= b) == (key(a) >= key(b))
        assert (a == b) == (key(a) == key(b))
        assert (a != b) == (key(a) != key(b))
        if a == b:
            assert hash(a) == hash(b)

    @given(st.lists(ballots, min_size=1, max_size=8))
    def test_max_min_sorted(self, bs):
        assert key(max(bs)) == max(map(key, bs))
        assert key(min(bs)) == min(map(key, bs))
        assert [key(b) for b in sorted(bs)] == sorted(map(key, bs))
        # max/min keep the first of equals, as they do for tuples.
        assert max(bs) is next(b for b in bs if key(b) == max(map(key, bs)))
        assert min(bs) is next(b for b in bs if key(b) == min(map(key, bs)))

    @pytest.mark.parametrize("other", [(1, 0), 1, None, "b(1.0)"])
    def test_other_types_do_not_order(self, other):
        for op in ("__lt__", "__le__", "__gt__", "__ge__"):
            assert getattr(Ballot(1, 0), op)(other) is NotImplemented
        with pytest.raises(TypeError):
            Ballot(1, 0) < other


configs = st.integers(1, 5).flatmap(
    lambda x: st.builds(CodingConfig, st.just(x), st.integers(x, 7))
)


class TestCodedShareSizeIsStoredNotStale:
    @given(configs, st.integers(0, 1 << 31))
    def test_modeled_paths(self, cfg, nbytes):
        want = cfg.share_size(nbytes)
        value = Value("v", nbytes, meta=("put", "k"))
        members = tuple(range(cfg.n))
        shares = encode_value(value, cfg, members)
        shares.append(encode_one_share(value, cfg, cfg.n - 1, members))
        shares.append(CodedShare("v", 0, cfg, nbytes))
        for s in list(shares):
            shares += [s.corrupted(), replace(s, corrupt=True),
                       replace(s, index=0), replace(s, members=None)]
        assert {s.size for s in shares} == {want}

    @settings(max_examples=40)
    @given(configs, st.binary(max_size=200))
    def test_concrete_paths(self, cfg, data):
        want = cfg.share_size(len(data))
        value = Value("v", len(data), data)
        shares = encode_value(value, cfg)
        shares.append(encode_one_share(value, cfg, 0))
        for s in list(shares):
            shares += [s.corrupted(), replace(s, corrupt=True)]
        assert {s.size for s in shares} == {want}
        # Parity is ``size`` bytes; an original holds what the value has
        # in its row, the tail's zero padding implicit.
        assert all(
            len(s.data) == (min(max(len(data) - s.index * want, 0), want)
                            if s.index < cfg.x else want)
            for s in shares
        )

    @given(configs, st.integers(0, 10_000), st.integers(0, 10_000))
    def test_a_copy_that_changes_the_value_size_rederives(self, cfg, a, b):
        share = CodedShare("v", 0, cfg, a)
        assert replace(share, value_size=b, size=-1).size == cfg.share_size(b)

    @given(configs, st.integers(0, 10_000))
    def test_passed_and_derived_size_are_one_share(self, cfg, nbytes):
        value = Value("v", nbytes)
        passed = encode_value(value, cfg)[0]             # size handed in
        derived = CodedShare("v", 0, cfg, nbytes)        # size filled in
        assert passed == derived and hash(passed) == hash(derived)
        assert record_checksum(7, Accept(3, Ballot(1, 0), passed), 0) == \
            record_checksum(7, Accept(3, Ballot(1, 0), derived), 0)
        assert passed != replace(derived, corrupt=True)
