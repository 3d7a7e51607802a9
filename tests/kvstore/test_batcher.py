"""``Batcher`` on its own: a fake clock and a recorded ``close``, no
cluster, no simulator.

What a closed batch does end to end (one Paxos value, frame order on
apply, atomic failure) is in ``test_batching.py`` and
``tests/chaos/test_batch_atomicity.py``; these pin the component's own
rules — close by count, bytes and linger, same-instant coalescing, the
batch of one, and flush.
"""

from repro.kvstore.batch import (
    FRAME_OVERHEAD,
    Batcher,
    Parked,
    entry_size,
)

from .test_sharefetch import Clock


def cmd(key, size=10, client="c"):
    return Parked("put", key, size, None, client, 0, None, None)


class Rig:
    """A Batcher whose ``close`` records ``(now, group, keys)``."""

    def __init__(self, max_commands=4, max_bytes=1 << 20, linger=0.001):
        self.clock = Clock()
        self.closed: list[tuple] = []
        self.batcher = Batcher(self.clock, max_commands, max_bytes, linger,
                               self.close)

    def close(self, group, entries):
        self.closed.append(
            (self.clock.now, group, [e.key for e in entries]))

    def add(self, group, *keys, **kw):
        for key in keys:
            self.batcher.add(group, cmd(key, **kw))


def test_closes_by_count_at_once():
    rig = Rig(max_commands=3)
    rig.add(0, "a", "b")
    assert rig.closed == []
    rig.add(0, "c")
    assert rig.closed == [(0.0, 0, ["a", "b", "c"])]
    # The closing add cancelled the linger timer the first one armed.
    assert rig.clock.pending() == []


def test_groups_batch_apart():
    rig = Rig(max_commands=2)
    rig.add(0, "a")
    rig.add(1, "x")
    rig.add(0, "b")
    assert rig.closed == [(0.0, 0, ["a", "b"])]
    rig.clock.advance(0.001)
    assert rig.closed[1] == (0.001, 1, ["x"])


def test_closes_by_bytes_where_entry_size_says():
    one = entry_size("k0", "c", 100)
    rig = Rig(max_commands=32, max_bytes=FRAME_OVERHEAD + 3 * one)
    rig.add(0, "k0", "k1", size=100)
    assert rig.closed == []
    rig.add(0, "k2", size=100)
    assert rig.closed == [(0.0, 0, ["k0", "k1", "k2"])]


def test_closes_by_linger_from_the_first_command():
    rig = Rig(max_commands=32, linger=0.005)
    rig.add(0, "a")
    rig.clock.advance(0.003)
    rig.add(0, "b")            # does not re-arm the timer
    rig.clock.advance(0.001)
    assert rig.closed == []
    rig.clock.advance(0.001)
    assert rig.closed == [(0.005, 0, ["a", "b"])]
    assert rig.clock.pending() == []


def test_zero_linger_coalesces_one_instant():
    rig = Rig(max_commands=32, linger=0.0)
    rig.add(0, "a", "b", "c")
    assert rig.closed == []
    rig.clock.advance(0.0)
    assert rig.closed == [(0.0, 0, ["a", "b", "c"])]


def test_batch_of_one_closes_inside_add_without_a_timer():
    rig = Rig(max_commands=1)
    rig.add(0, "a")
    assert rig.closed == [(0.0, 0, ["a"])]
    assert rig.clock.timers == []
    rig.add(0, "b")
    assert rig.closed[1] == (0.0, 0, ["b"])
    assert rig.clock.timers == []


def test_flush_returns_parked_in_order_and_cancels_timers():
    rig = Rig(max_commands=32)
    rig.add(1, "x")
    rig.add(0, "a")
    rig.add(1, "y")
    parked = rig.batcher.flush()
    assert [e.key for e in parked] == ["x", "y", "a"]
    assert rig.clock.pending() == []
    assert rig.batcher.flush() == []
    rig.clock.advance(1.0)
    assert rig.closed == []


def test_linger_firing_after_flush_does_nothing():
    """A timer the clock fires anyway (cancel ignored) finds no batch."""
    rig = Rig(max_commands=32)
    rig.add(0, "a")
    (timer,) = rig.clock.timers
    rig.batcher.flush()
    timer.fn()
    assert rig.closed == []
    # The group starts a fresh batch with a fresh timer afterwards.
    rig.add(0, "b")
    rig.clock.advance(0.001)
    assert rig.closed == [(0.001, 0, ["b"])]
