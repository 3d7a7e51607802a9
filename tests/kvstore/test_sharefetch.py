"""``ShareFetch`` on its own: a fake clock and recorded ``request`` /
``cancel_request`` calls, no cluster, no simulator.

What a gather does end to end (recovery reads through a failover,
degraded decodes, scrub repair) is in ``test_readpath.py``,
``test_scrub.py`` and the ``hedged_recovery_reads`` golden; these pin
the component's own rules — ranking, fan-out, replacement, hedging,
cancellation, exhaustion, reset.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.kvstore import ShareFetch
from repro.kvstore.sharefetch import CYCLE_PAUSE

PEERS = ["P1", "P2", "P4", "P5"]


class Timer:
    def __init__(self, at, fn):
        self.at, self.fn, self.cancelled = at, fn, False

    def cancel(self):
        self.cancelled = True


class Clock:
    """``now`` + ``call_after``; ``advance`` fires what falls due."""

    def __init__(self):
        self.now = 0.0
        self.timers: list[Timer] = []

    def call_after(self, delay, fn):
        timer = Timer(self.now + delay, fn)
        self.timers.append(timer)
        return timer

    def pending(self):
        return sorted(t.at for t in self.timers if not t.cancelled)

    def advance(self, dt):
        end = self.now + dt
        while True:
            due = [t for t in self.timers if not t.cancelled and t.at <= end]
            if not due:
                break
            timer = min(due, key=lambda t: t.at)
            self.timers.remove(timer)
            self.now = timer.at
            timer.fn()
        self.now = end


class Rig:
    """A ShareFetch over a fake endpoint. ``sent`` lists every request
    as a namespace (rid, host, kw, on_reply, on_timeout); ``cancelled``
    the rids cancelled. ``rtt`` maps host -> smoothed RTT (absent =
    never measured); a measured peer's RTO is four times its RTT."""

    def __init__(self, rtt=None, hedge=True, rtt_select=True, seed=0):
        self.clock = Clock()
        self.rtt = dict(rtt or {})
        self.sent: list[SimpleNamespace] = []
        self.cancelled: list[int] = []
        self.fetch = ShareFetch(
            self.clock, PEERS, request=self.request,
            cancel_request=self.cancelled.append, rto=self.rto,
            peer_stats=self.peer_stats,
            rng=np.random.default_rng(seed),
        )
        self.fetch.hedge, self.fetch.rtt_select = hedge, rtt_select
        # The client of one gather: needs ``want`` usable replies.
        self.want = 2
        self.got: list[tuple] = []
        self.done = 0
        self.exhausted = 0

    # -- the fake endpoint ------------------------------------------------

    def request(self, host, body, size, *, on_reply, on_timeout, **kw):
        call = SimpleNamespace(rid=len(self.sent), host=host, body=body,
                               size=size, kw=kw, on_reply=on_reply,
                               on_timeout=on_timeout)
        self.sent.append(call)
        return call.rid

    def rto(self, host, fallback):
        return 4 * self.rtt[host] if host in self.rtt else fallback

    def peer_stats(self, host):
        ewma = self.rtt.get(host, 0.0)
        return SimpleNamespace(samples=int(host in self.rtt), ewma=ewma)

    # -- the client -------------------------------------------------------

    def gather(self, want=2, defer=False, timeout=0.5, retries=8):
        self.want = want
        self.fetch.gather(
            "req", 32, missing=lambda: max(0, self.want - len(self.got)),
            offer=self.offer, on_done=self.on_done,
            on_exhausted=self.on_exhausted if defer else None,
            timeout=timeout, retries=retries,
        )

    def offer(self, reply, host, elapsed):
        if reply != "share":
            return False
        self.got.append((host, elapsed))
        return True

    def on_done(self):
        self.done += 1

    def on_exhausted(self):
        self.exhausted += 1

    def asked(self):
        return [call.host for call in self.sent]

    def call_to(self, host):
        return [call for call in self.sent if call.host == host][-1]

    def reply(self, host, reply="share"):
        self.call_to(host).on_reply(reply)

    def timeout(self, host):
        self.call_to(host).on_timeout()


FAST = {"P1": 0.001, "P2": 0.002, "P4": 0.003, "P5": 0.004}


class TestRanking:
    def test_measured_before_unmeasured_and_ties_break_by_name(self):
        rig = Rig(rtt={"P5": 0.002, "P2": 0.002})
        assert rig.fetch.ranked() == ["P2", "P5", "P1", "P4"]

    def test_faster_peer_first(self):
        rig = Rig(rtt={"P1": 0.003, "P2": 0.001, "P4": 0.002, "P5": 0.004})
        assert rig.fetch.ranked() == ["P2", "P4", "P1", "P5"]

    def test_in_flight_load_demotes_a_fast_but_busy_peer(self):
        rig = Rig(rtt=FAST)
        rig.fetch.started("P1")
        rig.fetch.started("P1")            # 0.001 x (1 + 2) > 0.002
        assert rig.fetch.ranked() == ["P2", "P1", "P4", "P5"]
        rig.fetch.finished("P1")
        rig.fetch.finished("P1")
        assert rig.fetch.load == {}
        assert rig.fetch.ranked() == ["P1", "P2", "P4", "P5"]

    def test_load_orders_unmeasured_peers_too(self):
        rig = Rig()
        rig.fetch.started("P1")
        assert rig.fetch.ranked() == ["P2", "P4", "P5", "P1"]

    def test_finished_never_goes_below_zero(self):
        rig = Rig()
        rig.fetch.finished("P1")           # e.g. begun before a reset
        rig.fetch.started("P1")
        assert rig.fetch.load == {"P1": 1}

    def test_seeded_random_order_covers_every_peer_once(self):
        orders = set()
        for seed in range(8):
            rig = Rig(rtt=FAST, rtt_select=False, seed=seed)
            order = rig.fetch.ranked()
            assert sorted(order) == PEERS
            orders.add(tuple(order))
        assert len(orders) > 1             # it does shuffle
        again = Rig(rtt=FAST, rtt_select=False, seed=3).fetch.ranked()
        assert again == Rig(rtt=FAST, rtt_select=False, seed=3).fetch.ranked()


class TestFanOut:
    def test_nothing_missing_is_done_at_once_without_a_request(self):
        rig = Rig(rtt=FAST)
        rig.gather(want=0)
        assert rig.done == 1 and rig.sent == [] and rig.clock.timers == []

    def test_fan_out_equals_missing_and_goes_to_the_best_ranked(self):
        rig = Rig(rtt=FAST)
        rig.gather(want=3)
        assert rig.asked() == ["P1", "P2", "P4"]
        assert rig.fetch.load == {"P1": 1, "P2": 1, "P4": 1}

    def test_request_options_pass_through(self):
        rig = Rig(rtt=FAST)
        rig.gather(want=1, timeout=0.7, retries=2)
        (call,) = rig.sent
        assert (call.body, call.size) == ("req", 32)
        assert call.kw == {"timeout": 0.7, "retries": 2, "adaptive": True}

    def test_fan_out_shrinks_as_shares_arrive(self):
        rig = Rig(rtt=FAST, hedge=False)
        rig.gather(want=3)
        rig.reply("P2")
        rig.reply("P1")
        assert rig.asked() == ["P1", "P2", "P4"]   # a usable reply asks nobody
        assert rig.done == 0
        rig.reply("P4")
        assert rig.done == 1 and rig.asked() == ["P1", "P2", "P4"]

    def test_offer_sees_the_host_and_the_fetchs_own_latency(self):
        rig = Rig(rtt=FAST, hedge=False)
        rig.gather(want=2)
        rig.clock.advance(0.010)
        rig.reply("P1", "nothing")                 # P4 goes out at 0.010
        rig.clock.advance(0.005)
        rig.reply("P4")
        rig.reply("P2")
        assert rig.got == [("P4", pytest.approx(0.005)),
                           ("P2", pytest.approx(0.015))]

    def test_unusable_reply_pulls_in_exactly_one_next_ranked_peer(self):
        rig = Rig(rtt=FAST, hedge=False)
        rig.gather(want=2)
        rig.reply("P1", "nothing")
        assert rig.asked() == ["P1", "P2", "P4"]
        assert rig.fetch.load == {"P2": 1, "P4": 1}
        assert rig.got == [] and rig.done == 0

    def test_timeout_pulls_in_exactly_one_next_ranked_peer(self):
        rig = Rig(rtt=FAST, hedge=False)
        rig.gather(want=2)
        rig.timeout("P2")
        assert rig.asked() == ["P1", "P2", "P4"]
        rig.timeout("P4")
        assert rig.asked() == ["P1", "P2", "P4", "P5"]


class TestHedging:
    def test_hedge_fires_at_the_slowest_outstanding_fetchs_rto(self):
        rig = Rig(rtt=FAST)
        rig.gather(want=2)                         # P1 (4 ms), P2 (8 ms)
        assert rig.clock.pending() == [pytest.approx(0.008)]
        rig.clock.advance(0.0079)
        assert rig.asked() == ["P1", "P2"]
        rig.clock.advance(0.0002)
        assert rig.asked() == ["P1", "P2", "P4"]
        assert rig.fetch.hedges_issued == 1 and rig.fetch.hedge_wins == 0
        # Re-armed over the new outstanding set: P4's RTO is 12 ms.
        assert rig.clock.pending() == [pytest.approx(0.008 + 0.012)]

    def test_unmeasured_peer_hedges_at_the_requests_own_timeout(self):
        rig = Rig(rtt={"P1": 0.001})
        rig.gather(want=2, timeout=0.5)            # P1 and unmeasured P2
        assert rig.clock.pending() == [pytest.approx(0.5)]

    def test_hedge_that_supplies_a_share_is_a_win(self):
        rig = Rig(rtt=FAST)
        rig.gather(want=2)
        rig.clock.advance(0.009)                   # hedge to P4
        rig.reply("P1")
        rig.reply("P4")
        assert rig.done == 1
        assert rig.fetch.hedges_issued == 1 and rig.fetch.hedge_wins == 1

    def test_unusable_hedge_reply_is_not_a_win(self):
        rig = Rig(rtt=FAST)
        rig.gather(want=2)
        rig.clock.advance(0.009)
        rig.reply("P4", "nothing")
        assert rig.fetch.hedge_wins == 0

    def test_not_armed_once_every_peer_was_asked(self):
        rig = Rig(rtt=FAST)
        rig.gather(want=4)
        assert rig.asked() == PEERS and rig.clock.pending() == []

    def test_no_hedge_with_hedging_off(self):
        rig = Rig(rtt=FAST, hedge=False)
        rig.gather(want=2)
        assert rig.clock.timers == []

    def test_done_cancels_the_timer_and_does_not_re_arm(self):
        rig = Rig(rtt=FAST)
        rig.gather(want=2)
        rig.reply("P1")
        rig.reply("P2")
        assert rig.done == 1 and rig.clock.pending() == []
        rig.clock.advance(1.0)
        assert rig.asked() == ["P1", "P2"] and rig.fetch.hedges_issued == 0


class TestDone:
    def test_done_cancels_every_leftover_and_drains_the_load(self):
        rig = Rig(rtt=FAST)
        rig.gather(want=2)
        rig.clock.advance(0.009)                   # hedge: P4 in flight too
        rig.reply("P4")
        rig.reply("P2")
        assert rig.done == 1
        assert rig.cancelled == [rig.call_to("P1").rid]
        assert rig.fetch.load == {}

    def test_reply_to_a_cancelled_fetch_is_ignored(self):
        rig = Rig(rtt=FAST)
        rig.gather(want=1)
        rig.clock.advance(0.005)                   # hedge to P2
        rig.reply("P2")
        assert rig.done == 1 and rig.cancelled == [rig.call_to("P1").rid]
        rig.reply("P1")                            # a real endpoint drops it
        assert rig.done == 1 and rig.got == [("P2", pytest.approx(0.001))]
        assert rig.fetch.load == {}

    def test_client_may_be_done_before_its_count_is_reached(self):
        # "A peer re-coded my exact fragment": missing() drops to zero.
        rig = Rig(rtt=FAST, hedge=False)
        rig.gather(want=3)
        rig.reply("P2")
        rig.want = 1
        rig.reply("P4")
        assert rig.done == 1
        assert rig.cancelled == [rig.call_to("P1").rid]


class TestExhaustion:
    def run_dry(self, rig):
        for host in PEERS:
            rig.reply(host, "nothing")

    def test_reader_cycles_once_per_pause_over_the_same_ranking(self):
        rig = Rig(rtt=FAST, hedge=False)
        rig.gather(want=1)
        self.run_dry(rig)
        assert rig.asked() == PEERS
        assert rig.clock.pending() == [pytest.approx(CYCLE_PAUSE)]
        rig.clock.advance(CYCLE_PAUSE - 0.001)
        assert rig.asked() == PEERS
        rig.clock.advance(0.002)
        assert rig.asked() == PEERS + ["P1"]
        self.run_dry(rig)
        assert rig.asked() == PEERS * 2
        assert rig.clock.pending() == [pytest.approx(2 * CYCLE_PAUSE + 0.001)]
        rig.clock.advance(CYCLE_PAUSE)
        rig.reply("P1")                            # third pass: it is back
        assert rig.done == 1 and rig.exhausted == 0

    def test_reader_that_stops_needing_shares_is_done_not_cycled(self):
        """A reader whose value was retired meanwhile drops ``missing()``
        to zero: the next pass ends the gather through ``on_done``."""
        rig = Rig(rtt=FAST, hedge=False)
        rig.gather(want=1)
        self.run_dry(rig)
        rig.want = 0
        rig.clock.advance(CYCLE_PAUSE)
        assert rig.asked() == PEERS and rig.done == 1
        assert rig.clock.pending() == [] and rig.fetch.load == {}

    def test_shares_kept_across_passes(self):
        rig = Rig(rtt=FAST, hedge=False)
        rig.gather(want=2)
        rig.reply("P1")
        for host in ("P2", "P4", "P5"):
            rig.reply(host, "nothing")
        rig.clock.advance(CYCLE_PAUSE)
        assert rig.asked() == PEERS + ["P1"]       # one missing, one asked
        rig.reply("P1")
        assert rig.done == 1

    def test_deferring_client_is_told_exactly_once(self):
        rig = Rig(rtt=FAST)
        rig.gather(want=1, defer=True)
        self.run_dry(rig)
        assert rig.exhausted == 1 and rig.done == 0
        assert rig.clock.pending() == [] and rig.fetch.load == {}
        rig.clock.advance(5.0)
        assert rig.exhausted == 1 and rig.asked() == PEERS

    def test_not_exhausted_while_a_fetch_is_still_out(self):
        rig = Rig(rtt=FAST, hedge=False)
        rig.gather(want=2, defer=True)
        for host in ("P1", "P4", "P5"):
            rig.reply(host, "nothing")
        assert rig.exhausted == 0                  # P2 has not answered
        rig.timeout("P2")
        assert rig.exhausted == 1


class TestReset:
    def test_late_reply_and_timeout_are_no_ops(self):
        rig = Rig(rtt=FAST, hedge=False)
        rig.gather(want=2)
        rig.fetch.reset()
        assert rig.fetch.load == {}
        rig.fetch.started("P1")                    # the next incarnation's
        rig.reply("P1")
        rig.timeout("P2")
        assert rig.got == [] and rig.done == 0
        assert rig.asked() == ["P1", "P2"]
        assert rig.fetch.load == {"P1": 1}         # not theirs to decrement

    def test_hedge_timer_is_a_no_op(self):
        rig = Rig(rtt=FAST)
        rig.gather(want=2)
        rig.fetch.reset()
        rig.clock.advance(1.0)                     # owner is alive again
        assert rig.asked() == ["P1", "P2"] and rig.fetch.hedges_issued == 0
        assert rig.clock.pending() == []

    def test_cycle_timer_is_a_no_op(self):
        rig = Rig(rtt=FAST, hedge=False)
        rig.gather(want=1)
        for host in PEERS:
            rig.reply(host, "nothing")
        assert rig.clock.pending() == [pytest.approx(CYCLE_PAUSE)]
        rig.fetch.reset()
        rig.clock.advance(1.0)
        assert rig.asked() == PEERS and rig.clock.pending() == []

    def test_counters_survive_and_later_gathers_work(self):
        rig = Rig(rtt=FAST)
        rig.gather(want=2)
        rig.clock.advance(0.009)
        rig.fetch.reset()
        assert rig.fetch.hedges_issued == 1
        rig.got.clear()
        rig.gather(want=1)
        rig.reply("P1")
        assert rig.done == 1
