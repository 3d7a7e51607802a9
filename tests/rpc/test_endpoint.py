"""Unit tests for the RPC layer."""

import collections
import re
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.net import LinkSpec, build_network
from repro.rpc import Batch, Request, RpcEndpoint
from repro.sim import Simulator


@dataclass
class Ping:
    n: int = 0


@dataclass
class Pong:
    n: int = 0


def make_endpoints(link=None, seed=0, names=("A", "B"), **kw):
    sim = Simulator(seed=seed)
    net = build_network(sim, list(names), link or LinkSpec(delay_s=0.001))
    eps = {n: RpcEndpoint(sim, net, n, **kw) for n in names}
    return sim, net, eps


class TestOneWay:
    def test_typed_dispatch(self):
        sim, net, eps = make_endpoints()
        got = []
        eps["B"].on(Ping, lambda msg, src: got.append((msg.n, src)))
        eps["A"].send("B", Ping(7), size=10)
        sim.run()
        assert got == [(7, "A")]

    def test_unregistered_type_ignored(self):
        sim, net, eps = make_endpoints()
        eps["A"].send("B", Ping(1), size=0)
        sim.run()  # no handler; nothing should explode

    def test_self_send(self):
        sim, net, eps = make_endpoints()
        got = []
        eps["A"].on(Ping, lambda msg, src: got.append(src))
        eps["A"].send("A", Ping(), size=0)
        sim.run()
        assert got == ["A"]


class TestRequestReply:
    def test_roundtrip(self):
        sim, net, eps = make_endpoints()
        eps["B"].on_request(Ping, lambda msg, src: Pong(msg.n + 1))
        got = []
        eps["A"].request("B", Ping(1), size=10, on_reply=lambda r: got.append(r))
        sim.run()
        assert len(got) == 1 and got[0].n == 2

    def test_reply_with_size(self):
        sim, net, eps = make_endpoints()
        eps["B"].on_request(Ping, lambda msg, src: (Pong(0), 5000))
        got = []
        eps["A"].request("B", Ping(), size=10, on_reply=lambda r: got.append(r))
        sim.run()
        assert isinstance(got[0], Pong)

    def test_retransmit_through_loss(self):
        # 80% loss: unbounded retries must still get through eventually.
        link = LinkSpec(delay_s=0.001, loss_prob=0.8)
        sim, net, eps = make_endpoints(link, seed=5)
        eps["B"].on_request(Ping, lambda msg, src: Pong(9))
        got = []
        eps["A"].request(
            "B", Ping(), size=10, on_reply=lambda r: got.append(r),
            timeout=0.05, retries=-1,
        )
        sim.run(until=60.0)
        assert len(got) == 1

    def test_bounded_retries_timeout(self):
        link = LinkSpec(delay_s=0.001, loss_prob=1.0)
        sim, net, eps = make_endpoints(link)
        timeouts = []
        eps["A"].request(
            "B", Ping(), size=10, on_reply=lambda r: pytest.fail("no reply expected"),
            timeout=0.01, retries=3, on_timeout=lambda: timeouts.append(sim.now),
        )
        sim.run()
        assert len(timeouts) == 1
        # initial + 3 retries, each expiring after 0.01.
        assert timeouts[0] == pytest.approx(0.04, abs=1e-6)
        assert eps["A"].requests_timed_out == 1

    def test_duplicate_replies_invoke_callback_once(self):
        link = LinkSpec(delay_s=0.001, dup_prob=1.0)
        sim, net, eps = make_endpoints(link)
        eps["B"].on_request(Ping, lambda msg, src: Pong())
        got = []
        eps["A"].request("B", Ping(), size=0, on_reply=lambda r: got.append(r))
        sim.run(until=5.0)
        assert len(got) == 1

    def test_duplicate_requests_answered_idempotently(self):
        # The request handler may run more than once under duplication;
        # dedup is the caller's business. Here we just check no crash
        # and exactly one callback.
        link = LinkSpec(delay_s=0.001, dup_prob=0.5)
        sim, net, eps = make_endpoints(link, seed=2)
        calls = []
        eps["B"].on_request(Ping, lambda msg, src: (calls.append(1), Pong())[1])
        got = []
        eps["A"].request("B", Ping(), size=0, on_reply=lambda r: got.append(r))
        sim.run(until=5.0)
        assert len(got) == 1
        assert len(calls) >= 1

    def test_cancel_request(self):
        sim, net, eps = make_endpoints()
        eps["B"].on_request(Ping, lambda msg, src: Pong())
        got = []
        rid = eps["A"].request(
            "B", Ping(), size=0, on_reply=lambda r: got.append(r), timeout=10.0
        )
        eps["A"].cancel_request(rid)
        sim.run(until=5.0)
        assert got == []

    def test_none_reply_means_no_response(self):
        sim, net, eps = make_endpoints()
        eps["B"].on_request(Ping, lambda msg, src: None)
        timeouts = []
        eps["A"].request(
            "B", Ping(), size=0, on_reply=lambda r: pytest.fail("unexpected"),
            timeout=0.01, retries=2, on_timeout=lambda: timeouts.append(1),
        )
        sim.run()
        assert timeouts == [1]


class TestLateReplies:
    def test_late_reply_after_final_timeout_dropped(self):
        # Regression: a reply landing after ``on_timeout`` already
        # fired must be dropped by the endpoint, never
        # dispatched to the (dead) continuation.
        sim, net, eps = make_endpoints()

        def slow(msg, src, respond):
            sim.call_after(1.0, lambda: respond(Pong(1), 0))

        eps["B"].on_request_async(Ping, slow)
        timeouts = []
        eps["A"].request(
            "B", Ping(), size=10,
            on_reply=lambda r: pytest.fail("late reply must not dispatch"),
            timeout=0.01, retries=3,
            on_timeout=lambda: timeouts.append(sim.now),
        )
        sim.run(until=5.0)
        assert timeouts == [pytest.approx(0.04, abs=1e-6)]
        # All 4 transmits eventually drew a (late) reply; every one of
        # them must land in the stale bucket.
        assert eps["A"].stale_replies_dropped == 4

    def test_reply_after_cancel_dropped(self):
        sim, net, eps = make_endpoints()
        eps["B"].on_request(Ping, lambda msg, src: Pong())
        rid = eps["A"].request(
            "B", Ping(), size=0,
            on_reply=lambda r: pytest.fail("cancelled"), timeout=10.0,
        )
        eps["A"].cancel_request(rid)
        sim.run(until=1.0)
        assert eps["A"].stale_replies_dropped == 1


class TestSuspicion:
    """``on_suspect`` rides the request's own timer: once at the RTO,
    then the unchanged deadline."""

    def slow_b(self, delay):
        """A and B with one round trip measured (rto = the 20 ms floor
        on this 1 ms link), then B answering Pings ``delay`` late."""
        sim, net, eps = make_endpoints()
        eps["B"].on_request(Pong, lambda msg, src: Pong())
        eps["A"].request("B", Pong(), size=0, on_reply=lambda r: None)
        sim.run()
        assert eps["A"].rto("B", 1.0) == pytest.approx(0.02)

        def slow(msg, src, respond):
            sim.call_after(delay, lambda: respond(Pong(msg.n), 0))

        eps["B"].on_request_async(Ping, slow)
        return sim, eps

    def ask(self, sim, eps, dst="B", timeout=0.5):
        seen = []
        start = sim.now
        eps["A"].request(
            dst, Ping(), size=0, timeout=timeout, retries=0,
            on_reply=lambda r: seen.append(("reply", sim.now - start)),
            on_timeout=lambda: seen.append(("timeout", sim.now - start)),
            on_suspect=lambda: seen.append(("suspect", sim.now - start)),
        )
        return seen

    def test_fires_once_at_the_rto_and_keeps_the_deadline(self):
        sim, eps = self.slow_b(10.0)
        seen = self.ask(sim, eps)
        events = sim.events_processed
        sim.run(until=sim.now + 5.0)
        assert [k for k, _ in seen] == ["suspect", "timeout"]
        assert seen[0][1] == pytest.approx(0.02)
        assert seen[1][1] == pytest.approx(0.5)
        assert eps["A"].requests_timed_out == 1
        # Two timer firings on one request timer, no second timer.
        assert sim.events_processed - events == 2 + 2  # + request hop

    def test_reply_before_the_rto_never_suspects(self):
        sim, eps = self.slow_b(0.005)
        seen = self.ask(sim, eps)
        sim.run(until=sim.now + 5.0)
        assert [k for k, _ in seen] == ["reply"]

    def test_reply_after_the_rto_still_lands(self):
        sim, eps = self.slow_b(0.1)
        seen = self.ask(sim, eps)
        sim.run(until=sim.now + 5.0)
        assert [k for k, _ in seen] == ["suspect", "reply"]

    def test_no_rtt_sample_no_suspicion(self):
        sim, net, eps = make_endpoints(names=("A", "B", "C"))
        seen = self.ask(sim, eps, dst="C")  # C never answered anything
        sim.run(until=5.0)
        assert seen == [("timeout", pytest.approx(0.5))]

    def test_rto_not_below_the_timeout_never_suspects(self):
        sim, eps = self.slow_b(10.0)
        seen = self.ask(sim, eps, timeout=0.02)
        sim.run(until=sim.now + 5.0)
        assert seen == [("timeout", pytest.approx(0.02))]

    def test_suspect_may_cancel_its_request(self):
        sim, eps = self.slow_b(0.1)
        seen = []
        rid = eps["A"].request(
            "B", Ping(), size=0, timeout=0.5, retries=0,
            on_reply=lambda r: seen.append("reply"),
            on_timeout=lambda: seen.append("timeout"),
            on_suspect=lambda: eps["A"].cancel_request(rid),
        )
        sim.run(until=sim.now + 5.0)
        assert seen == []
        assert eps["A"].stale_replies_dropped == 1


class TestReset:
    """``reset`` is the host's crash: every request it has out is
    retired without a callback, its volatile tables are emptied, and a
    reply to the previous incarnation never matches the next one."""

    def crashed_with_work_out(self):
        """A with one RTT sample toward B, then, all unanswered at the
        reset: a bounded request (``on_timeout``), an unbounded adaptive
        one, and one that would suspect B at its RTO. B holds every
        ``respond`` it is handed, in ``held``."""
        sim, net, eps = make_endpoints()
        eps["B"].on_request(Pong, lambda msg, src: Pong())
        eps["A"].request("B", Pong(), size=0, on_reply=lambda r: None)
        sim.run()
        held = []
        eps["B"].on_request_async(
            Ping, lambda msg, src, respond: held.append(respond))
        fired = []
        for kw in (dict(retries=2, on_timeout=lambda: fired.append("timeout")),
                   dict(retries=-1, adaptive=True),
                   dict(retries=0, on_suspect=lambda: fired.append("suspect"))):
            eps["A"].request("B", Ping(), size=0, timeout=0.5,
                             on_reply=lambda r: fired.append("reply"), **kw)
        sim.run(until=sim.now + 0.005)
        assert len(held) == 3 and fired == []
        eps["A"].reset()
        return sim, net, eps, held, fired

    def test_no_callback_fires_after_a_reset(self):
        sim, net, eps, held, fired = self.crashed_with_work_out()
        sent = net.messages_sent
        for respond in held:
            respond(Pong(), 0)
        sim.run(until=sim.now + 10.0)
        assert fired == []
        assert net.messages_sent == sent + 3       # the replies, no resend
        assert eps["A"].stale_replies_dropped == 3
        assert sim.pending() == 0

    def test_silent_table_batches_and_rtt_estimates_are_emptied(self):
        sim, net, eps = make_endpoints(batch_window=0.01)
        eps["B"].on_request(Pong, lambda msg, src: Pong())
        eps["A"].request("B", Pong(), size=0, on_reply=lambda r: None)
        sim.run()
        net.crash_host("B")
        for _ in range(2):
            eps["A"].request("B", Ping(), size=0, on_reply=lambda r: None,
                             timeout=0.05, adaptive=True)
        sim.run(until=sim.now + 0.5)
        eps["A"].send("B", Ping(), size=10)
        assert eps["A"]._silent and eps["A"]._batches
        assert eps["A"].peer_rtt("B") is not None
        eps["A"].reset()
        assert eps["A"]._silent == {} and eps["A"]._pending == {}
        assert eps["A"]._batches == {} and eps["A"]._batch_timers == {}
        assert eps["A"].rtt_table() == {}
        assert eps["A"].peer_stats("B").samples == 0
        assert eps["A"].rto("B", 0.7) == 0.7       # back to the fallback
        assert sim.pending() == 0

    def test_a_pre_crash_reply_never_matches_a_new_request(self):
        sim, net, eps, held, fired = self.crashed_with_work_out()
        got = []
        old_ids = {0, 1, 2, 3}  # the RTT sample's request and the three
        rid = eps["A"].request("B", Ping(), size=0, timeout=5.0,
                               on_reply=got.append)
        assert rid not in old_ids
        sim.run(until=sim.now + 0.005)
        for respond in held[:3]:
            respond(Pong(1), 0)                    # the previous incarnation's
        sim.run(until=sim.now + 0.005)
        assert got == [] and eps["A"].stale_replies_dropped == 3
        held[3](Pong(2), 0)                        # the new request's
        sim.run(until=sim.now + 0.005)
        assert got == [Pong(2)] and fired == []

    def test_handlers_and_counters_survive(self):
        sim, net, eps = make_endpoints()
        got = []
        eps["A"].on(Pong, lambda msg, src: got.append(msg))
        eps["A"].on_request(Ping, lambda msg, src: Pong(msg.n))
        eps["A"].request("B", Ping(), size=0, on_reply=lambda r: None)
        eps["A"].reset()
        assert eps["A"].requests_sent == 1
        eps["B"].send("A", Pong(3), size=0)
        eps["B"].request("A", Ping(4), size=0, on_reply=got.append)
        sim.run(until=1.0)
        assert got == [Pong(3), Pong(4)]


class TestSilentPeer:
    """While a destination is silent, one unbounded request to it (the
    probe) retransmits and the rest are parked: no transmission, no
    timer. Hearing from the peer re-arms each parked request once."""

    TIMEOUT = 0.05  # no RTT sample: the fallback seeds the backoff

    def setup(self, handler=None):
        """A and B on a 1 ms link, with every Request A puts on the
        wire logged as ``(time, req_id)``."""
        sim, net, eps = make_endpoints()
        eps["B"].on_request_async(Ping, handler or (
            lambda msg, src, respond: respond(Pong(msg.n), 0)))
        sent = []
        wire_send = net.send

        def send(src, dst, payload, size):
            if src == "A" and isinstance(payload, Request):
                sent.append((sim.now, payload.req_id))
            wire_send(src, dst, payload, size)

        net.send = send
        return sim, net, eps, sent

    def ask(self, sim, eps, n, got, retries=-1, **kw):
        return eps["A"].request(
            "B", Ping(n), size=0, timeout=self.TIMEOUT, retries=retries,
            adaptive=True, on_reply=lambda r: got.append((r.n, sim.now)),
            **kw)

    def blocked(self, k, seconds=1.0):
        """``k`` unbounded requests into a link cut for ``seconds``."""
        sim, net, eps, sent = self.setup()
        net.block("A", "B")
        got = []
        ids = [self.ask(sim, eps, n, got) for n in range(k)]
        sim.run(until=seconds)
        return sim, net, eps, sent, got, ids

    def test_silence_costs_one_probe_not_k(self):
        lone = self.blocked(1)[3]
        for k in (2, 10):
            sent = self.blocked(k)[3]
            assert len(sent) == k + (len(lone) - 1)
        assert len(lone) == 5  # 0, .05, .15, .35, .75: Karn backoff

    def test_heal_completes_every_request_without_extra_sends(self):
        lone = self.blocked(1)
        sim, net, eps, sent, got, ids = self.blocked(10)
        for run in (lone, (sim, net)):
            run[1].unblock("A", "B")
            run[0].run(until=5.0)
        assert sorted(n for n, _ in got) == list(range(10))
        assert eps["A"]._silent == {} and eps["A"]._pending == {}
        per_request = collections.Counter(rid for _, rid in sent)
        assert max(per_request.values()) < len(lone[3]) == 6

    def test_probe_rotates_past_a_request_never_answered(self):
        # B never answers request 0, the first to time out and so the
        # first probe. Without rotation it would probe for ever and
        # starve the others after the cut heals.
        def handler(msg, src, respond):
            if msg.n:
                respond(Pong(msg.n), 0)

        sim, net, eps, sent = self.setup(handler)
        net.block("A", "B")
        got = []
        ids = [self.ask(sim, eps, n, got) for n in range(4)]
        sim.call_at(0.3, lambda: net.unblock("A", "B"))
        sim.run(until=5.0)
        assert sorted(n for n, _ in got) == [1, 2, 3]
        retransmits = [rid for t, rid in sent if t > 0.0]
        assert retransmits[:3] == ids[:3]  # 0, then 1 and 2 in turn
        assert got[0][0] == 2 and got[0][1] < 0.4

    def test_cancelling_the_probe_promotes_the_next(self):
        sim, net, eps, sent, got, ids = self.blocked(3, seconds=0.1)
        probe, queue = ids[0], eps["A"]._silent["B"]
        assert queue[0].req_id == probe and len(queue) == 3
        eps["A"].cancel_request(probe)
        assert sent[-1] == (sim.now, ids[1])       # sent at once
        assert [p.req_id for p in queue] == ids[1:]
        eps["A"].cancel_request(ids[2])            # a parked one
        assert [p.req_id for p in queue] == ids[1:2]
        eps["A"].cancel_request(ids[1])
        assert eps["A"]._silent == {}
        net.unblock("A", "B")
        sim.run(until=5.0)
        assert got == [] and eps["A"]._pending == {}

    def test_bounded_requests_never_park(self):
        sim, net, eps, sent, got, ids = self.blocked(1, seconds=0.1)
        assert "B" in eps["A"]._silent
        start, timeouts = sim.now, []
        rid = self.ask(sim, eps, 1, got, retries=3,
                       on_timeout=lambda: timeouts.append(sim.now - start))
        sim.run(until=2.0)
        # 0.05 + 0.1 + 0.2 + 0.4, every transmission on the wire.
        assert timeouts == [pytest.approx(0.75)]
        assert sum(1 for _, r in sent if r == rid) == 4

    def test_a_slow_peer_gets_no_burst_when_heard(self):
        # One clean sample (RTO = the 20 ms floor), then B answers
        # every Ping 100 ms late: each request times out once before
        # its reply comes.
        def slow(msg, src, respond):
            sim.call_after(0.1, lambda: respond(Pong(msg.n), 0))

        sim, net, eps, sent = self.setup()
        eps["B"].on_request(Pong, lambda msg, src: Pong())
        eps["A"].request("B", Pong(), size=0, on_reply=lambda r: None)
        sim.run()
        eps["B"].on_request_async(Ping, slow)
        sent.clear()
        got, start, k = [], sim.now, 10
        for n in range(k):
            self.ask(sim, eps, n, got)
        sim.run(until=start + 2.0)
        assert sorted(n for n, _ in got) == list(range(k))
        heard = min(t for _, t in got)
        assert [t for t, _ in sent if t >= heard] == []
        # The probe retransmitted and rotated once; every request
        # would have retransmitted twice before its reply.
        assert len(sent) == k + 2

    def test_heard_peer_gets_its_parked_requests_at_its_rto(self):
        # One clean sample (RTO = the 20 ms floor), then a 1 s cut: the
        # probes' backoff climbs to 0.64 s, and the requests that
        # probed carry it. B's first word after the cut (a one-way Ping)
        # re-arms every parked request at the 20 ms RTO instead.
        sim, net, eps, sent = self.setup()
        eps["A"].on(Ping, lambda msg, src: None)
        eps["A"].request("B", Ping(), size=0, on_reply=lambda r: None)
        sim.run()
        net.block("A", "B")
        got, start = [], sim.now
        for n in range(8):
            self.ask(sim, eps, n, got)
        sim.run(until=start + 1.0)
        assert max(p.cur_timeout
                   for p in eps["A"]._silent["B"]) >= 0.3
        net.unblock("A", "B")
        eps["B"].send("A", Ping(), size=0)
        sim.run(until=start + 5.0)
        assert sorted(n for n, _ in got) == list(range(8))
        assert max(t for _, t in got) < start + 1.0 + 0.03

    def test_parked_requests_hold_no_timer(self):
        sim, net, eps, sent, got, ids = self.blocked(50, seconds=0.01)
        armed = sim.pending()
        sim.run(until=0.1)
        assert armed - sim.pending() == 49  # the probe keeps one
        assert len(eps["A"]._silent["B"]) == 50


class TestAdaptiveTimeouts:
    def test_peer_stats_empty_before_any_sample(self):
        sim, net, eps = make_endpoints()
        st = eps["A"].peer_stats("B")
        assert st.samples == 0
        assert eps["A"].peer_rtt("B") is None
        assert eps["A"].rto("B", 0.7) == 0.7  # fallback until a sample

    def test_first_sample_seeds_estimator(self):
        sim, net, eps = make_endpoints()
        eps["B"].on_request(Ping, lambda msg, src: Pong())
        eps["A"].request("B", Ping(), size=10, on_reply=lambda r: None)
        sim.run()
        st = eps["A"].peer_stats("B")
        assert st.samples == 1
        assert st.ewma == pytest.approx(0.002, rel=0.2)  # ~2x 1ms delay
        assert st.dev == pytest.approx(st.ewma / 2)
        # ewma + 4*dev is far below the floor on this quiet link.
        assert eps["A"].rto("B", 9.9) == eps["A"].rto_floor

    def test_karn_no_sample_from_retransmitted_exchange(self):
        # The first-ever exchange needs a retransmit: Karn's rule says
        # no clean sample, and with no prior estimate the one-sided
        # bound has nothing to raise — the estimator stays empty.
        sim, net, eps = make_endpoints()
        calls = []

        def second_time_lucky(msg, src, respond):
            calls.append(sim.now)
            if len(calls) == 2:
                respond(Pong(), 0)

        eps["B"].on_request_async(Ping, second_time_lucky)
        got = []
        eps["A"].request(
            "B", Ping(), size=10, on_reply=got.append,
            timeout=0.05, retries=-1,
        )
        sim.run(until=2.0)
        assert len(got) == 1
        assert eps["A"].peer_stats("B").samples == 0

    def test_ambiguous_reply_raises_estimate_under_congestion(self):
        # A clean fast sample first, then an exchange whose reply only
        # arrives after a retransmit: the since-first-transmit bound
        # must pull the estimate *up* (this is what breaks the
        # retransmit->queue->retransmit spiral under overload).
        sim, net, eps = make_endpoints()
        calls = []

        def handler(msg, src, respond):
            if msg.n == 0:
                respond(Pong(), 0)
            else:
                calls.append(sim.now)
                if len(calls) == 2:
                    respond(Pong(), 0)

        eps["B"].on_request_async(Ping, handler)
        got = []
        eps["A"].request("B", Ping(0), size=10, on_reply=got.append)
        sim.run(until=1.0)
        base = eps["A"].peer_stats("B")
        assert base.samples == 1
        eps["A"].request(
            "B", Ping(1), size=10, on_reply=got.append,
            timeout=0.05, retries=-1,
        )
        sim.run(until=2.0)
        st = eps["A"].peer_stats("B")
        assert len(got) == 2
        assert st.samples == 2
        assert st.ewma > base.ewma

    def test_ambiguous_reply_never_lowers_estimate(self):
        # Seed a *slow* clean estimate, then a retransmitted exchange
        # that completes quickly: the ambiguous bound may only raise,
        # so the slow estimate must survive untouched.
        sim, net, eps = make_endpoints()
        calls = []

        def handler(msg, src, respond):
            if msg.n == 0:
                sim.call_after(0.5, lambda: respond(Pong(), 0))
            else:
                calls.append(sim.now)
                if len(calls) == 2:
                    respond(Pong(), 0)

        eps["B"].on_request_async(Ping, handler)
        got = []
        eps["A"].request(
            "B", Ping(0), size=10, on_reply=got.append, timeout=2.0,
        )
        sim.run(until=3.0)
        base = eps["A"].peer_stats("B")
        assert base.samples == 1
        assert base.ewma == pytest.approx(0.502, rel=0.05)
        eps["A"].request(
            "B", Ping(1), size=10, on_reply=got.append,
            timeout=0.05, retries=-1,
        )
        sim.run(until=5.0)
        st = eps["A"].peer_stats("B")
        assert len(got) == 2
        assert st.samples == 1  # fast ambiguous bound discarded
        assert st.ewma == base.ewma

    def test_adaptive_request_uses_derived_rto_not_fallback(self):
        # After learning a ~0.5s RTT, an adaptive request to a silent
        # peer must wait ewma + 4*dev (~1.5s), not the 0.05s fallback.
        sim, net, eps = make_endpoints()

        def handler(msg, src, respond):
            if msg.n == 0:
                sim.call_after(0.5, lambda: respond(Pong(), 0))
            # n != 0: silence.

        eps["B"].on_request_async(Ping, handler)
        got = []
        eps["A"].request(
            "B", Ping(0), size=10, on_reply=got.append, timeout=2.0,
        )
        sim.run(until=3.0)
        expected = eps["A"].rto("B", 0.05)
        assert expected > 1.0
        start = sim.now
        timeouts = []
        eps["A"].request(
            "B", Ping(1), size=10,
            on_reply=lambda r: pytest.fail("peer is silent"),
            timeout=0.05, retries=0, adaptive=True,
            on_timeout=lambda: timeouts.append(sim.now - start),
        )
        sim.run(until=start + 10.0)
        assert timeouts == [pytest.approx(expected, rel=1e-6)]

    def test_adaptive_backoff_doubles_per_retransmit(self):
        # No samples yet: the fallback seeds the first interval, then
        # each retransmission doubles it (0.1 + 0.2 + 0.4).
        sim, net, eps = make_endpoints()
        timeouts = []
        eps["A"].request(
            "B", Ping(), size=0,
            on_reply=lambda r: pytest.fail("no handler registered"),
            timeout=0.1, retries=2, adaptive=True,
            on_timeout=lambda: timeouts.append(sim.now),
        )
        sim.run()
        assert timeouts == [pytest.approx(0.7, abs=1e-6)]

    def test_timeouts_adapted_counts_material_moves(self):
        # A fast sample then a much slower one moves the derived RTO by
        # far more than 25% — the adaptation counter must tick.
        sim, net, eps = make_endpoints()

        def handler(msg, src, respond):
            delay = 0.0 if msg.n == 0 else 0.3
            sim.call_after(delay, lambda: respond(Pong(), 0))

        eps["B"].on_request_async(Ping, handler)
        got = []
        eps["A"].request(
            "B", Ping(0), size=10, on_reply=got.append, timeout=2.0,
        )
        sim.run(until=1.0)
        assert eps["A"].timeouts_adapted == 0
        eps["A"].request(
            "B", Ping(1), size=10, on_reply=got.append, timeout=2.0,
        )
        sim.run(until=2.0)
        assert len(got) == 2
        assert eps["A"].timeouts_adapted == 1


class TestStoredRtoIsTheDerivedRto:
    """``_transmit`` arms an adaptive request's timer from the stored
    ``PeerStats.rto`` instead of deriving ``clamp(ewma + k*dev)`` again.
    That is only sound while the stored value *is* what ``rto()``
    derives: every sample refreshes it, and the clamps never change."""

    @given(
        st.lists(st.floats(0.0, 1.5), min_size=1, max_size=12),
        st.sampled_from([0.0, 0.02, 0.3]),
        st.sampled_from([0.4, 2.0]),
        st.sampled_from([0.0, 1.0, 4.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_after_any_samples(self, delays, floor, ceil, k):
        sim, net, eps = make_endpoints(rto_floor=floor, rto_ceil=ceil, rto_k=k)
        a = eps["A"]

        def handler(msg, src, respond):
            if msg.n >= 0:  # n < 0: silence
                sim.call_after(delays[msg.n], lambda: respond(Pong(), 0))

        eps["B"].on_request_async(Ping, handler)
        for i in range(len(delays)):
            # 0.4 s static timeout: slow replies come back after a
            # retransmit, i.e. as ambiguous (one-sided) samples.
            a.request("B", Ping(i), 10, on_reply=lambda r: None, timeout=0.4)
            sim.run(until=sim.now + 5.0)
            stats = a.peer_stats("B")
            # No sample yet (a first exchange that was retransmitted
            # yields none): rto() is the caller's fallback.
            want = stats.rto if stats.samples else 9.9
            assert a.rto("B", 9.9).hex() == want.hex()
        fired = []
        start = sim.now
        a.request("B", Ping(-1), 10, on_reply=lambda r: None, timeout=9.9,
                  retries=0, adaptive=True,
                  on_timeout=lambda: fired.append(sim.now))
        sim.run(until=start + 10.0)
        assert fired == [start + a.rto("B", 9.9)]

    def test_clamps_are_assigned_only_at_construction(self):
        assigned = [
            (path.name, line.strip())
            for path in sorted(Path(repro.__file__).parent.rglob("*.py"))
            for line in path.read_text().splitlines()
            if re.search(r"\.rto_(floor|ceil|k)\s*=(?!=)", line)
        ]
        assert assigned == [
            ("endpoint.py", "self.rto_floor = rto_floor"),
            ("endpoint.py", "self.rto_ceil = rto_ceil"),
            ("endpoint.py", "self.rto_k = rto_k"),
        ]


class TestBatching:
    def test_batch_flushes_on_window(self):
        sim, net, eps = make_endpoints(batch_window=0.01)
        got = []
        eps["B"].on(Ping, lambda msg, src: got.append(msg.n))
        for i in range(3):
            eps["A"].send("B", Ping(i), size=100)
        # Nothing on the wire yet.
        assert net.messages_sent == 0
        sim.run()
        assert got == [0, 1, 2]
        assert net.messages_sent == 1  # one wire message for the batch

    def test_batch_flushes_on_max(self):
        sim, net, eps = make_endpoints(batch_window=10.0, batch_max=2)
        got = []
        eps["B"].on(Ping, lambda msg, src: got.append(msg.n))
        eps["A"].send("B", Ping(0), size=10)
        eps["A"].send("B", Ping(1), size=10)  # hits batch_max
        sim.run(until=1.0)
        assert got == [0, 1]

    def test_single_item_batch_not_wrapped(self):
        sim, net, eps = make_endpoints(batch_window=0.01)
        seen_types = []
        orig = eps["B"]._dispatch

        def spy(payload, src):
            seen_types.append(type(payload))
            orig(payload, src)

        net.set_handler("B", lambda env: spy(env.payload, env.src))
        eps["A"].send("B", Ping(5), size=10)
        sim.run()
        assert Batch not in seen_types

    def test_flush_all(self):
        sim, net, eps = make_endpoints(batch_window=100.0)
        got = []
        eps["B"].on(Ping, lambda msg, src: got.append(msg.n))
        eps["A"].send("B", Ping(1), size=10)
        eps["A"].flush_all()
        sim.run(until=1.0)
        assert got == [1]

    def test_batch_size_is_summed(self):
        # Two 1 MB items in one batch must cost ~2 MB of serialization.
        link = LinkSpec(delay_s=0.0, bandwidth_bps=8e6)  # 1 MB/s
        sim, net, eps = make_endpoints(link, batch_window=0.001)
        got = []
        eps["B"].on(Ping, lambda msg, src: got.append(sim.now))
        eps["A"].send("B", Ping(0), size=1_000_000)
        eps["A"].send("B", Ping(1), size=1_000_000)
        sim.run()
        # ~2s egress + ~2s ingress serialization.
        assert got[-1] == pytest.approx(4.0, rel=0.01)
