"""``Admission`` on its own: plain callables and a fake clock, no cluster.

The cluster-level behaviour (weighted throughput under saturation, a
quiet tenant isolated from a flood, shed requests retried to completion)
is in ``test_overload.py`` / ``test_fair_queueing.py``; these pin the
scheduler's own rules.
"""

from types import SimpleNamespace

import pytest

from repro.kvstore import Admission


class Rig:
    """An Admission whose admitted bodies are parked for the test to
    answer: ``started`` lists (tag, slot) in start order."""

    def __init__(self, budget=2, queue_bound=8, weights=None):
        self.clock = SimpleNamespace(now=0.0)
        self.adm = Admission(self.clock, budget, queue_bound, weights or {})
        self.started: list[tuple[str, object]] = []
        self.replies: list[tuple[str, object]] = []

    def admit(self, tag: str, tenant: str = "") -> bool:
        return self.adm.admit(
            lambda reply, nbytes=0: self.replies.append((tag, reply)),
            lambda slot: self.started.append((tag, slot)),
            tenant,
        )

    def reply(self, index: int = 0) -> str:
        """Answer the ``index``-th still-running body; returns its tag."""
        tag, slot = self.started.pop(index)
        slot("ok")
        return tag

    def observe_service_time(self, seconds: float) -> None:
        """Run one request through an idle pipeline in ``seconds``."""
        self.admit("probe")
        self.clock.now += seconds
        self.reply(len(self.started) - 1)


class TestPipeline:
    def test_starts_immediately_while_under_budget(self):
        rig = Rig(budget=2)
        assert rig.admit("a") and rig.admit("b")
        assert [t for t, _ in rig.started] == ["a", "b"]
        assert rig.adm.in_flight == 2 and rig.adm.queue_depths() == {}

    def test_first_reply_releases_the_slot_once(self):
        rig = Rig(budget=1)
        rig.admit("a")
        rig.admit("b")                      # parked behind a
        _, slot = rig.started[0]
        slot("ok")
        slot("again")                       # every reply is passed on ...
        assert rig.replies == [("a", "ok"), ("a", "again")]
        assert rig.adm.in_flight == 1       # ... but only b took the slot
        assert [t for t, _ in rig.started] == ["a", "b"]

    def test_shed_only_when_that_tenants_queue_is_at_its_bound(self):
        rig = Rig(budget=1, queue_bound=2)
        rig.admit("run")
        assert rig.admit("a1", "a") and rig.admit("a2", "a")
        assert not rig.admit("a3", "a")     # a's queue is full: shed
        assert rig.admit("b1", "b")         # b's is not
        assert rig.adm.shed == 1 and rig.adm.shed_by_tenant == {"a": 1}
        assert rig.adm.queue_depths() == {"a": 2, "b": 1}
        assert rig.replies == []            # the caller answers Busy

    def test_queue_bound_zero_sheds_whatever_cannot_start(self):
        rig = Rig(budget=1, queue_bound=0)
        assert rig.admit("run")
        assert not rig.admit("x")
        assert rig.adm.shed_by_tenant == {"": 1}


class TestDeficitRoundRobin:
    def backlog(self, rig, per_tenant=40):
        rig.admit("run")                    # occupy the pipeline of one
        for i in range(per_tenant):
            rig.admit(f"a{i}", "a")
            rig.admit(f"b{i}", "b")

    def drain(self, rig, n):
        order = []
        for _ in range(n):
            rig.reply()
            order.append(rig.started[0][0][0])
        return order

    def test_weights_dequeue_three_to_one_under_standing_backlog(self):
        rig = Rig(budget=1, queue_bound=100, weights={"a": 3.0})
        self.backlog(rig)
        order = self.drain(rig, 40)
        assert order.count("a") == 30 and order.count("b") == 10
        assert "".join(order[:8]) == "aaabaaab"

    def test_paused_visit_resumes_with_its_remaining_deficit(self):
        """The pipeline of one pauses a's visit after every dequeue.
        Re-granting the quantum on each resume would hand a every freed
        slot forever; b must get its turn after a's three."""
        rig = Rig(budget=1, queue_bound=100, weights={"a": 3.0})
        self.backlog(rig)
        assert self.drain(rig, 4) == ["a", "a", "a", "b"]

    def test_fractional_weights_accumulate_across_visits(self):
        rig = Rig(budget=1, queue_bound=100, weights={"a": 1.0, "b": 0.5})
        self.backlog(rig)
        order = self.drain(rig, 30)
        assert order.count("a") == 20 and order.count("b") == 10

    def test_idle_tenant_forfeits_credit(self):
        rig = Rig(budget=1, queue_bound=100, weights={"a": 5.0})
        rig.admit("run")
        rig.admit("a0", "a")                # a's whole backlog: one request
        for i in range(10):
            rig.admit(f"b{i}", "b")
        assert self.drain(rig, 3) == ["a", "b", "b"]
        # a went idle with 4 units of deficit left. Coming back, it gets
        # one fresh quantum of 5 — not 9.
        for i in range(20):
            rig.admit(f"a{i + 1}", "a")
        order = self.drain(rig, 7)
        assert order == ["a"] * 5 + ["b", "a"]

    def test_single_tenant_is_fifo(self):
        rig = Rig(budget=2, queue_bound=100)
        for i in range(6):
            rig.admit(str(i))
        started = [t for t, _ in rig.started]
        while rig.started:
            rig.reply()
            started += [t for t, _ in rig.started if t not in started]
        assert started == ["0", "1", "2", "3", "4", "5"]


class TestFlush:
    def test_returns_queued_responds_in_queue_order_and_resets(self):
        rig = Rig(budget=1)
        rig.admit("run")
        rig.admit("a1", "a")
        rig.admit("b1", "b")
        rig.admit("a2", "a")
        queued = rig.adm.flush()
        for respond in queued:
            respond("not-ready")
        assert rig.replies == [("a1", "not-ready"), ("a2", "not-ready"),
                               ("b1", "not-ready")]
        assert rig.adm.in_flight == 0
        assert rig.adm.queue_depths() == {"a": 0, "b": 0}

    def test_release_under_a_pre_flush_epoch_is_a_noop(self):
        rig = Rig(budget=1)
        rig.admit("old")
        rig.adm.flush()
        rig.admit("new")
        assert rig.adm.in_flight == 1
        rig.clock.now = 5.0
        rig.reply(0)                        # "old" finally answers
        assert rig.replies == [("old", "ok")]
        assert rig.adm.in_flight == 1       # "new" still holds its slot
        assert rig.adm.service_time == 0.0  # and the EWMA saw nothing

    def test_shed_counts_survive_a_flush(self):
        rig = Rig(budget=1, queue_bound=0)
        rig.admit("run")
        rig.admit("x", "t")
        rig.adm.flush()
        assert rig.adm.shed == 1 and rig.adm.shed_by_tenant == {"t": 1}


class TestRetryAfter:
    def test_no_sample_yet_gives_the_floor(self):
        assert Rig().adm.retry_after("t") == 0.02

    def test_empty_backlog_is_the_per_command_estimate(self):
        rig = Rig(budget=32)
        rig.observe_service_time(0.04)
        assert rig.adm.service_time == pytest.approx(0.04)
        assert rig.adm.retry_after() == pytest.approx(0.04)

    def test_batched_reply_feeds_span_over_batch_size(self):
        rig = Rig()
        rig.admit("x")
        rig.started[0][1].svc_divisor = 4   # what the batcher sets
        rig.clock.now = 0.2
        rig.reply()
        assert rig.adm.service_time == pytest.approx(0.05)

    def test_grows_with_backlog(self):
        rig = Rig(budget=1, queue_bound=100)
        rig.observe_service_time(0.05)
        rig.admit("run")
        empty = rig.adm.retry_after("t")
        for i in range(64):
            rig.admit(f"t{i}", "t")
        assert rig.adm.retry_after("t") > empty

    @pytest.mark.parametrize("seconds", [1e-9, 100.0])
    def test_clamped_to_sane_range(self, seconds):
        rig = Rig(budget=1, queue_bound=100)
        rig.observe_service_time(seconds)
        rig.admit("run")
        for depth in range(40):
            assert 0.02 <= rig.adm.retry_after("t") <= 1.0
            rig.admit(f"t{depth}", "t")

    def test_heavy_backlog_waits_longer_than_light(self):
        rig = Rig(budget=4, queue_bound=100)
        rig.observe_service_time(0.05)
        for i in range(4):
            rig.admit(f"run{i}")
        for i in range(32):
            rig.admit(f"h{i}", "heavy")
        rig.admit("l0", "light")
        assert rig.adm.retry_after("heavy") > rig.adm.retry_after("light")

    def test_higher_weight_means_shorter_retry(self):
        rig = Rig(budget=8, queue_bound=100,
                  weights={"big": 8.0, "small": 1.0})
        rig.observe_service_time(0.05)
        for i in range(8):
            rig.admit(f"run{i}")
        for i in range(32):
            rig.admit(f"b{i}", "big")
            rig.admit(f"s{i}", "small")
        assert rig.adm.retry_after("big") < rig.adm.retry_after("small")
