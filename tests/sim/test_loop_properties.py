"""Property-based tests (hypothesis) for the event kernel's contract.

Whatever the heap entry looks like inside, the scheduling calls promise:
callbacks fire in ``(time, scheduling order)``, a cancelled callback
never fires, ``pending()`` counts exactly the live entries, and the
handle a scheduling call returns keeps ``time`` / ``cancelled``
readable. Checked over arbitrary interleavings of ``call_at`` /
``call_after`` / ``call_soon`` / ``cancel`` issued both before the run
and from inside running callbacks, against a brute-force model (a plain
list sorted by ``(time, issue order)``).
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.loop import _COMPACT_MIN_DEAD

# Few distinct instants, so ties at one instant are the common case.
TIMES = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0])


@st.composite
def operation(draw):
    kind = draw(st.sampled_from(["at", "after", "soon", "cancel"]))
    if kind in ("at", "after"):
        return (kind, draw(TIMES))
    if kind == "cancel":
        return (kind, draw(st.integers(min_value=0, max_value=200)))
    return (kind, None)


#: An op issued up front, or from inside the k-th callback that fires.
script = st.lists(
    st.tuples(st.one_of(st.none(), st.integers(min_value=0, max_value=30)),
              operation()),
    max_size=60,
)


@given(script=script)
@settings(max_examples=200, deadline=None)
def test_fire_order_cancellation_and_pending(script):
    sim = Simulator()
    handles = []            # every Event returned, in issue order
    model = []              # [time, issue index, cancelled] per handle
    fired = []              # issue indices, in firing order
    silenced = set()        # cancelled while still queued: must not fire
    by_trigger: dict[int, list] = {}
    for trigger, op in script:
        by_trigger.setdefault(-1 if trigger is None else trigger, []).append(op)

    def issue(op) -> None:
        kind, arg = op
        if kind == "cancel":
            if handles:
                i = arg % len(handles)
                handles[i].cancel()
                model[i][2] = True
                if i not in fired:
                    silenced.add(i)
            return
        idx = len(handles)
        cb = lambda: on_fire(idx)
        if kind == "at":
            when = max(arg, sim.now)  # never into the past
            ev = sim.call_at(when, cb)
        elif kind == "after":
            when = sim.now + arg
            ev = sim.call_after(arg, cb)
        else:
            when = sim.now
            ev = sim.call_soon(cb)
        assert ev.time == when and not ev.cancelled
        handles.append(ev)
        model.append([when, idx, False])

    def on_fire(idx: int) -> None:
        assert sim.now == model[idx][0]
        k = len(fired)
        fired.append(idx)
        for op in by_trigger.get(k, ()):
            issue(op)

    for op in by_trigger.get(-1, ()):
        issue(op)
    live = sum(1 for m in model if not m[2])
    assert sim.pending() == live
    sim.run()

    assert fired == sorted(fired, key=lambda i: (model[i][0], i))
    assert len(set(fired)) == len(fired)
    assert silenced.isdisjoint(fired)
    for i, (when, _, cancelled) in enumerate(model):
        assert handles[i].time == when
        assert handles[i].cancelled == cancelled
        # Cancelling an event that has already fired changes nothing.
        assert (i in fired) == (i not in silenced)
    assert sim.pending() == 0
    assert sim.events_processed == len(fired)


# -- against a reference model, across partial runs and heap sweeps --------


class _Side:
    """What the script drives, twice over: the kernel and the model. A
    fired entry's ``action`` runs on the side it fired on, so the two
    stay in step only if they fire the same entries in the same order."""

    def act(self, action) -> None:
        if action is None:
            return
        if action[0] == "cancel":
            self.cancel(action[1])
        else:
            self.schedule(self.now + action[1])


class KernelSide(_Side):
    def __init__(self):
        self.sim = Simulator()
        self.handles: list = []  # index == scheduling order
        self.fired: list[int] = []

    @property
    def now(self) -> float:
        return self.sim.now

    def schedule(self, when: float, action=None) -> None:
        idx = len(self.handles)
        self.handles.append(
            self.sim.call_at(when, lambda: self._fire(idx, action)))

    def _fire(self, idx: int, action) -> None:
        self.fired.append(idx)
        self.act(action)

    def cancel(self, pick: int) -> None:
        if self.handles:
            self.handles[pick % len(self.handles)].cancel()

    def run(self, until, max_events) -> None:
        self.sim.run(until=until, max_events=max_events)

    def pending(self) -> int:
        return self.sim.pending()


class ModelSide(_Side):
    """The kernel's contract done the slow obvious way: a list searched
    for its ``(when, index)`` minimum each time the next entry is
    wanted. A cancelled entry is simply deleted — the model has no
    tombstones, which pins that the kernel's are invisible."""

    def __init__(self):
        self.now = 0.0
        self.count = 0
        self.queue: list[tuple[float, int, object]] = []
        self.fired: list[int] = []

    def schedule(self, when: float, action=None) -> None:
        self.queue.append((when, self.count, action))
        self.count += 1

    def cancel(self, pick: int) -> None:
        if self.count:
            idx = pick % self.count
            self.queue = [e for e in self.queue if e[1] != idx]

    def run(self, until, max_events) -> None:
        fired = 0
        while self.queue:
            if fired == max_events:
                return  # cut short: the clock stays at the last firing
            entry = min(self.queue, key=lambda e: e[:2])
            when, idx, action = entry
            if until is not None and when > until:
                break
            self.queue.remove(entry)
            self.now = when
            fired += 1
            self.fired.append(idx)
            self.act(action)
        if until is not None and self.now < until:
            self.now = until

    def pending(self) -> int:
        return len(self.queue)


DELAYS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0])
PICK = st.integers(min_value=0, max_value=10_000)
#: What an entry does when it fires: nothing, cancel some handle (maybe
#: itself, maybe one long gone), or schedule a follow-up.
ACTION = st.one_of(
    st.none(),
    st.tuples(st.just("cancel"), PICK),
    st.tuples(st.just("after"), DELAYS),
)
STEP = st.one_of(
    st.tuples(st.just("at"), DELAYS, ACTION),
    st.tuples(st.just("after"), DELAYS, ACTION),
    st.tuples(st.just("cancel"), PICK),
    # A burst of retransmit timers: armed far ahead, all but one
    # cancelled — what makes tombstones the majority and forces sweeps.
    st.tuples(st.just("burst"), st.integers(min_value=2, max_value=150)),
    # A crowd of live entries due soon: while they outnumber a burst's
    # tombstones nothing is swept — until a run fires them, and the
    # tombstones are the majority with no cancel() left to notice.
    st.tuples(st.just("crowd"), st.integers(min_value=2, max_value=150)),
    st.tuples(st.just("step")),
    st.tuples(st.just("run"), st.one_of(st.none(), DELAYS),
              st.one_of(st.none(), st.integers(min_value=0, max_value=5))),
)


@given(steps=st.lists(STEP, max_size=40))
# A capped run that fires the last live entry with a tombstone still
# queued behind it: nothing is left to do, so the clock goes to ``until``.
@example(steps=[("at", 0.25, None), ("at", 3.0, None), ("cancel", 1),
                ("run", 1.0, 1)])
# Firing, not cancelling, is what leaves the tombstones in the majority,
# parked behind a live entry the run does not reach.
@example(steps=[("at", 3.0, None), ("crowd", 120), ("burst", 100),
                ("run", 1.0, None)])
@settings(max_examples=200, deadline=None)
def test_partial_runs_and_sweeps_match_the_model(steps):
    kernel, model = KernelSide(), ModelSide()
    sim = kernel.sim

    def check() -> None:
        assert kernel.fired == model.fired
        assert sim.now == model.now
        assert sim.pending() == model.pending()
        assert sim._dead == sum(1 for e in sim._heap if e[2].cancelled)
        # Tombstones never outnumber live entries by more than the
        # constant below which a sweep is not worth its cost.
        assert len(sim._heap) <= 2 * sim.pending() + _COMPACT_MIN_DEAD

    for step in steps:
        kind = step[0]
        for side in (kernel, model):
            if kind == "at":
                side.schedule(max(step[1], side.now), step[2])
            elif kind == "after":
                side.schedule(side.now + step[1], step[2])
            elif kind == "cancel":
                side.cancel(step[1])
            elif kind == "burst":
                first = len(kernel.handles) if side is kernel else model.count
                for _ in range(step[1]):
                    side.schedule(side.now + 10.0)
                for idx in range(first, first + step[1] - 1):
                    side.cancel(idx)
            elif kind == "crowd":
                for i in range(step[1]):
                    side.schedule(side.now + 0.125 * (i % 4))
            elif kind == "step":
                side.run(None, 1)
            else:
                until = None if step[1] is None else side.now + step[1]
                side.run(until, step[2])
        check()
    for side in (kernel, model):
        side.run(None, None)
    check()
    assert sim.pending() == 0 and len(sim._heap) == 0
