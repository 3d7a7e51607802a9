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

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator

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

