"""Python-level calls per committed write: the message hop's regression pin.

Wall-clock speed is too noisy to gate in CI; the number of Python
function calls the interpreter makes for one replicated write is not — it
is a count, it repeats exactly (independent of ``PYTHONHASHSEED``) and it
is what the small-write regime pays for: the profile there is flat, so
cost ≈ calls. DESIGN.md §4 "Message-hop rules" lists what keeps it low
(``sim.now`` is an attribute, derived constants are stored where they are
built, a probability block is entered only when a probability is
non-zero). 734 before those rules, 535 after, on CPython 3.11; 3.12
inlines comprehensions, which can only lower it.
"""

import sys
from collections import Counter

import pytest

from repro.core import rs_paxos
from repro.kvstore import build_cluster
from repro.workload import ClosedLoopDriver, small_write

BUDGET = 600


def calls_per_write(seed: int) -> tuple[float, Counter]:
    """The ``drive_cluster``-shaped run of ``test_determinism.py`` (5
    nodes, 4 closed-loop clients, 2 groups): elect, warm 0.2 sim-s, then
    count ``call`` events over 0.5 sim-s and divide by the writes
    committed in that window."""
    c = build_cluster(rs_paxos(5, 1), seed=seed, num_clients=4, num_groups=2)
    c.start()
    c.run(until=1.0)
    for i, cl in enumerate(c.clients):
        ClosedLoopDriver(c.sim, cl, small_write(num_keys=10), stream=f"d{i}").start()
    c.run(until=1.2)
    writes = c.metrics.throughput("write")
    before = writes.count
    calls: Counter = Counter()

    def profiler(frame, event, arg):
        if event == "call":  # Python frames only; C builtins are "c_call"
            calls[frame.f_code] += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        c.run(until=1.7)
    finally:
        sys.setprofile(previous)
    committed = writes.count - before
    assert committed > 100, "the measured window must carry real load"
    return sum(calls.values()) / committed, calls


@pytest.mark.parametrize("seed", [17, 3])
def test_python_calls_per_committed_write(seed):
    per_write, calls = calls_per_write(seed)
    top = "\n".join(
        f"  {n:7d}  {getattr(code, 'co_qualname', code.co_name)}"  # 3.11+
        f"  ({code.co_filename}:{code.co_firstlineno})"
        for code, n in calls.most_common(15)
    )
    assert per_write <= BUDGET, (
        f"{per_write:.1f} Python calls per committed write (budget {BUDGET});"
        f" most called:\n{top}"
    )
