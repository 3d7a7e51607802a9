"""Property-based tests (hypothesis) for token-scoped link cuts, and
for the NIC serialization time ``Network.send`` computes inline.

The network's blocking state is a multiset: each directed pair is cut
while *any* episode token claims it. We replay an arbitrary sequence of
partition / sever / flap-pulse / scoped-heal / heal-all operations
against both the real :class:`~repro.net.Network` and a brute-force
model (a plain ``dict[pair, set[token]]``) and require the connectivity
state to match exactly — in particular, a scoped heal must never
resurrect a link severed by a *different* still-active episode.
"""

from math import inf

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import HEADER_BYTES, LinkSpec, build_network
from repro.sim import Simulator

HOSTS = ["A", "B", "C", "D"]
TOKENS = ["t0", "t1", "t2"]


def groups(draw):
    """Two disjoint, non-empty host groups."""
    split = draw(st.integers(min_value=1, max_value=len(HOSTS) - 1))
    perm = draw(st.permutations(HOSTS))
    return list(perm[:split]), list(perm[split:])


@st.composite
def operation(draw):
    kind = draw(st.sampled_from(
        ["partition", "sever", "flap-cut", "flap-heal", "heal", "heal-all"]
    ))
    if kind == "heal-all":
        return ("heal-all",)
    token = draw(st.sampled_from(TOKENS))
    if kind == "heal" or kind == "flap-heal":
        # A flap's "open" pulse is exactly a scoped heal of its token.
        return ("heal", token)
    a, b = groups(draw)
    return (kind, a, b, token)


class Model:
    """Brute force: pair -> set of claiming tokens."""

    def __init__(self):
        self.claims: dict[tuple[str, str], set[str]] = {}

    def cut(self, a: str, b: str, token: str) -> None:
        self.claims.setdefault((a, b), set()).add(token)

    def apply(self, op) -> None:
        if op[0] == "heal-all":
            self.claims.clear()
        elif op[0] == "heal":
            for pair in list(self.claims):
                self.claims[pair].discard(op[1])
                if not self.claims[pair]:
                    del self.claims[pair]
        elif op[0] == "sever":
            _, a, b, token = op
            for x in a:
                for y in b:
                    self.cut(x, y, token)
        else:  # partition or flap-cut (both symmetric)
            _, a, b, token = op
            for x in a:
                for y in b:
                    self.cut(x, y, token)
                    self.cut(y, x, token)

    def blocked(self, src: str, dst: str) -> bool:
        return (src, dst) in self.claims


@given(st.lists(operation(), max_size=40))
@settings(max_examples=300, deadline=None)
def test_connectivity_matches_brute_force_model(ops):
    sim = Simulator(seed=0)
    net = build_network(sim, HOSTS, LinkSpec(delay_s=0.001))
    model = Model()
    for op in ops:
        if op[0] in ("sever",):
            net.sever_group(op[1], op[2], op[3])
        elif op[0] in ("partition", "flap-cut"):
            net.partition(op[1], op[2], op[3])
        elif op[0] == "heal":
            net.heal(op[1])
        else:
            net.heal()
        model.apply(op)
        for src in HOSTS:
            for dst in HOSTS:
                if src != dst:
                    assert net.is_blocked(src, dst) == model.blocked(src, dst)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_scoped_heal_never_resurrects_other_episodes(data):
    """While episode t0 is still active, any sequence of *other*
    episodes' cuts and heals leaves every t0-severed link cut."""
    sim = Simulator(seed=0)
    net = build_network(sim, HOSTS, LinkSpec(delay_s=0.001))
    a, b = groups(data.draw)
    net.partition(a, b, "t0")
    severed = [(x, y) for x in a for y in b] + [(y, x) for x in a for y in b]
    others = data.draw(st.lists(operation(), max_size=20))
    for op in others:
        if op[0] == "heal-all" or (len(op) > 1 and op[1] == "t0") \
                or (len(op) > 3 and op[3] == "t0"):
            continue  # only *different* episodes act
        if op[0] == "sever":
            net.sever_group(op[1], op[2], op[3])
        elif op[0] in ("partition", "flap-cut"):
            net.partition(op[1], op[2], op[3])
        elif op[0] == "heal":
            net.heal(op[1])
        for src, dst in severed:
            assert net.is_blocked(src, dst), (
                f"{op} resurrected {src}->{dst} severed by active t0")
    net.heal("t0")


bandwidths = st.one_of(
    st.sampled_from([inf, 1e9, 500e6, 1e6, 1.0]),
    st.floats(min_value=1e-3, max_value=1e15, allow_nan=False),
)


@given(st.integers(0, 1 << 31), bandwidths, st.sampled_from([1.0, 2.5, 7.0]))
@settings(max_examples=300, deadline=None)
def test_inlined_serialization_time_is_the_public_one(size, bps, slowdown):
    """``Network.send`` spells ``LinkSpec.serialization_time`` out on its
    per-message path (and skips the NIC-slowdown multiply while no host
    is slowed). What the NIC queues are charged must stay that method's
    result to the last bit, infinite bandwidth included."""
    spec = LinkSpec(delay_s=0.0, bandwidth_bps=bps)
    ser = spec.serialization_time(size + HEADER_BYTES)

    def one_message(slow_dst: bool) -> tuple[float, float]:
        sim = Simulator(seed=0)
        net = build_network(sim, ["A", "B"], spec)
        if slow_dst:
            net.set_nic_slowdown("B", slowdown)
        delivered: list[float] = []
        net.set_handler("B", lambda env: delivered.append(sim.now))
        net.send("A", "B", None, size)
        egress = net.hosts["A"].egress.backlog  # at t=0: the job itself
        sim.run()
        return egress, delivered[0]

    egress, at = one_message(slow_dst=False)
    assert egress.hex() == ser.hex()
    assert at.hex() == ((ser + spec.delay_s) + ser).hex()
    egress, at = one_message(slow_dst=True)
    assert egress.hex() == ser.hex()  # only the receiver's NIC is slow
    assert at.hex() == ((ser + spec.delay_s) + ser * slowdown).hex()
