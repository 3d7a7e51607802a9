"""``Rebuild`` on its own: a fake clock, recorded ``request`` calls and
recorded owner callbacks, no cluster, no simulator.

What a rebuild does end to end (wipe, rejoin, snapshot transfer under
load, the observer gate) is in ``test_rebuild.py`` and the wipe-heavy
golden; these pin the component's own rules — the ranked catch-up
fan-out, paging, a stalled donor, a crash mid-transfer, ``reset`` and
the finish line — and the donor side's page builders.
"""

from types import SimpleNamespace

from repro.kvstore.messages import (
    KV_META, CatchUp, CatchUpReply, FetchSnapshot, SnapshotChunk,
)
from repro.kvstore.rebuild import (
    CATCH_UP_TIMEOUT, MISSING_REPOLL, SNAPSHOT_TIMEOUT, STALL_PAUSE, TICK,
    Rebuild, catch_up_page, snapshot_page,
)

from .test_sharefetch import Clock

PEERS = ["P1", "P2", "P4", "P5"]


class Rig:
    """A Rebuild over a fake endpoint and a fake owner. ``sent`` lists
    every request as a namespace (host, body, kw, on_reply,
    on_timeout); ``cursor`` is the owner's apply cursor per group;
    ``holes`` the (group, instance) pairs it knows commit-only."""

    def __init__(self, groups=2):
        self.clock = Clock()
        self.sent: list[SimpleNamespace] = []
        self.load: dict[str, int] = {}
        self.cursor = [0] * groups
        self.holes: set[tuple[int, int]] = set()
        self.entries: list[CatchUpReply] = []
        self.pages: list[SnapshotChunk] = []
        self.adopted: list[SnapshotChunk] = []
        self.rebuilt: list[int] = []
        self.counts: dict[str, int] = {}
        self.traces: list[str] = []
        self.rebuild = Rebuild(
            self.clock, sources=self, request=self.request,
            cursor=self.cursor.__getitem__,
            unknown=lambda g, i: (g, i) in self.holes,
            install_entries=self.entries.append,
            install_page=self.pages.append, adopt=self.adopt,
            on_rebuilt=self.rebuilt.append, count=self.count,
            trace=self.traces.append,
        )

    # -- the fake sources (ShareFetch's ranking calls) --------------------

    def ranked(self):
        return list(PEERS)

    def started(self, host):
        self.load[host] = self.load.get(host, 0) + 1

    def finished(self, host):
        self.load[host] -= 1

    # -- the fake endpoint and owner --------------------------------------

    def request(self, host, body, size, *, on_reply, on_timeout, **kw):
        self.sent.append(SimpleNamespace(host=host, body=body, size=size,
                                         kw=kw, on_reply=on_reply,
                                         on_timeout=on_timeout))
        return len(self.sent) - 1

    def adopt(self, first):
        self.adopted.append(first)
        self.cursor[first.group] = max(self.cursor[first.group], first.floor)

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    # -- helpers ----------------------------------------------------------

    def asked(self, kind=CatchUp):
        return [(c.host, c.body) for c in self.sent
                if isinstance(c.body, kind)]

    def last(self, kind):
        return next(c for c in reversed(self.sent) if isinstance(c.body, kind))


def test_catch_up_asks_the_two_best_ranked_and_widens_on_timeout():
    rig = Rig()
    rig.cursor[1] = 7
    rig.rebuild.catch_up(1)
    assert rig.asked() == [("P1", CatchUp(group=1, from_instance=7)),
                           ("P2", CatchUp(group=1, from_instance=7))]
    assert rig.sent[0].kw == dict(timeout=CATCH_UP_TIMEOUT, retries=3,
                                  adaptive=True)
    assert rig.load == {"P1": 1, "P2": 1}
    rig.sent[0].on_timeout()
    assert [h for h, _ in rig.asked()] == ["P1", "P2", "P4"]
    assert rig.load == {"P1": 0, "P2": 1, "P4": 1}
    rig.sent[1].on_reply(CatchUpReply(group=1))
    assert rig.load == {"P1": 0, "P2": 0, "P4": 1}
    assert rig.entries == [CatchUpReply(group=1)]


def test_catch_up_pages_follow_next_from_on_the_same_host():
    rig = Rig()
    rig.rebuild.catch_up(0)
    rig.sent[1].on_reply(CatchUpReply(group=0, next_from=64))
    assert rig.asked()[-1] == ("P2", CatchUp(group=0, from_instance=64))
    rig.sent[-1].on_timeout()            # a next page does not widen
    assert len(rig.asked()) == 3


def start_transfer(rig, host="P1", floor=40):
    """A catch-up reply whose floor is above the cursor starts a
    snapshot transfer from that peer."""
    rig.rebuild.on_catch_up(CatchUpReply(group=0, floor=floor), host)
    assert rig.rebuild.streaming == {0: host}
    assert rig.last(FetchSnapshot).body == FetchSnapshot(group=0)


def test_snapshot_pages_then_adopts_the_first_page_then_pulls_the_tail():
    rig = Rig()
    rig.rebuild.pending = {0}
    start_transfer(rig)
    assert rig.last(FetchSnapshot).kw["timeout"] == SNAPSHOT_TIMEOUT
    first = SnapshotChunk(group=0, first=True, floor=40, next_cursor="k3")
    rig.last(FetchSnapshot).on_reply(first)
    assert rig.last(FetchSnapshot).body == FetchSnapshot(group=0, cursor="k3")
    middle = SnapshotChunk(group=0, next_cursor="k7")
    rig.last(FetchSnapshot).on_reply(middle)
    final = SnapshotChunk(group=0)
    rig.last(FetchSnapshot).on_reply(final)
    assert rig.pages == [first, middle, final]
    assert rig.adopted == [first]
    assert rig.rebuild.streaming == {}
    assert rig.asked()[-1] == ("P1", CatchUp(group=0, from_instance=40))
    assert rig.counts["rebuild.snapshot_transfers"] == 1
    # The tail pass ends the rebuild: nothing further, floor reached.
    rig.last(CatchUp).on_reply(CatchUpReply(group=0, floor=40))
    assert rig.rebuilt == [0] and rig.rebuild.pending == set()


def test_one_transfer_per_group_at_a_time():
    rig = Rig()
    start_transfer(rig, "P1")
    rig.rebuild.on_catch_up(CatchUpReply(group=0, floor=50), "P2")
    assert len(rig.asked(FetchSnapshot)) == 1
    assert rig.rebuild.streaming == {0: "P1"}


def test_stalled_donor_restarts_through_catch_up_after_a_pause():
    rig = Rig()
    start_transfer(rig, "P4")
    rig.last(FetchSnapshot).on_reply(
        SnapshotChunk(group=0, first=True, floor=40, next_cursor="k"))
    late = rig.last(FetchSnapshot)
    late.on_timeout()
    assert rig.rebuild.streaming == {}
    asked = len(rig.asked())
    assert rig.clock.pending() == [STALL_PAUSE]
    rig.clock.advance(STALL_PAUSE)
    assert [h for h, _ in rig.asked()[asked:]] == ["P1", "P2"]
    # The stalled page, answered after all, belongs to no transfer.
    late.on_reply(SnapshotChunk(group=0))
    assert rig.adopted == [] and len(rig.pages) == 1


def test_crash_mid_transfer_drops_the_old_incarnations_pages():
    rig = Rig()
    rig.rebuild.pending = {0, 1}
    rig.rebuild.begin(2)
    start_transfer(rig, "P1")
    rig.last(FetchSnapshot).on_reply(
        SnapshotChunk(group=0, first=True, floor=40, next_cursor="k"))
    before_crash = rig.last(FetchSnapshot)
    rig.rebuild.reset()
    assert rig.rebuild.streaming == {}
    assert rig.rebuild.pending == {0, 1}        # still amnesiac
    assert rig.clock.pending() == []            # the tick is cancelled
    # The endpoint's reset retires the page request too; were its reply
    # delivered anyway, it would belong to no transfer.
    before_crash.on_reply(SnapshotChunk(group=0))
    assert rig.adopted == [] and len(rig.pages) == 1


def test_a_page_from_another_host_is_dropped():
    rig = Rig()
    start_transfer(rig, "P1")
    rig.rebuild.on_page(SnapshotChunk(group=0, first=True, floor=9), "P2")
    assert rig.pages == [] and rig.rebuild.streaming == {0: "P1"}


def test_reset_keeps_pending_and_begin_rearms_the_tick():
    rig = Rig()
    rig.rebuild.pending = {1}
    rig.rebuild.begin(2)
    assert [b.group for _, b in rig.asked()] == [0, 0, 1, 1]
    assert rig.clock.pending() == [TICK]
    rig.clock.advance(TICK)                     # re-probes group 1 only
    assert [b.group for _, b in rig.asked()[4:]] == [1, 1]
    rig.rebuild.reset()
    assert rig.rebuild.pending == {1} and rig.clock.pending() == []
    rig.rebuild.begin(2)
    assert rig.clock.pending() == [2 * TICK]


def test_the_tick_skips_a_group_whose_snapshot_is_streaming():
    rig = Rig()
    rig.rebuild.pending = {0}
    rig.rebuild.begin(1)
    start_transfer(rig)
    asked = len(rig.asked())
    rig.clock.advance(TICK)
    assert len(rig.asked()) == asked
    assert rig.clock.pending() == [2 * TICK]


def test_finish_line():
    rig = Rig()
    rig.rebuild.pending = {0, 1}
    rig.cursor[:] = [10, 10]
    # More to pull: not done.
    rig.rebuild.on_catch_up(CatchUpReply(group=0, next_from=5), "P1")
    # A floor above the cursor: a snapshot starts, so not done either.
    rig.rebuild.on_catch_up(CatchUpReply(group=0, floor=11), "P1")
    assert rig.rebuilt == []
    # Done with the snapshot in flight: still not done.
    rig.rebuild.finish_line(0, 0)
    assert rig.rebuilt == [] and rig.rebuild.pending == {0, 1}
    # Group 1: a pass ended, nothing further, floor reached.
    rig.rebuild.on_catch_up(CatchUpReply(group=1, floor=10), "P2")
    assert rig.rebuilt == [1] and rig.rebuild.pending == {0}
    assert rig.traces[-1] == "rebuilt g1 (cursor=10)"
    # Only once per group.
    rig.rebuild.finish_line(1, 0)
    assert rig.rebuilt == [1]
    assert rig.counts["rebuild.catchup_bytes"] == 3 * KV_META


def test_missing_value_is_polled_off_the_learn_path_until_it_arrives():
    rig = Rig()
    rig.holes.add((0, 3))
    rig.rebuild.missing(0, 3)
    rig.rebuild.missing(0, 3)                   # one poll per instance
    assert rig.sent == []                       # deferred, not inline
    rig.clock.advance(0.0)
    assert rig.asked() == [("P1", CatchUp(group=0, from_instance=3)),
                           ("P2", CatchUp(group=0, from_instance=3))]
    rig.clock.advance(MISSING_REPOLL)
    assert len(rig.asked()) == 4
    rig.holes.clear()                           # some peer supplied it
    rig.clock.advance(MISSING_REPOLL)
    assert len(rig.asked()) == 4 and rig.clock.pending() == []
    rig.holes.add((0, 3))
    rig.rebuild.missing(0, 3)                   # may be polled again
    rig.clock.advance(0.0)
    assert len(rig.asked()) == 6


def test_missing_value_asks_a_named_source_first_on_every_poll():
    """A leader that skipped to a promiser's retirement floor names that
    promiser: it holds the instances or a checkpoint past them, which
    the best-ranked peers may not."""
    rig = Rig()
    rig.holes.add((1, 5))
    rig.rebuild.missing(1, 5, "P4")
    rig.clock.advance(0.0)
    assert rig.asked() == [("P4", CatchUp(group=1, from_instance=5)),
                           ("P1", CatchUp(group=1, from_instance=5))]
    rig.clock.advance(MISSING_REPOLL)
    assert [h for h, _ in rig.asked()[2:]] == ["P4", "P1"]


def catch_up_rec(value_id, share=None, value=None):
    return SimpleNamespace(value_id=value_id, share=share, value=value)


def test_catch_up_page_budget_floor_and_recode():
    share = SimpleNamespace(size=100, meta="m", value_size=300)
    chosen = {i: catch_up_rec(f"v{i}", share=share) for i in (2, 3, 5, 6, 7)}
    msg = CatchUp(group=1, from_instance=0, max_entries=3)
    page = catch_up_page(msg, 3, chosen, recode=lambda inst: None)
    assert [e.instance for e in page.entries] == [3, 5, 6]
    assert page.next_from == 7 and page.floor == 3 and page.group == 1
    assert all(e.share is share and e.value_size == 300 for e in page.entries)
    mine = SimpleNamespace(size=40)
    page = catch_up_page(CatchUp(group=1, from_instance=6, max_bytes=1),
                         0, chosen, recode=lambda inst: mine)
    assert [e.share for e in page.entries] == [mine]
    assert page.next_from == 7
    page = catch_up_page(CatchUp(group=1, from_instance=6), 0, chosen, None)
    assert [e.share for e in page.entries] == [None, None]
    assert page.next_from is None


def entry(version, tombstone=False):
    return SimpleNamespace(version=version, tombstone=tombstone)


def test_snapshot_page_budget_and_cursor():
    pinned = [("a", entry(1)), ("b", entry(2, tombstone=True)),
              ("c", entry(3)), ("d", entry(4))]
    share = SimpleNamespace(size=100)
    sent = []

    def share_for(e, cont):
        cont(share, None, f"v{e.version}", 300)

    msg = FetchSnapshot(group=0, max_bytes=2 * (KV_META + 1 + 100))
    snapshot_page(msg, pinned, {"first": True, "floor": 9}, share_for,
                  sent.append)
    (page,) = sent
    assert [e.key for e in page.entries] == ["a", "b", "c"]
    assert page.entries[1].tombstone and page.next_cursor == "c"
    assert page.first and page.floor == 9
    sent.clear()
    snapshot_page(FetchSnapshot(group=0, cursor="c"), pinned[3:], {},
                  share_for, sent.append)
    (page,) = sent
    assert [e.key for e in page.entries] == ["d"]
    assert page.next_cursor is None and not page.first


def test_snapshot_page_resumes_after_a_gather_and_skips_unknown_values():
    pinned = [("a", entry(1)), ("b", entry(2)), ("c", entry(3))]
    waiting = []
    sent = []

    def share_for(e, cont):
        if e.version == 2:
            waiting.append(cont)                # answered later
        else:
            cont(None, None, "" if e.version == 3 else "v1", 0)

    snapshot_page(FetchSnapshot(group=0), pinned, {}, share_for,
                  sent.append)
    assert sent == [] and len(waiting) == 1
    waiting.pop()(None, None, "v2", 0)
    (page,) = sent
    assert [e.key for e in page.entries] == ["a", "b"]  # c names no value


def test_missing_value_poll_stops_once_the_cursor_passed_it():
    rig = Rig()
    rig.holes.add((0, 3))
    rig.rebuild.missing(0, 3)
    rig.clock.advance(0.0)
    assert len(rig.asked()) == 2
    rig.cursor[0] = 9                           # a snapshot covered it
    rig.clock.advance(MISSING_REPOLL)
    assert len(rig.asked()) == 2 and rig.clock.pending() == []
