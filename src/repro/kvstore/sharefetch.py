"""Share fetching: whom to ask for coded shares, how many at once, and
what to do when a source is slow, useless or silent.

Collecting >= X coded shares of a decided value is the one operation
under the paper's read and repair paths (§4.4 recovery read, §4.5
re-coding a recovering replica's fragment), and recovery is
network-bound: *which* and *how many* sources it contacts **is** its
cost (Rashmi et al.). That policy lives here, once. Pure, like
:mod:`repro.kvstore.admission`: a :class:`ShareFetch` is built from a
clock, the peer names and an RPC endpoint's bound methods, and knows
nothing of servers, Paxos groups, coded shares or the simulator. What a
reply *means* stays with the client of a gather: ``offer(reply, host,
elapsed)`` takes a usable share (and accounts what it accounts) or
returns False; ``missing()`` says how many more it needs, so "a peer
re-coded my exact fragment" is a ``missing()`` that drops to zero early.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

#: Pause before a gather whose ranked list is exhausted starts over:
#: without it a value that is *never* reconstructible (every live
#: holder below X) would re-fan out every round trip.
CYCLE_PAUSE = 0.25


class _Gather:
    """One gather in progress: a slotted object, its callbacks bound
    methods, so nothing captures itself (DESIGN.md §4, the op-path
    allocation rule); the two lambdas a fetch is sent with point here
    and nothing here points back at them."""

    __slots__ = ("sf", "body", "size", "missing", "offer", "on_done",
                 "on_exhausted", "timeout", "retries", "hosts", "next",
                 "outstanding", "hedge_timer", "cycle_timer")

    def __init__(self, sf: "ShareFetch", body, size, missing, offer, on_done,
                 on_exhausted, timeout, retries):
        self.sf = sf
        self.body = body
        self.size = size
        self.missing = missing
        self.offer = offer
        self.on_done = on_done
        self.on_exhausted = on_exhausted
        self.timeout = timeout
        self.retries = retries
        self.hosts = sf.ranked()
        self.next = 0  # cursor into hosts
        self.outstanding: dict[str, int] = {}  # host -> request id
        self.hedge_timer = None
        self.cycle_timer = None

    def settle(self, host: str) -> bool:
        """Retire the fetch toward ``host``; False if ``stop`` already
        did (a cancelled request's endpoint never calls back, but a
        caller's own recorded one may)."""
        if self.outstanding.pop(host, None) is None:
            return False
        self.sf.finished(host)
        return True

    def replied(self, host: str, hedge: bool, sent: float, reply) -> None:
        if not self.settle(host):
            return
        if self.offer(reply, host, self.sf._clock.now - sent):
            if hedge:
                self.sf.hedge_wins += 1
            if not self.missing():
                self.stop()
                self.on_done()
                return
        self.replenish()

    def timed_out(self, host: str) -> None:
        if self.settle(host):
            self.replenish()

    def replenish(self) -> None:
        """Keep one fetch in flight per still-missing share, taking
        replacements from the ranked list as fetches fail."""
        need = self.missing()
        if not need:  # the owner stopped needing any (a read moved on)
            self.stop()
            self.on_done()
            return
        if not self.outstanding and self.next >= len(self.hosts):
            # Every ranked peer was tried and it still is not enough.
            if self.on_exhausted is not None:
                self.stop()
                self.on_exhausted()
            else:
                self.cycle_timer = self.sf._clock.call_after(CYCLE_PAUSE,
                                                             self.cycle)
            return
        while len(self.outstanding) < need and self.next < len(self.hosts):
            self.issue(hedge=False)
        if self.sf.hedge:
            self.arm_hedge()

    def issue(self, hedge: bool) -> None:
        sf = self.sf
        host = self.hosts[self.next]
        self.next += 1
        sent = sf._clock.now
        sf.started(host)
        self.outstanding[host] = sf._request(
            host, self.body, self.size,
            on_reply=lambda reply: self.replied(host, hedge, sent, reply),
            timeout=self.timeout, retries=self.retries, adaptive=True,
            on_timeout=lambda: self.timed_out(host),
        )
        if hedge:
            sf.hedges_issued += 1

    def arm_hedge(self) -> None:
        if (self.hedge_timer is not None or not self.outstanding
                or self.next >= len(self.hosts)):
            return
        # Expected completion of the *slowest* outstanding fetch: if it
        # overruns this, a hedge is cheaper than waiting.
        rto, fallback = self.sf._rto, self.timeout
        delay = max(rto(host, fallback) for host in self.outstanding)
        self.hedge_timer = self.sf._clock.call_after(delay, self.fire_hedge)

    def fire_hedge(self) -> None:
        self.hedge_timer = None
        if self.next < len(self.hosts) and self.missing():
            self.issue(hedge=True)
        self.arm_hedge()

    def cycle(self) -> None:
        self.cycle_timer = None
        self.next = 0
        self.replenish()

    def stop(self) -> None:
        """Over, one way or the other: nothing of this gather stays
        armed, in flight or counted as load."""
        self.sf._gathers.discard(self)
        for timer in (self.hedge_timer, self.cycle_timer):
            if timer is not None:
                timer.cancel()
        for host, rid in self.outstanding.items():
            self.sf._cancel_request(rid)
            self.sf.finished(host)
        self.outstanding.clear()


class ShareFetch:
    """Source ranking, per-peer in-flight load, and one gather policy.

    ``clock`` is anything with ``now`` and ``call_after(delay, fn)``
    returning something with ``cancel()``; ``peers`` the other hosts'
    names; ``request`` / ``cancel_request`` / ``rto`` / ``peer_stats``
    an RPC endpoint's bound methods; ``rng`` (a numpy Generator) orders
    the sources when ``rtt_select`` is off. ``hedge`` and ``rtt_select`` are on; the
    readpath gate's phase-3 baseline and tests switch them off on a
    built server (``srv.fetch.rtt_select = False``).
    """

    def __init__(
        self, clock, peers: Sequence[str], *,
        request: Callable[..., int], cancel_request: Callable[[int], None],
        rto: Callable[[str, float], float], peer_stats: Callable[[str], Any],
        rng,
    ):
        self._clock = clock
        self._peers = tuple(peers)
        self._request = request
        self._cancel_request = cancel_request
        self._rto = rto
        self._peer_stats = peer_stats
        # Hedge a fetch to the next-ranked peer when the slowest
        # outstanding one overruns its adaptive RTO.
        self.hedge = True
        # Rank by RTT estimate x outstanding fetches; off: seeded-random.
        self.rtt_select = True
        self._rng = rng
        self.load: dict[str, int] = {}  # fetches in flight per peer
        self._gathers: set[_Gather] = set()  # not yet stopped
        # Cumulative across resets (a crash does not forget them).
        self.hedges_issued = 0
        self.hedge_wins = 0

    def ranked(self) -> list[str]:
        """Peer hosts best-first: repair-optimal source selection.

        Rank = Jacobson RTT estimate scaled by the fetches already in
        flight toward the peer — each is roughly one more service time
        of queueing the estimator has not observed yet, so a
        fast-but-busy peer yields to an idle slightly-slower one. Peers
        with no unambiguous sample sort after measured ones (unknown is
        not the same as fast); ties break by name, so the order — and
        everything hedging derives from it — is deterministic. With
        ``rtt_select`` off (the readpath gate's measured baseline):
        seeded-random order, no RTT, no load signal.
        """
        if not self.rtt_select:
            order = list(self._peers)
            self._rng.shuffle(order)
            return order
        peer_stats, load = self._peer_stats, self.load

        def rank(h: str):
            st = peer_stats(h)
            n = load.get(h, 0)
            if not st.samples:
                return (1, float(n), 0.0, h)
            return (0, st.ewma * (1.0 + n), st.ewma, h)

        return sorted(self._peers, key=rank)

    def started(self, host: str) -> None:
        """A fetch toward ``host`` went out (a gather's, or one the
        owner issues itself over :meth:`ranked`)."""
        self.load[host] = self.load.get(host, 0) + 1

    def finished(self, host: str) -> None:
        n = self.load.get(host, 0) - 1
        if n <= 0:
            self.load.pop(host, None)
        else:
            self.load[host] = n

    def gather(
        self, body: Any, size: int, *, missing: Callable[[], int],
        offer: Callable[[Any, str, float], bool],
        on_done: Callable[[], None],
        on_exhausted: Callable[[], None] | None = None,
        timeout: float, retries: int,
    ) -> None:
        """Send ``body`` to ranked peers until ``missing()`` is zero,
        then call ``on_done()`` (at once if nothing is missing).

        The policy: rank; keep exactly ``missing()`` fetches in flight;
        replace one that times out, or whose reply ``offer`` refuses,
        with the next-ranked peer; hedge to the next peer when the
        slowest outstanding fetch overruns its adaptive RTO; cancel
        leftovers the moment nothing is missing. With the list used up
        and shares still missing, ``on_exhausted()`` if given (the
        gather is over: a background client defers), else pause
        ``CYCLE_PAUSE`` and go over the same list again, for ever —
        someone is waiting, and a chosen value's shares reappear as
        crashed peers recover (§3.1). ``timeout`` / ``retries`` are each
        request's own: the client's patience, not policy.
        """
        # Ranked before looking at ``missing()``: with ``rtt_select``
        # off every gather draws from the RNG stream, needed or not.
        g = _Gather(self, body, size, missing, offer, on_done, on_exhausted,
                    timeout, retries)
        if missing():
            self._gathers.add(g)
            g.replenish()
        else:
            on_done()

    def reset(self) -> None:
        """The owner crashed: stop every gather in flight — its timers
        cancelled, its requests retired — and forget the load."""
        for g in list(self._gathers):
            g.stop()
        self.load.clear()
