"""Share fetching: which peers to ask for coded shares, how many at
once, and what to do when one is slow, useless or silent.

The paper's read and repair paths are one operation — collect >= X coded
shares of a decided value and decode (§4.4 recovery read, §4.5 re-coding
a recovering replica's fragment) — and recovery is network-bound, so
*which* and *how many* sources it contacts **is** its cost (Rashmi et
al.). That decision lives here, once.

Pure policy, like :mod:`repro.kvstore.admission`: a :class:`ShareFetch`
knows a clock, the peer host names, four callables of an RPC endpoint
(``request``, ``cancel_request``, ``rto``, ``peer_stats``) and whether
its owner is ``alive()`` — nothing of servers, Paxos groups, coded
shares, message types or the simulator. It owns

- **source ranking** (:meth:`ShareFetch.ranked`): RTT estimate scaled
  by the fetches already in flight toward the peer, or a seeded shuffle
  as the measured baseline;
- **per-peer in-flight load** (:meth:`started` / :meth:`finished`),
  which that ranking reads;
- **one gather policy** (:meth:`ShareFetch.gather`): rank; keep exactly
  ``missing()`` fetches in flight; replace a fetch that times out or
  whose reply the client refuses with the next-ranked peer; hedge to
  the next peer when the slowest outstanding fetch overruns its
  adaptive RTO; cancel leftovers the moment ``missing()`` reaches zero;
  and once the ranked list is used up either pause and start over from
  its top (someone is waiting for the value, and a chosen value's
  shares reappear as crashed peers recover, §3.1) or tell the client,
  which then defers.

What a reply *means* stays with the client, as one callback:
``offer(reply, host, elapsed) -> bool`` takes the share if it is usable
(and accounts whatever it accounts: bytes, latency) or refuses it;
``missing()`` says how many more it needs, so "a peer re-coded my exact
fragment" is simply a client whose ``missing()`` drops to zero early.

Per-gather state is one slotted :class:`_Gather` and one slotted
:class:`_Fetch` per request, their callbacks bound methods — no closure
captures itself (DESIGN.md §4, the op-path allocation rule), and every
reference cycle between the two is cut when the fetch settles.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

#: Pause before a gather whose ranked list is exhausted starts over.
#: Without it, a value that is *never* reconstructible (every live
#: holder below X) would re-fan out every round trip.
CYCLE_PAUSE = 0.25


class _Fetch:
    """One request in flight, and the two callbacks it was sent with."""

    __slots__ = ("gather", "host", "hedge", "sent", "rid")

    def __init__(self, gather: "_Gather", host: str, hedge: bool, sent: float):
        self.gather = gather
        self.host = host
        self.hedge = hedge
        self.sent = sent
        self.rid = -1

    def on_reply(self, reply: Any) -> None:
        self.gather.replied(self, reply)

    def on_timeout(self) -> None:
        self.gather.timed_out(self)


class _Gather:
    """One gather in progress: the ranked hosts, a cursor into them, the
    fetches outstanding and the pending hedge timer."""

    __slots__ = ("sf", "gen", "body", "size", "missing", "offer", "on_done",
                 "on_exhausted", "timeout", "retries", "hosts", "next",
                 "outstanding", "hedge_timer", "done")

    def __init__(self, sf: "ShareFetch", body, size, missing, offer, on_done,
                 on_exhausted, timeout, retries):
        self.sf = sf
        self.gen = sf._gen
        self.body = body
        self.size = size
        self.missing = missing
        self.offer = offer
        self.on_done = on_done
        self.on_exhausted = on_exhausted
        self.timeout = timeout
        self.retries = retries
        self.hosts = sf.ranked()
        self.next = 0
        self.outstanding: dict[int, _Fetch] = {}
        self.hedge_timer = None
        self.done = False

    def live(self) -> bool:
        sf = self.sf
        return not self.done and self.gen == sf._gen and sf._alive()

    # -- the fetches' callbacks -------------------------------------------

    def settle(self, fetch: _Fetch) -> bool:
        """Retire ``fetch``; False if the gather should not go on."""
        sf = self.sf
        if (
            self.gen != sf._gen  # retired by reset(): not our load table
            or self.outstanding.pop(fetch.rid, None) is None  # cancelled
        ):
            return False
        sf.finished(fetch.host)
        return sf._alive()

    def replied(self, fetch: _Fetch, reply: Any) -> None:
        if not self.settle(fetch):
            return
        sf = self.sf
        if self.offer(reply, fetch.host, sf._clock.now - fetch.sent):
            if fetch.hedge:
                sf.hedge_wins += 1
            if not self.missing():
                self.stop()
                self.on_done()
                return
        self.replenish()

    def timed_out(self, fetch: _Fetch) -> None:
        if self.settle(fetch):
            self.replenish()

    # -- the policy ---------------------------------------------------------

    def replenish(self) -> None:
        """Keep one fetch in flight per still-missing share, taking
        replacements from the ranked list as fetches fail."""
        need = self.missing()
        if not self.outstanding and self.next >= len(self.hosts) and need:
            # Every ranked peer was tried and it still is not enough.
            if self.on_exhausted is not None:
                self.stop()
                self.on_exhausted()
            else:
                self.sf._clock.call_after(CYCLE_PAUSE, self.cycle)
            return
        while len(self.outstanding) < need and self.next < len(self.hosts):
            self.issue(hedge=False)
        if self.sf._hedge:
            self.arm_hedge()

    def issue(self, hedge: bool) -> None:
        sf = self.sf
        host = self.hosts[self.next]
        self.next += 1
        fetch = _Fetch(self, host, hedge, sf._clock.now)
        sf.started(host)
        fetch.rid = sf._request(
            host, self.body, self.size, on_reply=fetch.on_reply,
            timeout=self.timeout, retries=self.retries, adaptive=True,
            on_timeout=fetch.on_timeout,
        )
        self.outstanding[fetch.rid] = fetch
        if hedge:
            sf.hedges_issued += 1

    def arm_hedge(self) -> None:
        if (
            self.hedge_timer is not None
            or not self.outstanding
            or self.next >= len(self.hosts)
        ):
            return
        # Expected completion of the *slowest* outstanding fetch: if it
        # overruns this, a hedge is cheaper than waiting.
        rto, fallback = self.sf._rto, self.timeout
        delay = max(rto(f.host, fallback) for f in self.outstanding.values())
        self.hedge_timer = self.sf._clock.call_after(delay, self.fire_hedge)

    def fire_hedge(self) -> None:
        self.hedge_timer = None
        if not self.live():
            return
        if self.next < len(self.hosts) and self.missing():
            self.issue(hedge=True)
        self.arm_hedge()

    def cycle(self) -> None:
        if self.live():
            self.next = 0
            self.replenish()

    def stop(self) -> None:
        """Done, one way or the other: nothing of this gather stays
        armed, in flight or counted as load."""
        self.done = True
        if self.hedge_timer is not None:
            self.hedge_timer.cancel()
            self.hedge_timer = None
        sf = self.sf
        for rid, fetch in self.outstanding.items():
            sf._cancel_request(rid)
            sf.finished(fetch.host)
        self.outstanding.clear()


class ShareFetch:
    """Source ranking, in-flight load and the gather policy.

    ``clock`` is anything with ``now`` and ``call_after(delay, fn)``
    returning something with ``cancel()``; ``peers`` the other hosts'
    names; ``request`` / ``cancel_request`` / ``rto`` / ``peer_stats``
    an RPC endpoint's bound methods; ``alive()`` whether the owner is
    up. ``hedge`` and ``rtt_select`` are ``ServerConfig.hedge_fetches``
    and ``.rtt_select``; ``rng`` (a numpy Generator) orders the sources
    when ``rtt_select`` is off.
    """

    def __init__(
        self,
        clock,
        peers: Sequence[str],
        *,
        request: Callable[..., int],
        cancel_request: Callable[[int], None],
        rto: Callable[[str, float], float],
        peer_stats: Callable[[str], Any],
        alive: Callable[[], bool],
        hedge: bool,
        rtt_select: bool,
        rng,
    ):
        self._clock = clock
        self._peers = tuple(peers)
        self._request = request
        self._cancel_request = cancel_request
        self._rto = rto
        self._peer_stats = peer_stats
        self._alive = alive
        self._hedge = hedge
        self._rtt_select = rtt_select
        self._rng = rng
        self._load: dict[str, int] = {}
        # Bumped by reset(): whatever an earlier gather still has
        # coming — a late reply, its hedge or cycle timer — finds its
        # generation stale and does nothing.
        self._gen = 0
        # Cumulative across resets (a crash does not forget them).
        self.hedges_issued = 0
        self.hedge_wins = 0

    @property
    def load(self) -> dict[str, int]:
        """Fetches in flight per peer (read-only view)."""
        return self._load

    def ranked(self) -> list[str]:
        """Peer hosts best-first: repair-optimal source selection.

        Rank = Jacobson RTT estimate scaled by the fetches already in
        flight toward the peer — each outstanding fetch is roughly one
        more service time of queueing the estimator has not observed
        yet, so a fast-but-busy peer yields to an idle slightly-slower
        one. Peers with no unambiguous sample yet sort after measured
        ones (unknown is not the same as fast); ties break by name so
        the order — and everything hedging derives from it — is
        deterministic.

        With ``rtt_select`` off (the readpath gate's measured baseline)
        sources come back in seeded-random order instead — no RTT, no
        load signal.
        """
        if not self._rtt_select:
            order = list(self._peers)
            self._rng.shuffle(order)
            return order
        peer_stats, load = self._peer_stats, self._load

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
        self._load[host] = self._load.get(host, 0) + 1

    def finished(self, host: str) -> None:
        n = self._load.get(host, 0) - 1
        if n <= 0:
            self._load.pop(host, None)
        else:
            self._load[host] = n

    def gather(
        self,
        body: Any,
        size: int,
        *,
        missing: Callable[[], int],
        offer: Callable[[Any, str, float], bool],
        on_done: Callable[[], None],
        on_exhausted: Callable[[], None] | None = None,
        timeout: float,
        retries: int,
    ) -> None:
        """Send ``body`` to ranked peers until ``missing()`` is zero,
        then call ``on_done()`` — at once if nothing is missing.

        Each reply goes to ``offer(reply, host, elapsed)``; False means
        unusable, and pulls in the next-ranked peer like a timeout
        does. ``timeout`` / ``retries`` are each request's own (the
        client's patience, not policy). With the ranked list used up
        and shares still missing: ``on_exhausted()`` if given (the
        gather is over), else a pause of ``CYCLE_PAUSE`` and another
        pass over the same list, for ever.
        """
        g = _Gather(self, body, size, missing, offer, on_done, on_exhausted,
                    timeout, retries)
        if missing():
            g.replenish()
        else:
            g.done = True
            on_done()

    def reset(self) -> None:
        """The owner crashed: forget the load and retire every gather
        in flight. Their requests may still be answered or time out;
        nothing comes of it."""
        self._gen += 1
        self._load.clear()
