"""RPC endpoint: typed dispatch, request/reply, retransmission, batching.

This is the simulated analogue of the paper's asynchronous TCP RPC
module (§5). It provides:

- **one-way sends** with handler dispatch by payload type;
- **request/reply** with per-request ids, timeouts and bounded or
  unbounded retransmission — the mechanism that turns the lossy network
  into the paper's "a repeatedly retransmitted message eventually
  arrives" guarantee;
- **one probe per silent peer**: once an unbounded request to a
  destination times out, that destination is *silent* and only that
  request (the probe) keeps retransmitting; every other unbounded
  request to it whose timer fires is *parked* — no transmission, no
  timer — until anything arrives from the peer, when each of them is
  re-armed for one retransmission at the peer's RTO. A crashed replica
  is therefore not sent every in-flight share again at every backoff
  tick, only the probe;
- **batching** (§7, "IO batching"): outgoing messages to the same
  destination can be held for a small window and shipped as a single
  wire message, amortizing the per-message header;
- **per-peer latency tracking**: every request/reply round feeds a
  Jacobson-style RTT estimator (EWMA + mean deviation, Karn's rule for
  retransmit ambiguity) per destination. Callers can opt into
  *adaptive* retransmit timeouts derived from it — under an overloaded
  or gray-failed peer the retransmit timer stretches with the observed
  tail instead of hammering a fixed interval, and under a healthy LAN
  it tightens well below any hand-picked constant.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from ..net import Envelope, Network
from ..sim import Event, Gauge, Simulator


@dataclass(slots=True)
class Request:
    """Wire wrapper for a request expecting a reply."""

    req_id: int
    body: Any


@dataclass(slots=True)
class Reply:
    """Wire wrapper for a reply to a :class:`Request`."""

    req_id: int
    body: Any


@dataclass(slots=True)
class Batch:
    """A bundle of messages shipped as one wire transfer."""

    items: list[Any] = field(default_factory=list)


@dataclass(slots=True)
class PeerStats:
    """Reply-latency estimate for one destination (Jacobson/Karn).

    ``ewma`` is the smoothed round-trip time, ``dev`` the smoothed mean
    deviation. Unambiguous samples (replies to requests transmitted
    exactly once — Karn's rule) update them freely; replies after a
    retransmit contribute only the one-sided since-first-transmit bound,
    and only upward, so congestion can stretch the estimate but never
    shrink it. ``rto`` is the last retransmit timeout derived from them.
    """

    ewma: float = 0.0
    dev: float = 0.0
    samples: int = 0
    rto: float = 0.0

    def snapshot(self) -> "PeerStats":
        return PeerStats(self.ewma, self.dev, self.samples, self.rto)


@dataclass(slots=True)
class _PendingRequest:
    endpoint: "RpcEndpoint"
    req_id: int
    dst: str
    body: Any
    size: int
    on_reply: Callable[[Any], None]
    on_timeout: Callable[[], None] | None
    timeout: float
    retries_left: int  # -1 means unbounded
    adaptive: bool = False
    # Fires once, at the destination's RTO, if no reply came by then;
    # None once fired, or when the first timer was armed without it.
    on_suspect: Callable[[], None] | None = None
    timer: Event | None = None
    done: bool = False
    transmits: int = 0
    first_tx: float = 0.0
    last_tx: float = 0.0
    cur_timeout: float = 0.0

    def on_timer(self) -> None:
        """The retransmit timer's callback: a bound method, so arming
        the timer allocates no closure. ``timer`` points back here only
        until the event fires or is cancelled (either drops the
        callback), so no reference cycle outlives the request."""
        self.endpoint._on_request_timer(self)

    def on_heard(self) -> None:
        """The timer the probe and each parked request get once their
        destination is heard from: the one retransmission each is owed,
        silent peer or not."""
        self.endpoint._retransmit(self)


class RpcEndpoint:
    """Messaging facade for one host.

    Parameters
    ----------
    sim, net:
        Simulation kernel and network.
    name:
        Host name; must already exist in the network.
    batch_window:
        If > 0, one-way sends are buffered per destination for this many
        seconds (or until ``batch_max`` items) and flushed together.
    rto_floor, rto_ceil, rto_k:
        Clamps and deviation multiplier for adaptive retransmit
        timeouts: ``rto = clamp(ewma + k*dev, floor, ceil)``. The floor
        keeps tiny LAN RTT estimates from firing spurious retransmits on
        ordinary queueing noise (TCP's minimum-RTO rationale); the
        ceiling bounds how long a gray-failed peer can stall a caller.
    metrics:
        Optional metric set. When given, every unambiguous RTT sample
        also updates the ``rpc.rtt.<name>.<dst>`` gauge (smoothed RTT in
        seconds), so share-selection decisions built on the estimator
        are observable rather than inferred.
    """

    #: EWMA gains of the RTT estimator (Jacobson's 1/8 and 1/4).
    RTO_ALPHA = 0.125
    RTO_BETA = 0.25

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        name: str,
        batch_window: float = 0.0,
        batch_max: int = 64,
        rto_floor: float = 0.02,
        rto_ceil: float = 2.0,
        rto_k: float = 4.0,
        metrics: Any | None = None,
    ):
        self.sim = sim
        self.net = net
        self.name = name
        self.metrics = metrics
        self.batch_window = batch_window
        self.batch_max = batch_max
        self.rto_floor = rto_floor
        self.rto_ceil = rto_ceil
        self.rto_k = rto_k
        self._handlers: dict[type, Callable[[Any, str], None]] = {}
        self._request_handlers: dict[type, Callable[[Any, str], Any]] = {}
        self._async_request_handlers: dict[
            type, Callable[[Any, str, Callable[[Any, int], None]], None]
        ] = {}
        # Request ids only have to be unique per requester: a reply is
        # matched against the table of the endpoint that asked.
        self._request_ids = itertools.count()
        self._pending: dict[int, _PendingRequest] = {}
        # dst -> its unbounded requests while dst is silent: the head is
        # the probe (retransmitting), the rest are parked oldest first
        # (no timer). Empty on every run where no request times out.
        self._silent: dict[str, deque[_PendingRequest]] = {}
        self._batches: dict[str, list[tuple[Any, int]]] = {}
        self._batch_timers: dict[str, Event] = {}
        self._peer_stats: dict[str, PeerStats] = {}
        self._rtt_gauges: dict[str, Gauge] = {}  # dst -> rpc.rtt.<name>.<dst>
        net.set_handler(name, self._on_envelope)
        # Accounting (per-endpoint; network keeps the global totals).
        self.requests_sent = 0
        self.requests_timed_out = 0
        # Replies that arrived for a request no longer pending — a
        # duplicate delivery, or a reply landing after the final timeout
        # already fired its continuation. Dropped, never dispatched.
        self.stale_replies_dropped = 0
        # Times the derived adaptive timeout for some peer moved by more
        # than 25% — i.e. the estimator actually re-tuned, not noise.
        self.timeouts_adapted = 0

    # -- registration -----------------------------------------------------

    def on(self, msg_type: type, handler: Callable[[Any, str], None]) -> None:
        """Register a one-way handler: ``handler(msg, src_name)``."""
        self._handlers[msg_type] = handler

    def on_request(self, msg_type: type, handler: Callable[[Any, str], Any]) -> None:
        """Register a request handler returning the reply body.

        If the handler returns ``None``, no reply is sent (the caller's
        retransmission/timeout logic treats it as a dropped request, so
        handlers use explicit reply objects for negative answers).
        """
        self._request_handlers[msg_type] = handler

    def on_request_async(
        self,
        msg_type: type,
        handler: Callable[[Any, str, Callable[[Any, int], None]], None],
    ) -> None:
        """Register a deferred request handler.

        ``handler(msg, src, respond)`` may call ``respond(body, size)``
        at any later simulated time — e.g. after a WAL flush completes.
        Paxos acceptors use this: state must be durable *before* the
        reply leaves the host (§4.5).
        """
        self._async_request_handlers[msg_type] = handler

    # -- one-way sends ------------------------------------------------------

    def send(self, dst: str, body: Any, size: int) -> None:
        """One-way message (optionally batched)."""
        if self.batch_window <= 0 or dst == self.name:
            self.net.send(self.name, dst, body, size)
            return
        queue = self._batches.setdefault(dst, [])
        queue.append((body, size))
        if len(queue) >= self.batch_max:
            self._flush(dst)
        elif dst not in self._batch_timers:
            self._batch_timers[dst] = self.sim.call_after(
                self.batch_window, lambda: self._flush(dst)
            )

    def _flush(self, dst: str) -> None:
        timer = self._batch_timers.pop(dst, None)
        if timer is not None:
            timer.cancel()
        queue = self._batches.pop(dst, None)
        if not queue:
            return
        if len(queue) == 1:
            body, size = queue[0]
            self.net.send(self.name, dst, body, size)
            return
        batch = Batch(items=[b for b, _ in queue])
        total = sum(s for _, s in queue)
        self.net.send(self.name, dst, batch, total)

    def flush_all(self) -> None:
        """Force all pending batches onto the wire."""
        for dst in list(self._batches):
            self._flush(dst)

    # -- per-peer latency tracking ---------------------------------------

    def peer_stats(self, dst: str) -> PeerStats:
        """Snapshot of the RTT estimator for ``dst`` (zeros if unseen)."""
        st = self._peer_stats.get(dst)
        return st.snapshot() if st is not None else PeerStats()

    def peer_rtt(self, dst: str) -> float | None:
        """Smoothed reply latency toward ``dst``, or None before any
        unambiguous sample."""
        st = self._peer_stats.get(dst)
        return st.ewma if st is not None and st.samples else None

    def rto(self, dst: str, fallback: float) -> float:
        """Adaptive retransmit timeout toward ``dst``.

        Jacobson's ``ewma + k*dev``, clamped to
        ``[rto_floor, rto_ceil]``; ``fallback`` (the caller's static
        timeout) is used until the first RTT sample exists.
        """
        st = self._peer_stats.get(dst)
        if st is None or st.samples == 0:
            return fallback
        return min(self.rto_ceil, max(self.rto_floor, st.ewma + self.rto_k * st.dev))

    def _record_rtt(self, dst: str, sample: float) -> None:
        st = self._peer_stats.get(dst)
        if st is None:
            st = self._peer_stats[dst] = PeerStats()
        if st.samples == 0:
            st.ewma = sample
            st.dev = sample / 2
        else:
            err = sample - st.ewma
            st.ewma += self.RTO_ALPHA * err
            st.dev += self.RTO_BETA * (abs(err) - st.dev)
        st.samples += 1
        # What rto() derives, stored so that _transmit need not: the
        # clamps are fixed at construction and every sample lands here.
        rto = st.ewma + self.rto_k * st.dev
        if rto < self.rto_floor:
            rto = self.rto_floor
        if rto > self.rto_ceil:
            rto = self.rto_ceil
        if st.rto > 0.0 and abs(rto - st.rto) > 0.25 * st.rto:
            self.timeouts_adapted += 1
        st.rto = rto
        if self.metrics is not None:
            gauge = self._rtt_gauges.get(dst)
            if gauge is None:
                gauge = self._rtt_gauges[dst] = self.metrics.gauge(
                    f"rpc.rtt.{self.name}.{dst}"
                )
            gauge.set(st.ewma)

    def rtt_table(self) -> dict[str, float]:
        """Smoothed RTT per measured peer, for episode summaries."""
        return {
            dst: st.ewma
            for dst, st in sorted(self._peer_stats.items())
            if st.samples
        }

    # -- request/reply --------------------------------------------------------

    def request(
        self,
        dst: str,
        body: Any,
        size: int,
        on_reply: Callable[[Any], None],
        timeout: float = 0.5,
        retries: int = -1,
        on_timeout: Callable[[], None] | None = None,
        adaptive: bool = False,
        on_suspect: Callable[[], None] | None = None,
    ) -> int:
        """Send ``body`` to ``dst``; invoke ``on_reply(reply_body)`` once.

        Transmits at once, then retransmits every ``timeout`` seconds
        until a reply comes. A non-negative ``retries`` bounds the
        retransmissions, after which the request is retired —
        ``requests_timed_out`` is counted, a reply arriving later is
        dropped as stale — and ``on_timeout`` fires if one was given.
        Without an ``on_timeout`` the caller is never told: nothing is
        raised.

        ``retries=-1`` keeps retrying forever (the liveness assumption
        of §3.1), but one request per silent destination at a time. The
        first unbounded request to ``dst`` that times out makes ``dst``
        *silent* and becomes its probe, retransmitting on its own
        schedule. Any other unbounded request to ``dst`` whose timer
        fires meanwhile is *parked*: no transmission, no timer. Each
        probe tick that goes unanswered parks the probe behind the
        others and retransmits the oldest parked request as the new
        probe, on the backoff the destination has reached; cancelling
        the probe promotes the next one the same way. Any envelope from
        ``dst`` ends its silence and re-arms the probe and every parked
        request for one retransmission at ``rto(dst)`` (a reply that
        lands first cancels it). Liveness is kept: the probe is
        retransmitted forever, rotation reaches every parked request,
        and hearing from the peer re-arms them all. A first
        transmission always leaves at once, so a healthy peer's
        pipeline never waits on a probe.

        With ``adaptive=True`` the per-transmit timeout is derived from
        the destination's RTT estimator instead (``timeout`` remains the
        fallback until a sample exists), and each retransmission doubles
        the interval up to ``rto_ceil`` (Karn's exponential backoff).

        ``on_suspect``, if given, fires once when the first transmit has
        gone unanswered for ``rto(dst)``: the request's own timer is
        armed for that moment and then re-armed for the unchanged
        deadline, so no second timer exists. Before the first RTT
        sample toward ``dst``, or when the RTO is not shorter than the
        timeout, it never fires.

        Returns the request id (usable with :meth:`cancel_request`).
        """
        req_id = next(self._request_ids)
        pending = _PendingRequest(
            endpoint=self, req_id=req_id, dst=dst, body=body, size=size,
            on_reply=on_reply, on_timeout=on_timeout, timeout=timeout,
            retries_left=retries, adaptive=adaptive, on_suspect=on_suspect,
        )
        self._pending[req_id] = pending
        self.requests_sent += 1
        self._transmit(pending)
        return req_id

    def cancel_request(self, req_id: int) -> None:
        pending = self._pending.pop(req_id, None)
        if pending is None:
            return
        pending.done = True
        queue = self._silent.get(pending.dst)
        if pending.timer is None:  # only a parked request has none
            queue.remove(pending)
            return
        pending.timer.cancel()
        if queue is not None and queue[0] is pending:
            # The probe: the next parked request takes over its backoff.
            queue.popleft()
            if queue:
                queue[0].cur_timeout = pending.cur_timeout
                self._transmit(queue[0])
            else:
                del self._silent[pending.dst]

    def reset(self) -> None:
        """The host crashed: what it asked dies with it, as a TCP
        connection does (§5). Every pending request is retired without
        a callback — no ``on_reply``, ``on_timeout`` or ``on_suspect``
        ever fires for it, and its reply, should one still arrive, is
        counted in ``stale_replies_dropped`` — and the silent-peer
        table, unsent batches and RTT estimates, all volatile, are
        gone. Handlers and counters survive, the request-id counter
        too: a reply to a request of the previous incarnation must
        never match one of the next."""
        for pending in self._pending.values():
            pending.done = True
            if pending.timer is not None:
                pending.timer.cancel()
        self._pending.clear()
        self._silent.clear()
        for timer in self._batch_timers.values():
            timer.cancel()
        self._batch_timers.clear()
        self._batches.clear()
        self._peer_stats.clear()

    def _transmit(self, pending: _PendingRequest) -> None:
        if pending.done:
            return
        now = self.sim.now
        delay = pending.cur_timeout
        if pending.transmits == 0:
            pending.first_tx = now
            delay = pending.cur_timeout = pending.timeout
            if pending.adaptive or pending.on_suspect is not None:
                # rto(dst, timeout), read not re-derived
                st = self._peer_stats.get(pending.dst)
                rto = st.rto if st is not None and st.samples else delay
                if pending.adaptive:
                    delay = pending.cur_timeout = rto
                if rto < delay:
                    delay = rto  # the suspicion point comes first
                else:
                    pending.on_suspect = None
        pending.transmits += 1
        pending.last_tx = now
        self.net.send(self.name, pending.dst,
                      Request(pending.req_id, pending.body), pending.size)
        pending.timer = self.sim.call_at(now + delay, pending.on_timer)

    def _on_request_timer(self, pending: _PendingRequest) -> None:
        if pending.done:  # set by every path that retires a request
            return
        on_suspect = pending.on_suspect
        if on_suspect is not None:
            # The suspicion point, not the deadline: re-arm for the
            # deadline first, so the callback may cancel the request.
            pending.on_suspect = None
            pending.timer = self.sim.call_at(
                pending.last_tx + pending.cur_timeout, pending.on_timer
            )
            on_suspect()
            return
        if pending.retries_left == 0:
            # Finalize *before* the continuation runs: a reply that
            # arrives from here on finds no pending entry and is
            # dropped, never dispatched to the dead continuation.
            self._pending.pop(pending.req_id, None)
            pending.done = True
            pending.timer = None
            self.requests_timed_out += 1
            if pending.on_timeout is not None:
                pending.on_timeout()
            return
        if pending.retries_left > 0:
            pending.retries_left -= 1
        else:  # unbounded: one probe per silent destination
            queue = self._silent.get(pending.dst)
            if queue is None:
                self._silent[pending.dst] = deque((pending,))  # the probe
            elif queue[0] is not pending:
                pending.timer = None  # parked
                queue.append(pending)
                return
            elif len(queue) > 1:
                # An unanswered probe tick: the probe is parked behind
                # the others and the oldest parked request goes out
                # instead, on the probe's backoff, so a request the peer
                # never answers cannot starve the rest.
                queue.rotate(-1)
                pending.timer = None
                queue[0].cur_timeout = pending.cur_timeout
                pending = queue[0]
        self._retransmit(pending)

    def _retransmit(self, pending: _PendingRequest) -> None:
        if pending.adaptive:
            # Karn backoff: every retransmission doubles the interval —
            # a congested or gray-failed peer gets geometrically less
            # retransmit pressure, not a fixed-rate hammering.
            pending.cur_timeout = min(self.rto_ceil, pending.cur_timeout * 2)
        self._transmit(pending)

    def _heard(self, src: str) -> None:
        """Anything from ``src`` ends its silence. The probe and each
        parked request are re-armed for one retransmission at
        ``rto(src)`` (a request's own interval before any RTT sample),
        which each makes even if ``src`` turns silent again meanwhile.
        Not resent at once: a peer that was only slow answers most of
        them first, and its reply cancels the timer. Not at the
        backed-off interval either: that measures how long the peer was
        silent, not how fast it answers, and would hold back a peer
        returning from a partition for up to ``rto_ceil``."""
        now = self.sim.now
        for pending in self._silent.pop(src):
            if pending.timer is not None:
                pending.timer.cancel()  # the probe's backed-off tick
            pending.timer = self.sim.call_at(
                now + self.rto(src, pending.cur_timeout), pending.on_heard
            )

    # -- dispatch -----------------------------------------------------------

    def _on_envelope(self, env: Envelope) -> None:
        if self._silent and env.src in self._silent:
            self._heard(env.src)
        self._dispatch(env.payload, env.src)

    def _dispatch(self, payload: Any, src: str) -> None:
        # Exact-type tests, commonest first: none of the three wire
        # wrappers is subclassed, and handlers are keyed by exact type.
        kind = type(payload)
        if kind is Request:
            async_handler = self._async_request_handlers.get(type(payload.body))
            if async_handler is not None:
                req_id = payload.req_id

                def respond(body: Any, size: int = 0) -> None:
                    self.net.send(self.name, src, Reply(req_id, body), size)

                async_handler(payload.body, src, respond)
                return
            handler = self._request_handlers.get(type(payload.body))
            if handler is None:
                return
            reply_body = handler(payload.body, src)
            if reply_body is not None:
                body, size = (
                    reply_body if isinstance(reply_body, tuple) else (reply_body, 0)
                )
                self.net.send(self.name, src, Reply(payload.req_id, body), size)
            return
        if kind is Reply:
            pending = self._pending.pop(payload.req_id, None)
            if pending is None or pending.done:
                # Duplicate delivery, or a reply landing after the final
                # timeout / a cancel already retired the request: the
                # continuation is dead, so the reply must be dropped
                # here — never dispatched.
                self.stale_replies_dropped += 1
                return
            pending.done = True
            if pending.timer is not None:
                pending.timer.cancel()
            if pending.transmits == 1:
                # Karn's rule: only un-retransmitted requests yield an
                # unambiguous RTT sample.
                self._record_rtt(pending.dst, self.sim.now - pending.last_tx)
            else:
                # Ambiguous — the reply cannot be attributed to one
                # transmit. But the time since the *first* transmit is a
                # one-sided bound: no copy can have taken longer. Feed
                # it only when it would raise the estimate, so a
                # congested peer inflates the RTO (breaking the
                # retransmit->queue->retransmit spiral) while the bound
                # can never drag the estimate down. This is the safe
                # half of what TCP timestamps (RFC 7323) buy back from
                # Karn's rule.
                st = self._peer_stats.get(pending.dst)
                sample = self.sim.now - pending.first_tx
                if st is not None and st.samples and sample > st.ewma:
                    self._record_rtt(pending.dst, sample)
            pending.on_reply(payload.body)
            return
        if kind is Batch:
            for item in payload.items:
                self._dispatch(item, src)
            return
        handler = self._handlers.get(kind)
        if handler is not None:
            handler(payload, src)
