"""Admission control: a bounded proposal pipeline with per-tenant
weighted deficit-round-robin queues (overload protection + tenant
isolation).

Pure policy, like :mod:`repro.kvstore.membership`: an :class:`Admission`
knows a clock, a command budget, a queue bound and the tenant weights —
nothing of servers, the network, Paxos groups or message types. The
server *drives* it: ``admit`` a request body (run now, queued, or
refused), let the :class:`AdmissionSlot` it hands the body ``release``
itself on the first reply, ``flush`` on crash or loss of leadership,
and ask ``retry_after`` what to tell a shed client.

Up to ``budget`` admitted commands may be in flight; waiting requests
sit in per-tenant queues (each bounded by ``queue_bound``) drained by
weighted DRR, so one flooding tenant fills only its own queue and its
own weight share of the pipeline; anything beyond a tenant's queue
bound is refused, and the caller sheds it with an explicit
Busy(retry_after) instead of silently queueing into collapse. The
untagged tenant ("") has weight 1 like any other, so single-tenant
behaviour is a plain FIFO pipeline.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Mapping


class AdmissionSlot:
    """One occupied slot of the admission pipeline, and — called — the
    ``respond`` the admitted request body replies through: the first
    reply releases the slot, every reply is passed on."""

    __slots__ = ("admission", "respond", "epoch", "admitted_at", "released",
                 "svc_divisor")

    def __init__(self, admission: "Admission", respond):
        self.admission = admission
        self.respond = respond
        self.epoch = admission._epoch
        self.admitted_at = admission._clock.now
        self.released = False
        # The EWMA estimates *per-command* service time. A batched
        # command's admit->reply span covers the whole batch's instance,
        # so the batcher sets this divisor to the batch size — without
        # it, shed clients would back off ~batch-size× too long.
        self.svc_divisor = 1

    def __call__(self, reply, nbytes: int = 0) -> None:
        if not self.released:
            self.released = True
            self.admission.release(self)
        self.respond(reply, nbytes)


class Admission:
    """The pipeline and its queues.

    ``clock`` is anything with a ``now`` attribute (the simulator);
    ``budget`` is the admitted-command bound — Paxos instances in flight
    × commands per instance; ``weights`` maps tenant -> DRR weight
    (missing tenants weigh 1).
    """

    def __init__(self, clock, budget: int, queue_bound: int,
                 weights: Mapping[str, float]):
        self._clock = clock
        self.budget = budget
        self.queue_bound = queue_bound
        self._weights = dict(weights)
        self._open_proposals = 0
        self._admission_queues: dict[str, deque] = {}
        self._drr_order: list[str] = []
        self._drr_deficit: dict[str, float] = {}
        self._drr_cursor = 0
        self._drr_fresh = True
        self._pumping = False
        # Fences stale release callbacks across flushes.
        self._epoch = 0
        # Smoothed admit->reply service time per command; feeds the
        # retry_after estimate handed to shed clients.
        self._svc_ewma = 0.0
        # Cumulative across flushes (a crash does not forget them).
        self.shed = 0
        self.shed_by_tenant: dict[str, int] = {}

    # -- read-only views (invariant probes, reports, tests) -------------

    @property
    def in_flight(self) -> int:
        """Admitted commands whose first reply has not fired yet."""
        return self._open_proposals

    @property
    def service_time(self) -> float:
        """Smoothed per-command admit->reply seconds (0 = no sample)."""
        return self._svc_ewma

    def queue_depths(self) -> dict[str, int]:
        """Waiting requests per tenant seen so far."""
        return {t: len(q) for t, q in self._admission_queues.items()}

    # -- driving ----------------------------------------------------------

    def admit(self, respond, start: Callable, tenant: str = "") -> bool:
        """Gate one proposal-bearing request through the pipeline.
        ``start(slot)`` runs the request body — immediately if a slot is
        free and no tenant is waiting, later when the DRR scheduler
        reaches this tenant's queue. Returns False, having counted the
        shed, when this tenant's queue and the pipeline are both full:
        the caller answers Busy."""
        if (
            self._open_proposals < self.budget
            and not any(self._admission_queues.values())
        ):
            self._begin(respond, start)
            return True
        q = self._tenant_queue(tenant)
        if len(q) < self.queue_bound:
            q.append((respond, start))
            self._pump()
            return True
        self.shed += 1
        self.shed_by_tenant[tenant] = self.shed_by_tenant.get(tenant, 0) + 1
        return False

    def release(self, slot: AdmissionSlot) -> None:
        """Free ``slot`` (its first reply just fired) and feed its
        admit->reply span to the per-command service-time EWMA."""
        if slot.epoch != self._epoch:
            return  # flushed since; counters already reset
        self._open_proposals -= 1
        svc = (self._clock.now - slot.admitted_at) / max(1, slot.svc_divisor)
        if self._svc_ewma == 0.0:
            self._svc_ewma = svc
        else:
            self._svc_ewma += 0.2 * (svc - self._svc_ewma)
        self._pump()

    def flush(self) -> list:
        """Reset the pipeline (crash, loss of leadership) and return
        the ``respond`` of every request that was still queued, in
        queue order, for the caller to fail. The epoch bump voids every
        outstanding release. Tenant registration (DRR order and
        weights) survives; only queued work and deficit state reset."""
        self._epoch += 1
        self._open_proposals = 0
        queued = [
            respond
            for q in self._admission_queues.values()
            for respond, _start in q
        ]
        for q in self._admission_queues.values():
            q.clear()
        self._drr_deficit = {t: 0.0 for t in self._drr_deficit}
        self._drr_cursor = 0
        self._drr_fresh = True
        return queued

    def retry_after(self, tenant: str = "") -> float:
        """Estimate when capacity frees up for this tenant: smoothed
        per-command service time scaled by how deep the tenant's own
        backlog is relative to its weight share of the command budget.
        Light tenants on a busy server get short retries; the tenant
        causing the backlog gets long ones."""
        est = self._svc_ewma if self._svc_ewma > 0.0 else 0.02
        q = self._admission_queues.get(tenant)
        backlog = len(q) if q else 0
        known = set(self._drr_order) | {tenant}
        total_w = sum(self._weight(t) for t in known)
        share = self._weight(tenant) / total_w if total_w else 1.0
        budget = max(1.0, self.budget * share)
        return min(1.0, max(0.02, est * (1.0 + backlog / budget)))

    # -- internals --------------------------------------------------------

    def _weight(self, tenant: str) -> float:
        return self._weights.get(tenant, 1.0)

    def _tenant_queue(self, tenant: str) -> deque:
        """This tenant's queue, registering the tenant with the DRR
        scheduler on first sight."""
        q = self._admission_queues.get(tenant)
        if q is None:
            q = self._admission_queues[tenant] = deque()
            self._drr_order.append(tenant)
            self._drr_deficit[tenant] = 0.0
        return q

    def _begin(self, respond, start: Callable) -> None:
        """Occupy a pipeline slot; it is released exactly once, when
        the slot (the body's respond) first fires. A request whose reply
        never comes (leadership lost mid-flight) leaks no slot: the
        flush bumps the epoch and resets the count, and a late release
        under an old epoch is a no-op."""
        self._open_proposals += 1
        start(AdmissionSlot(self, respond))

    def _pump(self) -> None:
        """Drain the per-tenant queues into free pipeline slots by
        weighted deficit round robin.

        Each visit to a tenant adds its weight to the tenant's deficit
        counter; the tenant dequeues one command per whole unit of
        deficit. A tenant whose queue empties forfeits its leftover
        deficit (standard DRR — credit does not accrue while idle).
        When the pipeline fills mid-quantum the cursor and deficit stay
        put, so the interrupted tenant resumes exactly where it left
        off on the next release. The ``_pumping`` guard folds reentrant
        calls (a synchronous respond inside ``_begin`` releasing its
        slot) into the running drain loop."""
        if self._pumping:
            return
        self._pumping = True
        try:
            while self._open_proposals < self.budget:
                if not any(self._admission_queues.values()):
                    break
                n = len(self._drr_order)
                t = self._drr_order[self._drr_cursor]
                q = self._admission_queues[t]
                if not q:
                    self._drr_deficit[t] = 0.0
                    self._drr_cursor = (self._drr_cursor + 1) % n
                    self._drr_fresh = True
                    continue
                # The quantum is granted once per visit. A visit paused
                # by a full pipeline (the return below) resumes with its
                # REMAINING deficit — re-granting on every resume would
                # hand the cursor tenant every freed slot forever.
                if self._drr_fresh:
                    self._drr_deficit[t] += self._weight(t)
                    self._drr_fresh = False
                while (
                    q
                    and self._drr_deficit[t] >= 1.0
                    and self._open_proposals < self.budget
                ):
                    self._drr_deficit[t] -= 1.0
                    respond, start = q.popleft()
                    self._begin(respond, start)
                if not q:
                    self._drr_deficit[t] = 0.0
                if self._open_proposals >= self.budget:
                    return  # paused mid-quantum; resume at this tenant
                # Quantum spent (or queue drained): next tenant.
                self._drr_cursor = (self._drr_cursor + 1) % n
                self._drr_fresh = True
        finally:
            self._pumping = False
