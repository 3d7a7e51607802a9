"""Protocol invariant probes.

These check the *replicated state* directly, complementing the
client-side linearizability check:

- **Config safety** (§3.2): quorums must satisfy Q_R + Q_W - N >= X,
  i.e. Q1 + Q2 >= N + k — the paper's safety condition. A config built
  through :class:`~repro.core.UnsafeProtocolConfig` can violate it; the
  probe catches such a weakening.
- **Unique choice**: no two replicas ever learn different values for
  the same (group, instance). (The live system also raises
  :class:`~repro.core.ConsistencyViolation` the moment this happens;
  the probe is the end-of-episode sweep.)
- **Decodability** (§3.2's point of having X-overlap quorums): every
  chosen put must remain reconstructible from the surviving replicas —
  a full copy somewhere, or >= X distinct coded shares under the
  value's own coding config. Checked after faults are healed and
  crashed servers recovered; a value lost *then* is durably lost.
- **Store agreement**: replicas at the same apply cursor hold the same
  version of every key (a log-only sweep cannot see a skipped apply).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.value import value_digest
from ..kvstore.batch import meta_of
from ..kvstore.messages import Command


@dataclass(frozen=True, slots=True)
class Violation:
    """One invariant breach."""

    kind: str     # "config" | "unique-choice" | "decodability" |
                  # "durable-integrity" | "bounded-wal" | "single-lease" |
                  # "view-convergence" | "shard-coverage" |
                  # "store-agreement"
    detail: str

    def to_jsonable(self) -> dict:
        return {"kind": self.kind, "detail": self.detail}


def check_config_safety(config) -> list[Violation]:
    """Q1 + Q2 >= N + k (equivalently: quorum overlap >= X)."""
    overlap = config.q_r + config.q_w - config.n
    if overlap < config.x:
        return [Violation(
            "config",
            f"quorum overlap Q_R+Q_W-N = {overlap} < X = {config.x} "
            f"(Q1+Q2 = {config.q_r + config.q_w} < N+k = "
            f"{config.n + config.x}): a read quorum can miss enough "
            f"shares to lose a chosen value",
        )]
    return []


def _learned(node):
    """(instance, value digest, what to call the value) of everything
    ``node`` learned: its learner records, and the digests it kept of
    the ones it retired."""
    for inst, rec in node.chosen.items():
        yield inst, value_digest(rec.value_id), repr(rec.value_id)
    for inst, digest in enumerate(node.retired_digests):
        if digest:
            yield inst, digest, f"a retired value (digest {digest:016x})"


def check_unique_choice(servers) -> list[Violation]:
    """No (group, instance) decided with two different value ids —
    retired instances included, by the digest each server kept."""
    violations = []
    num_groups = len(servers[0].groups) if servers else 0
    for g in range(num_groups):
        # instance -> (digest, value as named, server)
        decided: dict[int, tuple[int, str, str]] = {}
        for srv in servers:
            for inst, digest, named in _learned(srv.groups[g]):
                prior = decided.get(inst)
                if prior is None:
                    decided[inst] = (digest, named, srv.name)
                elif prior[0] != digest:
                    violations.append(Violation(
                        "unique-choice",
                        f"group {g} instance {inst}: {prior[2]} learned "
                        f"{prior[1]} but {srv.name} learned {named}",
                    ))
    return violations


def check_decodability(servers) -> list[Violation]:
    """Every chosen put is reconstructible from the up servers.

    Meant to run at the end of an episode, after heal + recover +
    settle: transiently missing fragments during faults are expected
    (that is the whole point of quorum overlap); missing *after* full
    recovery means the value is gone for good.
    """
    violations = []
    up = [srv for srv in servers if srv.up]
    num_groups = len(servers[0].groups) if servers else 0
    for g in range(num_groups):
        for inst, value_id in sorted(_live_put_instances(up, g).items()):
            if _decodable(up, g, inst, value_id):
                continue
            violations.append(Violation(
                "decodability",
                f"group {g} instance {inst} (value {value_id!r}) is not "
                f"reconstructible from the {len(up)} surviving replicas",
            ))
    return violations


def _is_live_put(meta) -> bool:
    """Put-like decisions whose bytes must stay reconstructible: client
    puts and migration ``copy`` re-proposals (which carry the full
    value into a key's new owner group)."""
    if not isinstance(meta, Command):
        return False
    return meta.op == "put" or (meta.op == "copy" and meta.arg != "tombstone")


def _live_put_instances(srvs, group: int) -> dict[int, str]:
    """Decided put instances whose bytes must still be reconstructible,
    as ``{instance: value_id}`` unioned across ``srvs``.

    A put that is both *superseded* and *compacted* (below some
    replica's checkpoint floor) is exempt. Superseded means the newest
    version any of ``srvs`` stores for its key is another one: a later
    put or a delete overwrote it, or it never took effect (a retry the
    exactly-once table dropped). Snapshot rebuild streams only the
    newest version per key, so fragments of the others disappear by
    design as wiped replicas are rebuilt, and a checkpoint retires them
    on every replica that took it (DESIGN.md §5) — the state machine no
    longer needs them, and a probe demanding them would flag healthy
    clusters after >=2 distinct wipe/rebuild cycles, or once a replica
    that lags behind is the last to hold a record of them.

    Supersession is *cross-group*: under dynamic sharding a store
    version encodes the shard-map era above the Paxos instance
    (``(mapv << 48) | instance``), so a migrated key's later-era
    ``copy``/put in its new owner group supersedes the old group's
    instances — which would otherwise stay pinned forever once the key
    stops being written in the old group. Static mode (era always 0,
    one owner per key) degenerates to a per-group rule.
    """
    instances: dict[int, str] = {}
    enc_of: dict[int, tuple[str, int]] = {}  # instance -> (key, version)
    for srv in srvs:
        for inst, rec in srv.groups[group].chosen.items():
            meta = meta_of(rec)
            if _is_live_put(meta):
                instances.setdefault(inst, rec.value_id)
                enc_of.setdefault(inst, (meta.key, (meta.mapv << 48) | inst))
    latest: dict[str, int] = {}  # key -> newest version stored anywhere
    for srv in srvs:
        for key in srv.store.keys():
            version = srv.store.get_entry(key).version
            if version > latest.get(key, -1):
                latest[key] = version
    floor = max((srv.groups[group].retired_below for srv in srvs), default=0)
    return {
        inst: vid for inst, vid in instances.items()
        if inst >= floor
        or latest.get(enc_of[inst][0], enc_of[inst][1]) == enc_of[inst][1]
    }


def _decodable(up, group: int, instance: int, value_id: str) -> bool:
    # A replica can contribute up to two shares: the one its chosen
    # record carries (catch-up may have installed *another* replica's
    # share there) and the one its acceptor originally accepted — both
    # are durable local state.
    shares = {}
    config = None
    for srv in up:
        node = srv.groups[group]
        rec = node.chosen.get(instance)
        if rec is not None and rec.value_id == value_id and rec.value is not None:
            return True  # a full copy survives
        candidates = []
        if rec is not None and rec.share is not None:
            candidates.append(rec.share)
        accepted = node.acceptor.accepted_share(instance)
        if accepted is not None:
            candidates.append(accepted)
        for share in candidates:
            if share.value_id != value_id:
                continue
            if share.corrupt:
                continue  # rotten bytes cannot feed the decoder
            if config is None:
                config = share.config
            elif share.config != config:
                continue  # mixed codings cannot be combined
            shares[share.index] = share
    return config is not None and len(shares) >= config.x


def check_durable_integrity(servers) -> list[Violation]:
    """Every surviving replica's durable state passes checksum
    verification.

    Run after heal + settle: the background scrubber has had time to
    repair every bit-rotted share (from peers via RS decode) or
    quarantine votes for provably losing proposals. A record still
    checksum-invalid at this point means the repair pipeline failed —
    either the scrubber never picked it up or the cluster could not
    supply enough clean shares for a value that must be recoverable.
    Torn records cannot appear here: recovery truncates them before
    the server rejoins.
    """
    violations = []
    for srv in servers:
        if not srv.up:
            continue
        bad = srv.wal.verify()
        for rec in bad:
            state = "torn" if rec.torn else "checksum-invalid"
            violations.append(Violation(
                "durable-integrity",
                f"{srv.name} wal g{rec.tag} lsn={rec.lsn} is {state} after "
                f"settle (payload {rec.payload!r:.120})",
            ))
    return violations


def check_bounded_wal(servers) -> list[Violation]:
    """Checkpointing keeps every server's WAL bounded.

    Only meaningful on servers with checkpointing enabled
    (``checkpoint_interval > 0``); a no-op otherwise. Three probes per
    up server:

    - no durable record sits below the server's compaction floor
      (truncation must actually remove the compacted prefix);
    - the durable record count never exceeds the LSN span above the
      floor (the WAL cannot silently grow past what compaction left);
    - checkpoints keep happening — after a few intervals of uptime a
      server must have completed one recently, else compaction has
      stalled and the WAL grows without bound.
    """
    violations = []
    for srv in servers:
        interval = srv.cfg.checkpoint_interval
        if not srv.up or interval <= 0:
            continue
        wal = srv.wal
        floor = wal.compaction_floor
        below = [rec.lsn for rec in wal.durable if rec.lsn < floor]
        if below:
            violations.append(Violation(
                "bounded-wal",
                f"{srv.name} holds {len(below)} durable records below its "
                f"compaction floor {floor} (first lsn={below[0]})",
            ))
        span = wal.next_lsn - floor
        if len(wal.durable) > span:
            violations.append(Violation(
                "bounded-wal",
                f"{srv.name} holds {len(wal.durable)} durable records but "
                f"only {span} LSNs above the compaction floor",
            ))
        # Cadence: give freshly (re)started servers slack — recovery,
        # catch-up and the staggered first checkpoint all precede the
        # first save.
        last = srv.checkpointer.last_at
        if srv.sim.now > 4 * interval:
            if last is None:
                violations.append(Violation(
                    "bounded-wal",
                    f"{srv.name} never completed a checkpoint "
                    f"(interval={interval}, now={srv.sim.now:.2f})",
                ))
            elif srv.sim.now - last > 4 * interval:
                violations.append(Violation(
                    "bounded-wal",
                    f"{srv.name} last checkpoint at {last:.2f} is stale "
                    f"(now={srv.sim.now:.2f}, interval={interval})",
                ))
    return violations


def check_no_starvation(servers) -> list[Violation]:
    """Admission control must shed or serve — never park forever.

    After the cluster settles (faults healed, workload stopped, clients
    drained), no live server may still hold queued admissions or open
    pipeline slots: a non-empty queue at quiescence means requests were
    admitted into a pipeline that stopped draining (a starved client
    never got *any* answer — not even Busy), and a stuck open-proposal
    count means a release path leaked.

    Queues are per tenant (weighted fair queueing), so the probe names
    the starved tenant: isolating a noisy neighbour must never turn
    into silently parking a quiet one.
    """
    violations = []
    for srv in servers:
        if not srv.up:
            continue
        for tenant, depth in srv.admission.queue_depths().items():
            if depth:
                label = f"tenant {tenant!r}" if tenant else "untagged tenant"
                violations.append(Violation(
                    "no-starvation",
                    f"{srv.name} still holds {depth} queued admission(s) "
                    f"for {label} at quiescence",
                ))
        if srv.admission.in_flight:
            violations.append(Violation(
                "no-starvation",
                f"{srv.name} reports {srv.admission.in_flight} open "
                f"proposal slot(s) at quiescence",
            ))
    return violations


def check_single_lease(servers) -> list[Violation]:
    """At most one server believes its leader lease is valid *now*.

    The §4.3 drift bound (Δ at the leader vs Δ + δ at followers)
    guarantees an old leader's lease expires before any successor's can
    begin, so two servers simultaneously holding ``is_leader_server``
    with ``held_by_leader()`` true means fast reads could be served from
    two divergent stores at once. Instantaneous — the chaos runner
    samples it throughout an episode, not just at the end.
    """
    holders = [
        srv.name for srv in servers
        if srv.up and srv.is_leader_server and srv.lease.held_by_leader()
    ]
    if len(holders) > 1:
        return [Violation(
            "single-lease",
            f"{len(holders)} servers hold a valid leader lease at once: "
            f"{', '.join(sorted(holders))}",
        )]
    return []


def _quorums(config) -> tuple[int, int, int, int]:
    return (config.n, config.q_r, config.q_w, config.x)


def check_view_convergence(servers) -> list[Violation]:
    """Every settled replica agrees on the membership view, every one of
    its groups runs that view, and the current view's members alone can
    reconstruct every chosen put.

    Run after heal + settle, like decodability. Two classes of server
    are exempt from the agreement check: those still mid-rebuild (the
    snapshot transfer hasn't landed, so they haven't replayed the view
    log yet) and evicted nodes (a removed replica learns the shrink
    view and retires — its own id leaves its member set — so it cannot
    be expected to track later epochs until re-admission).

    A view change is a chosen instance per group (§4.6), so a leader
    that dies between groups can leave a replica whose server-level
    view moved on while one of its groups still runs the old quorums
    and coding — and would not survive the next failure. Each group's
    ``(N, Q_R, Q_W, X)`` and peer set must therefore equal its server's.

    The last half is the self-healing PR's durability argument: after
    an eviction shrinks θ(X, N), the *remaining members* alone must
    still hold >= X clean shares (or a full copy) of every chosen put —
    i.e. the placement-confirmation barrier (§4.6 optimization 2)
    actually ran before the removal was proposed. Plain decodability
    over all up servers would miss a leader that leaned on the evicted
    node's shares.
    """
    violations = []
    settled = [
        srv for srv in servers
        if srv.up
        and not srv.rebuilding
        and srv.node_id in srv.member_ids
    ]
    if not settled:
        return violations
    views: dict[tuple, list[str]] = {}
    for srv in settled:
        members = tuple(sorted(srv.member_ids))
        quorums = _quorums(srv.config)
        key = (srv.view_epoch, members, quorums)
        views.setdefault(key, []).append(srv.name)
        for g, node in enumerate(srv.groups):
            runs = (_quorums(node.config), tuple(sorted(node.peers)))
            if runs != (quorums, members):
                violations.append(Violation(
                    "view-convergence",
                    f"{srv.name} group {g} runs (N,Qr,Qw,X)={runs[0]} over "
                    f"{list(runs[1])}, but its view (epoch "
                    f"{srv.view_epoch}) is {quorums} over {list(members)}",
                ))
    if len(views) > 1:
        desc = "; ".join(
            f"epoch={epoch} members={list(members)} "
            f"(N={cfg[0]},Qr={cfg[1]},Qw={cfg[2]},X={cfg[3]}): "
            f"{', '.join(sorted(names))}"
            for (epoch, members, cfg), names in sorted(views.items())
        )
        violations.append(Violation(
            "view-convergence",
            f"{len(views)} distinct views among settled replicas: {desc}",
        ))
    latest = max(views)
    members = set(latest[1])
    member_srvs = [s for s in servers if s.up and s.node_id in members]
    num_groups = len(servers[0].groups) if servers else 0
    for g in range(num_groups):
        for inst, value_id in sorted(
            _live_put_instances(member_srvs, g).items()
        ):
            if _decodable(member_srvs, g, inst, value_id):
                continue
            violations.append(Violation(
                "view-convergence",
                f"group {g} instance {inst} (value {value_id!r}) is not "
                f"reconstructible from the current view's "
                f"{len(member_srvs)} member(s) {sorted(members)}",
            ))
    return violations


def check_shard_coverage(servers) -> list[Violation]:
    """Dynamic sharding: every up replica's range map is a *partition*
    of the keyspace — total (starts at "", ends at +inf), contiguous
    (each hi equals the next lo), non-overlapping, every range owned by
    a distinct in-pool group — and any two replicas holding the same
    map version hold *identical* maps (maps are replicated values;
    equal version must mean equal content). The structure is
    re-verified from the raw range tuples, not delegated to ShardMap's
    own validation. Hash maps (static mode) pass trivially.
    """
    violations = []
    by_version: dict[int, tuple] = {}
    for srv in servers:
        if not srv.up:
            continue
        m = srv.shard_map
        if not m.is_range_map:
            continue
        r = m.ranges
        problems = []
        if r[0][0] != "":
            problems.append("first range does not start at the empty key")
        if r[-1][1] is not None:
            problems.append("last range does not extend to +inf")
        owners = [g for _lo, _hi, g in r]
        if len(set(owners)) != len(owners):
            problems.append(f"a group owns two ranges ({owners})")
        for i in range(len(r) - 1):
            if r[i][1] != r[i + 1][0]:
                problems.append(
                    f"gap/overlap between [{r[i][0]!r}, {r[i][1]!r}) and "
                    f"[{r[i + 1][0]!r}, ...)"
                )
        for lo, hi, g in r:
            if hi is not None and not lo < hi:
                problems.append(f"empty/inverted range [{lo!r}, {hi!r})")
            if not 0 <= g < m.num_groups:
                problems.append(f"owner {g} outside the group pool")
        for p in problems:
            violations.append(Violation(
                "shard-coverage", f"{srv.name} map v{m.version}: {p}",
            ))
        prior = by_version.get(m.version)
        if prior is None:
            by_version[m.version] = (m, srv.name)
        elif prior[0] != m:
            violations.append(Violation(
                "shard-coverage",
                f"map version {m.version} differs between {prior[1]} and "
                f"{srv.name}: {prior[0]!r} vs {m!r}",
            ))
    return violations


def check_store_agreement(servers) -> list[Violation]:
    """Replicas that applied the same prefix of a group's log hold the
    same state for it: for each group, the up, non-rebuilding replicas
    whose apply cursor equals the group's maximum agree on ``(version,
    tombstone)`` for every key that group owns.

    The state-machine half of unique choice, which compares log records
    only: a replica that installed a snapshot and *skipped* an instance
    the snapshot did not reflect (DESIGN.md §5 "A snapshot's floor")
    has every record, the right cursor and a stale store. An entry is
    owned by the group that chose it (``entry.group``, or the map's
    route when untagged); a replica further ahead in *another* group
    may already hold that group's later-era copy of a migrated key, so
    a key owned elsewhere on either side is judged under that group.
    """
    violations = []
    live = [s for s in servers if s.up and not s.rebuilding]
    for g in range(len(live[0].groups) if live else 0):
        top = max(s.groups[g].apply_cursor for s in live)
        views = []  # (name, {key: (version, tombstone), or None if not g's})
        for srv in live:
            if srv.groups[g].apply_cursor != top:
                continue
            held = {}
            for key in srv.store.keys():
                e = srv.store.get_entry(key)
                owner = e.group if e.group >= 0 else srv.shard_map.group_of(key)
                held[key] = (e.version, e.tombstone) if owner == g else None
            views.append((srv.name, held))
        ref_name, ref = views[0]
        for name, held in views[1:]:
            for key in sorted(ref.keys() | held.keys()):
                a, b = ref.get(key, "absent"), held.get(key, "absent")
                if a is not None and b is not None and a != b:
                    violations.append(Violation(
                        "store-agreement",
                        f"group {g} key {key!r} at cursor {top}: {ref_name} "
                        f"holds (version, tombstone) {a} but {name} holds {b}",
                    ))
    return violations


def check_cluster(servers, config) -> list[Violation]:
    """All replicated-state probes in one sweep."""
    return (
        check_config_safety(config)
        + check_unique_choice(servers)
        + check_decodability(servers)
        + check_durable_integrity(servers)
        + check_bounded_wal(servers)
        + check_no_starvation(servers)
        + check_single_lease(servers)
        + check_view_convergence(servers)
        + check_shard_coverage(servers)
        + check_store_agreement(servers)
    )
