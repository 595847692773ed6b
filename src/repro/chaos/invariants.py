"""Protocol invariants validated after every fault run.

Each checker inspects one correctness property the paper claims survives
adversity, and yields human-readable violation strings (nothing = pass):

- ``cqe-conservation`` — no completion lost or invented: every posted
  send eventually produced exactly one observed CQE, of ok or error
  status (a flushed WR is completed, not lost; §5.3's loss check), and
  in SEND mode the receiver consumed exactly as many messages as the
  sender completed,
- ``wr-ordering`` — per-QP completion order preserved, payloads intact
  (§5.3's order/content checks),
- ``completion-status`` — no error-status completions unless the plan
  injected QP→ERR faults (which legitimately flush),
- ``translation-bijective`` — the indirection layer's QPN table and each
  guest lib's lkey table remain injective: no two virtual resources ever
  share one physical identity (§3.2's table discipline),
- ``wbs-drained`` — wait-before-stop left nothing behind: fake CQs fully
  consumed, no outstanding CQ events (§3.4),
- ``blackout-accounting`` — MigrationReport timestamps monotonic, phase
  durations non-negative and summing within the blackout window, WBS
  wall/thread times consistent (§5.2's measurement integrity),
- ``service-continuity`` — after the last migration attempt the workload
  lives on exactly one server (source after rollback, destination after
  commit), with no process left frozen (§4's all-or-nothing contract),
- ``sim-health`` — no simulator process died with an exception,
- ``fabric-accounting`` — every dropped message is accounted to exactly
  one cause in the fault plan (a drop rule or a partition),
- ``fleet-placement`` — after a fleet drain every container has exactly
  one live placement, agreeing with the state store: nothing lost,
  nothing split-brained, nothing left frozen (skipped outside fleet
  runs),
- ``lease-fencing`` — every container's lease chain from the FleetState
  store shows strictly increasing fencing epochs, non-overlapping
  holder windows, holder/placement agreement, and no container serving
  from a fenced host — proving no split-brain was reachable even across
  partitions (skipped outside fleet runs),
- ``kv-linearizable`` — the KV store's operation history is real-time
  linearizable against the server's apply log, and CAS lock grants were
  mutually exclusive (skipped when no KV endpoints ran).

The context scrapes the whole stack into a
:class:`~repro.obs.metrics.MetricsRegistry` first, so checkers read the
same numbers an operator would, and its snapshot (``ctx.snapshot``)
doubles as the determinism digest of the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Tuple

from repro.obs.digest import sha256

__all__ = ["InvariantContext", "InvariantReport", "InvariantRegistry",
           "DEFAULT_REGISTRY"]

Checker = Callable[["InvariantContext"], Iterable[str]]


class InvariantContext:
    """Everything a checker may inspect about one finished fault run."""

    def __init__(self, tb, world=None, endpoints=(), pairs=(), reports=(),
                 plan=None, workload_errors=(), fleet=None):
        from repro.obs import MetricsRegistry

        self.tb = tb
        self.world = world
        self.endpoints = list(endpoints)
        #: (sender, receiver) endpoint pairs for cross-endpoint accounting
        self.pairs = list(pairs)
        self.reports = list(reports)
        self.plan = plan
        #: the :class:`~repro.fleet.Fleet` for fleet-scale runs (else None)
        self.fleet = fleet
        #: scenario-level failures the harness itself observed
        self.workload_errors = list(workload_errors)
        metrics = MetricsRegistry()
        metrics.scrape_testbed(tb, world)
        if plan is not None:
            metrics.scrape_chaos(plan)
        if fleet is not None:
            metrics.scrape_fleet(fleet)
        self.snapshot = metrics.snapshot()

    @property
    def expects_status_errors(self) -> bool:
        return self.plan is not None and self.plan.expects_status_errors


@dataclass
class InvariantReport:
    """The outcome of one registry run."""

    checked: List[str] = field(default_factory=list)
    violations: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        lines = []
        failed = {name for name, _ in self.violations}
        for name in self.checked:
            lines.append(f"{'VIOLATION' if name in failed else 'ok':>9}  {name}")
        for name, message in self.violations:
            lines.append(f"           {name}: {message}")
        return "\n".join(lines)

    def digest_input(self) -> str:
        return "\n".join(self.checked
                         + [f"{n}:{m}" for n, m in self.violations])


class InvariantRegistry:
    """Ordered, extensible set of named checkers."""

    def __init__(self):
        self._checkers: List[Tuple[str, Checker]] = []

    def register(self, name: str):
        def decorate(fn: Checker) -> Checker:
            if any(existing == name for existing, _ in self._checkers):
                raise ValueError(f"invariant checker {name!r} already registered")
            self._checkers.append((name, fn))
            return fn
        return decorate

    def names(self) -> List[str]:
        return [name for name, _ in self._checkers]

    def run(self, ctx: InvariantContext) -> InvariantReport:
        report = InvariantReport()
        for name, checker in self._checkers:
            report.checked.append(name)
            try:
                for violation in checker(ctx) or ():
                    report.violations.append((name, violation))
            except Exception as exc:  # a crashed checker is itself a failure
                report.violations.append((name, f"checker crashed: {exc!r}"))
        return report


DEFAULT_REGISTRY = InvariantRegistry()


@DEFAULT_REGISTRY.register("cqe-conservation")
def _check_cqe_conservation(ctx):
    for ep in ctx.endpoints:
        if not getattr(ep, "_sender_active", False):
            continue
        for conn in ep.connections:
            # An error or flush CQE completes its WR too: posted = ok + error.
            errors = conn.errors
            if conn.outstanding != 0:
                yield (f"{ep.name} qp#{conn.index}: {conn.outstanding} posted "
                       f"WRs produced no CQE, neither ok nor error status")
            if conn.completed + errors != conn.next_seq:
                yield (f"{ep.name} qp#{conn.index}: posted {conn.next_seq} "
                       f"sends but observed {conn.completed} ok + {errors} "
                       f"error-status completions")
            # ok CQEs are a prefix: a QP in error completes nothing ok.
            if conn.expect_send_seq != conn.next_seq - errors:
                yield (f"{ep.name} qp#{conn.index}: ok completion sequence "
                       f"ended at {conn.expect_send_seq}, expected "
                       f"{conn.next_seq - errors} (duplicated or skipped CQE)")
    for sender, receiver in ctx.pairs:
        if sender.mode != "send":
            continue
        if receiver.stats.recv_completed != sender.stats.completed:
            yield (f"{receiver.name} consumed {receiver.stats.recv_completed} "
                   f"messages but {sender.name} completed "
                   f"{sender.stats.completed} sends")


@DEFAULT_REGISTRY.register("wr-ordering")
def _check_wr_ordering(ctx):
    for ep in ctx.endpoints:
        for err in ep.stats.order_errors[:5]:
            yield f"{ep.name}: {err}"
        for err in ep.stats.content_errors[:5]:
            yield f"{ep.name}: {err}"


@DEFAULT_REGISTRY.register("completion-status")
def _check_completion_status(ctx):
    if ctx.expects_status_errors:
        return
    for ep in ctx.endpoints:
        for err in ep.stats.status_errors[:5]:
            yield f"{ep.name}: {err}"


@DEFAULT_REGISTRY.register("translation-bijective")
def _check_translation_bijective(ctx):
    if ctx.world is None:
        return
    for server_name in (s.name for s in ctx.tb.servers):
        layer = ctx.world.layer(server_name)
        virtuals = [v for _p, v in layer.qpn_table.entries()]
        if len(virtuals) != len(set(virtuals)):
            dupes = sorted({v for v in virtuals if virtuals.count(v) > 1})
            yield (f"{server_name}: QPN table maps multiple physical QPNs to "
                   f"virtual {', '.join(hex(v) for v in dupes)}")
    for lib in ctx.world.all_libs():
        physical = [p for p in lib.state.lkey_table._physical if p is not None]
        if len(physical) != len(set(physical)):
            yield (f"pid{lib.process.pid}: lkey table aliases one physical "
                   f"lkey under multiple virtual keys")


@DEFAULT_REGISTRY.register("wbs-drained")
def _check_wbs_drained(ctx):
    if ctx.world is None:
        return
    for lib in ctx.world.all_libs():
        for vcq in lib.virt_cqs:
            if vcq.fake:
                yield (f"pid{lib.process.pid}: {len(vcq.fake)} fake-CQ "
                       f"entries were never consumed after restore")
        if lib.unfinished_cq_events:
            yield (f"pid{lib.process.pid}: {lib.unfinished_cq_events} CQ "
                   f"events still outstanding")


@DEFAULT_REGISTRY.register("blackout-accounting")
def _check_blackout_accounting(ctx):
    eps = 1e-9
    for i, report in enumerate(ctx.reports):
        tag = f"migration#{i}"
        if report.aborted:
            # A transactional rollback may legitimately have entered (and
            # unwound) wait-before-stop; a *voluntary* abort must not have.
            if report.t_suspend != 0.0 and not report.rolled_back:
                yield f"{tag}: aborted migration entered wait-before-stop"
            if report.t_resume != 0.0:
                yield f"{tag}: aborted migration resumed on the destination"
            continue
        marks = [("t_start", report.t_start),
                 ("t_presetup_done", report.t_presetup_done),
                 ("t_suspend", report.t_suspend),
                 ("t_freeze", report.t_freeze),
                 ("t_resume", report.t_resume),
                 ("t_end", report.t_end)]
        for (a_name, a), (b_name, b) in zip(marks, marks[1:]):
            if b < a - eps:
                yield f"{tag}: {b_name}={b} precedes {a_name}={a}"
        phases = dict(report.breakdown.ordered())
        for name, duration in phases.items():
            if duration < 0:
                yield f"{tag}: phase {name} has negative duration {duration}"
        if sum(phases.values()) > report.blackout_s + eps:
            yield (f"{tag}: phase sum {sum(phases.values())} exceeds "
                   f"blackout {report.blackout_s}")
        if abs(report.wbs_wall_s - (report.t_freeze - report.t_suspend)) > eps:
            yield (f"{tag}: wbs_wall_s={report.wbs_wall_s} disagrees with "
                   f"t_freeze-t_suspend={report.t_freeze - report.t_suspend}")
        if report.wbs_elapsed_s > report.wbs_wall_s + eps:
            yield (f"{tag}: per-thread WBS time {report.wbs_elapsed_s} "
                   f"exceeds the WBS wall window {report.wbs_wall_s}")
        if report.blackout_s > report.communication_blackout_s + eps:
            yield f"{tag}: service blackout exceeds communication blackout"


@DEFAULT_REGISTRY.register("service-continuity")
def _check_service_continuity(ctx):
    """Exactly one server runs the workload after the dust settles.

    A rolled-back migration must leave the container on the source,
    unfrozen; a committed one must leave it adopted by the destination.
    Either way the container exists on exactly one of the two servers and
    none of its processes is still frozen (§4's all-or-nothing contract).
    """
    servers = {server.name: server for server in ctx.tb.servers}
    last = {}
    for report in ctx.reports:
        if report.container_name:
            last[report.container_name] = report
    for name, report in last.items():
        source = servers.get(report.source_name)
        dest = servers.get(report.dest_name)
        if source is None or dest is None:
            continue
        holder, other = (source, dest) if report.aborted else (dest, source)
        container = holder.containers.get(name)
        if container is None:
            yield (f"container {name!r}: missing on {holder.name} after "
                   f"{'rollback' if report.aborted else 'migration'}")
        elif any(p.frozen for p in container.processes):
            frozen = [p.name for p in container.processes if p.frozen]
            yield (f"container {name!r}: processes still frozen on "
                   f"{holder.name}: {', '.join(frozen)}")
        if name in other.containers:
            yield (f"container {name!r}: present on both {holder.name} "
                   f"and {other.name} (split-brain)")


@DEFAULT_REGISTRY.register("sim-health")
def _check_sim_health(ctx):
    for process in ctx.tb.sim.failed_processes[:5]:
        yield f"simulator process failed: {process!r}"
    for error in ctx.workload_errors:
        yield error


@DEFAULT_REGISTRY.register("fabric-accounting")
def _check_fabric_accounting(ctx):
    network = ctx.tb.network
    if ctx.plan is None:
        return
    accounted = (ctx.plan.stats.fabric_dropped
                 + ctx.plan.stats.partition_dropped)
    if network.messages_dropped != accounted:
        yield (f"network dropped {network.messages_dropped} messages but the "
               f"fault plan accounts for {accounted} "
               f"({ctx.plan.stats.fabric_dropped} rule-dropped + "
               f"{ctx.plan.stats.partition_dropped} partition-severed)")


@DEFAULT_REGISTRY.register("fleet-placement")
def _check_fleet_placement(ctx):
    """Every container the fleet knows about has exactly one live
    placement, and it agrees with the state store — no container lost in
    a drain, none split-brained across two hosts, none left frozen.
    Skipped outside fleet runs (``ctx.fleet is None``).
    """
    fleet = getattr(ctx, "fleet", None)
    if fleet is None:
        return
    state = fleet.state
    live = {}
    for server in fleet.servers:
        for name, container in server.containers.items():
            live.setdefault(name, []).append((server.name, container))
    for name in state.containers:
        holders = live.get(name, [])
        if not holders:
            yield f"container {name!r}: no live placement on any host (lost)"
            continue
        if len(holders) > 1:
            hosts = ", ".join(host for host, _ in holders)
            yield (f"container {name!r}: live on {len(holders)} hosts "
                   f"({hosts}) — split-brain")
            continue
        host, container = holders[0]
        expected = state.host_of(name)
        if host != expected:
            yield (f"container {name!r}: live on {host} but the state "
                   f"store places it on {expected}")
        frozen = [p.name for p in container.processes if p.frozen]
        if frozen:
            yield (f"container {name!r}: processes still frozen on "
                   f"{host}: {', '.join(frozen)}")
    for name, holders in live.items():
        if name not in state.containers:
            yield (f"container {name!r}: live on "
                   f"{', '.join(h for h, _ in holders)} but unknown to "
                   f"the state store")


@DEFAULT_REGISTRY.register("lease-fencing")
def _check_lease_fencing(ctx):
    """No split-brain was *reachable*: replay every container's lease
    chain from the FleetState store and prove the fencing discipline held
    (DESIGN.md §15).  Epochs must be strictly increasing with exactly one
    bump per handover, lease windows must never overlap (two valid
    holders at one instant is the split-brain), the current holder must
    agree with the placement map, and no container may be live on a host
    the store has fenced for it.  Skipped outside fleet runs.
    """
    import math as _math

    fleet = getattr(ctx, "fleet", None)
    if fleet is None:
        return
    state = fleet.state
    now = fleet.sim.now
    live = {}
    for server in fleet.servers:
        for name in server.containers:
            live.setdefault(name, []).append(server.name)
    for name in state.containers:
        chain = state.leases.leases(name)
        if not chain:
            yield f"container {name!r}: no lease chain in the store"
            continue
        for prev, lease in zip(chain, chain[1:]):
            if lease.epoch <= prev.epoch:
                yield (f"container {name!r}: epoch {lease.epoch} does not "
                       f"exceed predecessor epoch {prev.epoch} "
                       f"(fencing token reused)")
            prev_end = min(prev.closed_s, prev.expires_s)
            if prev_end == _math.inf:
                yield (f"container {name!r}: epoch {prev.epoch} "
                       f"({prev.holder}) never closed yet epoch "
                       f"{lease.epoch} ({lease.holder}) was granted — "
                       f"two open leases")
            elif lease.granted_s < prev_end - 1e-12:
                yield (f"container {name!r}: epoch {lease.epoch} "
                       f"({lease.holder}) granted at t={lease.granted_s:.9f} "
                       f"overlaps epoch {prev.epoch} ({prev.holder}) open "
                       f"until t={prev_end:.9f} — split-brain window")
        holder = state.leases.holder(name)
        placed = state.host_of(name)
        if holder != placed:
            yield (f"container {name!r}: lease held by {holder!r} but the "
                   f"state store places it on {placed!r}")
        for host in live.get(name, ()):
            if state.leases.fenced(name, host, now):
                yield (f"container {name!r}: live on {host!r}, which the "
                       f"store has fenced for it (a fenced source must "
                       f"stop serving)")


@DEFAULT_REGISTRY.register("kv-linearizable")
def _check_kv_linearizable(ctx):
    """Real-time linearizability of the KV history (atomic-register
    semantics per key, versions as the witness) plus CAS mutual
    exclusion.  Skipped when the run had no KV endpoints."""
    clients = [ep for ep in ctx.endpoints if hasattr(ep, "kv_history")]
    servers = [ep for ep in ctx.endpoints if hasattr(ep, "kv_applies")]
    if not clients and not servers:
        return
    if not servers:
        yield "KV clients ran without a KV server in the invariant context"
        return
    from repro.apps.kvhistory import check_kv_history

    for server in servers:
        own = [c for c in clients if c.kv is server]
        for violation in check_kv_history(own, server):
            yield violation


def run_digest(ctx: InvariantContext, report: InvariantReport) -> str:
    """Deterministic digest of the run: the full metrics snapshot plus the
    invariant report.  Two runs with the same seed must agree exactly."""
    parts = [f"{name}={value!r}" for name, value in sorted(ctx.snapshot.items())]
    parts.append(report.digest_input())
    for i, mreport in enumerate(ctx.reports):
        parts.append(f"report{i}="
                     f"{mreport.t_start!r},{mreport.t_suspend!r},"
                     f"{mreport.t_freeze!r},{mreport.t_resume!r},"
                     f"{mreport.t_end!r},{mreport.wbs_elapsed_s!r},"
                     f"{mreport.aborted},{mreport.rolled_back},"
                     f"{mreport.rolled_forward}")
    if ctx.plan is not None:
        parts.append(",".join(ctx.plan.boundaries_seen))
    return sha256("\n".join(parts).encode()).hexdigest()
