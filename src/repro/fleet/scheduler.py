"""The fleet migration scheduler: policies, admission control, placement.

Turns a fleet *intent* — drain this host, drain this rack, rebalance,
evict these containers — into a plan of :class:`MigrationJob`\\ s, then
executes the plan as a rolling wave of
:class:`~repro.resilience.MigrationSupervisor` runs under admission
control.  Nothing here migrates anything itself; every actual move is
the paper's per-migration state machine, retried and rerouted by the
supervisor.  The scheduler decides only *when* each job may start and
*where* it should land.

Admission control (:class:`AdmissionLimits`) bounds concurrent
migrations fleet-wide, per host, per rack, and per ToR trunk — the knob
the concurrency sweep in ``repro.experiments fleet`` turns.  Placement
policies (``pack`` / ``spread`` / ``least-loaded``) rank candidate hosts
with deterministic tie-breaks, so the same seed produces the same
:class:`~repro.fleet.report.FleetReport` digest at any ``--jobs``
setting.

Determinism contract: the poll loop inspects state in insertion order,
ranks candidates with total-order keys, and takes every timestamp from
the simulator — no wall-clock, no unseeded randomness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.resilience import MigrationSupervisor

from .journal import SchedulerJournal
from .lease import LeaseGuard
from .report import FleetReport, MigrationOutcome

__all__ = ["AdmissionLimits", "MigrationJob", "MigrationScheduler",
           "PLACEMENT_POLICIES", "SCHEDULING_POLICIES",
           "drain_with_recovery"]

#: scheduler poll interval: reap finished migrations, admit new ones
POLL_S = 200e-6

PLACEMENT_POLICIES = ("pack", "spread", "least-loaded")
SCHEDULING_POLICIES = ("drain", "rebalance", "evict")


@dataclass
class AdmissionLimits:
    """Concurrency caps the scheduler enforces at admission time."""

    #: simultaneous migrations fleet-wide
    fleet: int = 4
    #: simultaneous migrations touching one host (as source or dest)
    per_host: int = 2
    #: simultaneous migrations touching one rack (source- or dest-side)
    per_rack: int = 8
    #: simultaneous cross-rack migrations using one rack's trunk
    per_uplink: int = 8

    def __post_init__(self):
        for name in ("fleet", "per_host", "per_rack", "per_uplink"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"AdmissionLimits.{name} must be >= 1, "
                                 f"got {value}")


@dataclass
class MigrationJob:
    """One planned move; ``dest`` is chosen at admission time."""

    container: str
    source: str
    #: hosts never eligible as destination (e.g. every host being drained)
    exclude: Tuple[str, ...] = ()
    dest: str = ""
    t_admitted: float = 0.0
    #: postponed jobs (PrecopyDiverged) are not admitted before this time
    not_before: float = 0.0
    #: how many times the scheduler has requeued this job with backoff
    requeues: int = 0


class MigrationScheduler:
    """Plans and executes fleet migration policies over one fleet."""

    def __init__(self, fleet, limits: Optional[AdmissionLimits] = None,
                 placement: str = "least-loaded", budget: int = 3,
                 backoff_s: float = 2e-3, chaos=None,
                 requeue_backoff_s: float = 10e-3, max_requeues: int = 2):
        if placement not in PLACEMENT_POLICIES:
            raise ValueError(f"unknown placement policy {placement!r}; "
                             f"choose from {PLACEMENT_POLICIES}")
        self.fleet = fleet
        self.state = fleet.state
        self.world = fleet.world
        self.sim = fleet.sim
        self.limits = limits or AdmissionLimits()
        self.placement = placement
        self.budget = budget
        self.backoff_s = backoff_s
        #: scheduler-level requeue backoff for postponed (PrecopyDiverged)
        #: jobs — deterministic doubling, no RNG
        self.requeue_backoff_s = requeue_backoff_s
        self.max_requeues = max_requeues
        #: optional FaultPlan: armed on every attempt (and its RNG seeds
        #: the supervisor's backoff jitter), same contract as torture runs
        self.chaos = chaos
        #: raw per-migration reports, for invariants and post-mortems
        #: (aliased to the journal's list once execute() runs, so reports
        #: survive scheduler crashes)
        self.migration_reports: List[object] = []
        self.report: Optional[FleetReport] = None
        self.journal: Optional[SchedulerJournal] = None
        #: set when a SchedulerCrash chaos fault killed this incarnation
        self.crashed = False
        self.crash_event = None
        self._policy = ""
        self._target = ""
        self._host_index = {name: i for i, name in enumerate(self.state.hosts)}

    # ------------------------------------------------------------------
    # planning: intent -> jobs

    def plan(self, policy: str, target: str = "") -> List[MigrationJob]:
        """Dispatch on policy name (the CLI surface)."""
        if policy not in SCHEDULING_POLICIES:
            raise ValueError(f"unknown scheduling policy {policy!r}; "
                             f"choose from {SCHEDULING_POLICIES}")
        self._policy, self._target = policy, target
        if policy == "drain":
            if target in self.state.hosts:
                return self.plan_drain_host(target)
            if target in self.state.racks():
                return self.plan_drain_rack(target)
            raise LookupError(f"drain target {target!r} is neither a host "
                              f"nor a rack")
        if policy == "rebalance":
            return self.plan_rebalance()
        targets = [name for name in target.split(",") if name]
        if not targets:
            raise ValueError("evict needs a comma-separated container list")
        return self.plan_evict(targets)

    def plan_drain_host(self, host: str) -> List[MigrationJob]:
        """Move everything off ``host``.  Idempotent: draining an empty
        (or already-drained) host plans zero jobs."""
        self.state.mark_draining(host)
        self._policy = self._policy or "drain"
        self._target = self._target or host
        return [MigrationJob(container=name, source=host, exclude=(host,))
                for name in self.state.containers_on(host)]

    def plan_drain_rack(self, rack: str) -> List[MigrationJob]:
        """Rolling drain of a whole rack: every host marked draining up
        front (so nothing lands back inside), jobs in host order."""
        hosts = tuple(self.state.hosts_in(rack))
        for host in hosts:
            self.state.mark_draining(host)
        self._policy = self._policy or "drain"
        self._target = self._target or rack
        jobs: List[MigrationJob] = []
        for host in hosts:
            jobs.extend(MigrationJob(container=name, source=host, exclude=hosts)
                        for name in self.state.containers_on(host))
        return jobs

    def plan_rebalance(self) -> List[MigrationJob]:
        """Move containers off hosts loaded above the ceiling-mean; the
        placement policy picks the receivers at admission time."""
        self._policy = self._policy or "rebalance"
        hosts = list(self.state.hosts)
        total = sum(self.state.load(host) for host in hosts)
        mean = -(-total // len(hosts))  # ceil
        jobs: List[MigrationJob] = []
        for host in hosts:
            surplus = self.state.load(host) - mean
            if surplus <= 0:
                continue
            for name in self.state.containers_on(host)[:surplus]:
                jobs.append(MigrationJob(container=name, source=host,
                                         exclude=(host,)))
        return jobs

    def plan_evict(self, containers: Sequence[str]) -> List[MigrationJob]:
        """Targeted evictions: move each named container off its host."""
        self._policy = self._policy or "evict"
        self._target = self._target or ",".join(containers)
        jobs = []
        for name in containers:
            source = self.state.host_of(name)
            jobs.append(MigrationJob(container=name, source=source,
                                     exclude=(source,)))
        return jobs

    # ------------------------------------------------------------------
    # admission control

    def _host_touch(self, active, host: str) -> int:
        return sum(1 for job, _ in active.values()
                   if job.source == host or job.dest == host)

    def _rack_touch(self, active, rack: str) -> int:
        rack_of = self.state.rack_of
        return sum(1 for job, _ in active.values()
                   if rack_of(job.source) == rack or rack_of(job.dest) == rack)

    def _trunk_load(self, active, rack: str) -> int:
        rack_of = self.state.rack_of
        count = 0
        for job, _ in active.values():
            src_rack, dst_rack = rack_of(job.source), rack_of(job.dest)
            if src_rack != dst_rack and rack in (src_rack, dst_rack):
                count += 1
        return count

    def _source_admissible(self, active, job: MigrationJob) -> bool:
        if len(active) >= self.limits.fleet:
            return False
        if self._host_touch(active, job.source) >= self.limits.per_host:
            return False
        if (self._rack_touch(active, self.state.rack_of(job.source))
                >= self.limits.per_rack):
            return False
        return True

    def _dest_admissible(self, active, dest: str, source: str,
                         container: Optional[str] = None) -> bool:
        # Health gates first: never send a container to a host whose
        # daemon is known down, or to a host that is lease-fenced for this
        # container (a revoked former holder may hold stale partial state).
        if self.world.control.daemon_down(dest):
            return False
        if container is not None \
                and self.state.leases.fenced(container, dest, self.sim.now):
            return False
        if self._host_touch(active, dest) >= self.limits.per_host:
            return False
        src_rack = self.state.rack_of(source)
        dst_rack = self.state.rack_of(dest)
        if self._rack_touch(active, dst_rack) >= self.limits.per_rack:
            return False
        if src_rack != dst_rack:
            if self._trunk_load(active, src_rack) >= self.limits.per_uplink:
                return False
            if self._trunk_load(active, dst_rack) >= self.limits.per_uplink:
                return False
        return True

    # ------------------------------------------------------------------
    # placement

    def _rank_key(self, host: str):
        index = self._host_index[host]
        if self.placement == "pack":
            return (-self.state.load(host), index)
        if self.placement == "spread":
            return (self.state.load(host), index)
        return (self.state.qp_usage(host), self.state.load(host), index)

    def _pick_dest(self, active, job: MigrationJob):
        """Best destination under the placement policy plus up to two
        alternates for the supervisor to rotate through on retry."""
        candidates = [
            host for host in self.state.candidates(job.container,
                                                   exclude=job.exclude)
            if host != job.source and self._dest_admissible(
                active, host, job.source, container=job.container)
        ]
        if not candidates:
            return None, ()
        ranked = sorted(candidates, key=self._rank_key)
        return ranked[0], tuple(ranked[1:3])

    # ------------------------------------------------------------------
    # execution

    def execute(self, jobs: Sequence[MigrationJob],
                journal: Optional[SchedulerJournal] = None,
                report: Optional[FleetReport] = None):
        """Generator: run the plan to completion; returns the
        :class:`FleetReport`.  Spawn on the fleet simulator via
        ``fleet.run(scheduler.execute(jobs))``.

        Every job's progress is journalled (planned → launched →
        settled).  Pass the previous incarnation's ``journal`` and
        ``report`` to *recover* a crashed drain: settled jobs are
        skipped, in-flight supervisor processes are re-adopted (never
        relaunched — the no-double-migration rule), and unlaunched jobs
        queue as normal.  A :class:`~repro.chaos.SchedulerCrash` fault in
        ``self.chaos`` kills this incarnation at its scheduled time:
        ``execute`` returns early with ``self.crashed`` set and all
        in-memory state abandoned — only the journal survives
        (:func:`drain_with_recovery` wraps the restart loop).
        """
        if report is None:
            report = FleetReport(policy=self._policy, target=self._target,
                                 placement=self.placement)
        self.report = report
        if journal is None:
            journal = SchedulerJournal()
        self.journal = journal
        self.migration_reports = journal.migration_reports
        if journal.t_start is None:
            journal.t_start = self.sim.now
        for job in jobs:
            journal.record_planned(job, self.sim.now)
        # Recovery: re-adopt in-flight supervisors, requeue the rest.
        pending: List[MigrationJob] = [e.job for e in journal.unlaunched()]
        active: Dict[str, Tuple[MigrationJob, object]] = {
            e.container: (e.job, e.proc) for e in journal.inflight()}
        topology = getattr(self.fleet, "topology", None)
        while pending or active:
            if self.chaos is not None:
                crash = self.chaos.scheduler_crash_due(self.sim.now)
                if crash is not None:
                    # This incarnation dies here: pending/active are
                    # abandoned (supervisor processes keep running —
                    # they are independent sim processes), the journal
                    # is the only survivor.
                    self.crashed = True
                    self.crash_event = crash
                    journal.note_crash(self.sim.now)
                    return report
            # Reap finished migrations (insertion order = admission order).
            for name in [n for n, (_, proc) in active.items()
                         if not proc.is_alive]:
                job, proc = active.pop(name)
                if self._settle(job, proc, report):
                    pending.append(job)  # postponed: requeued with backoff
            # Admit everything the limits allow, in plan order.
            admitted = True
            while admitted and pending:
                admitted = False
                for job in pending:
                    if job.container in active:
                        continue  # same container queued twice: wait
                    if self.sim.now < job.not_before:
                        continue  # requeued job still backing off
                    if not self._source_admissible(active, job):
                        continue
                    dest, alternates = self._pick_dest(active, job)
                    if dest is None:
                        continue
                    pending.remove(job)
                    self._launch(job, dest, alternates, active)
                    admitted = True
                    break
            report.observe_concurrency(len(active))
            report.observe_links(topology)
            if pending and not active \
                    and all(self.sim.now >= job.not_before for job in pending):
                # Nothing running and nothing admissible: no future event
                # can unblock the plan, so fail the remainder explicitly
                # rather than spinning forever.  (Jobs merely backing off
                # keep the loop alive instead.)
                for job in pending:
                    journal.record_settled(job.container, False, self.sim.now)
                    report.add(MigrationOutcome(
                        container=job.container, source=job.source, dest="",
                        completed=False, attempts=0, blackout_s=None,
                        t_admitted=self.sim.now, t_done=self.sim.now,
                        failure="no feasible destination"))
                pending.clear()
                break
            if pending or active:
                yield self.sim.timeout(POLL_S)
        report.finalize(topology, journal.t_start, self.sim.now)
        return report

    def _launch(self, job: MigrationJob, dest: str,
                alternates: Tuple[str, ...], active) -> None:
        job.dest = dest
        job.t_admitted = self.sim.now
        container = self.fleet.server(job.source).containers[job.container]
        guard = LeaseGuard(self.state.leases, job.container, job.source)
        supervisor = MigrationSupervisor(
            self.world, container, self.fleet.server(dest),
            alternates=[self.fleet.server(name) for name in alternates],
            budget=self.budget, backoff_s=self.backoff_s, chaos=self.chaos)
        proc = self.sim.spawn(
            supervisor.run(migration_factory=self._fenced_factory(guard)),
            name=f"fleet:{job.container}")
        active[job.container] = (job, proc)
        self.journal.record_launched(job.container, dest, proc, guard,
                                     self.sim.now)

    def _fenced_factory(self, guard: LeaseGuard):
        """Per-attempt migration factory: reserves the destination's lease
        epoch (releasing the previous reservation on a reroute) and wires
        the guard into the orchestrator's resume gate."""
        from repro.core.orchestrator import LiveMigration

        world = self.world
        container = self.fleet.server(guard.source).containers[guard.container]

        def factory(dest_server):
            guard.prepare(dest_server.name, self.sim.now)
            migration = LiveMigration(world, container, dest_server)
            migration.lease_guard = guard
            return migration

        return factory

    def _settle(self, job: MigrationJob, proc,
                report: FleetReport) -> bool:
        """Fold one finished supervisor run into fleet state + report.
        Returns True when the job was *requeued* (postponed migration)
        rather than settled."""
        journal = self.journal
        entry = journal.entries.get(job.container)
        guard = entry.guard if entry is not None else None
        if not proc.ok:
            # The supervisor itself crashed (not a rolled-back migration —
            # those return a report).  The container stays where it was;
            # sim-health will flag the failed process.
            if guard is not None:
                guard.abandon(self.sim.now)
            journal.record_settled(job.container, False, self.sim.now)
            report.add(MigrationOutcome(
                container=job.container, source=job.source, dest=job.dest,
                completed=False, attempts=0, blackout_s=None,
                t_admitted=job.t_admitted, t_done=self.sim.now,
                failure=f"supervisor crashed: {proc.exception!r}"))
            return False
        mreport = proc.value
        self.migration_reports.append(mreport)
        completed = not mreport.aborted
        if completed:
            self.state.place(job.container, mreport.dest_name)
        elif mreport.failure and "PrecopyDiverged" in mreport.failure \
                and job.requeues < self.max_requeues:
            # The degradation ladder's last rung: the migration is
            # hopeless *right now* (hot writer, degraded uplink), so back
            # off at the scheduler instead of burning supervisor retries.
            job.requeues += 1
            job.not_before = self.sim.now \
                + self.requeue_backoff_s * (2.0 ** (job.requeues - 1))
            if guard is not None:
                guard.abandon(self.sim.now)
            journal.record_requeued(job.container, self.sim.now)
            return True
        if not completed and guard is not None:
            guard.abandon(self.sim.now)
        journal.record_settled(job.container, completed, self.sim.now)
        report.add(MigrationOutcome(
            container=job.container, source=job.source,
            dest=mreport.dest_name if completed else job.dest,
            completed=completed,
            attempts=len(mreport.attempts) or 1,
            blackout_s=mreport.blackout_s,
            t_admitted=job.t_admitted, t_done=self.sim.now,
            failure=mreport.failure))
        return False


def drain_with_recovery(scheduler: MigrationScheduler,
                        jobs: Sequence[MigrationJob],
                        journal: Optional[SchedulerJournal] = None):
    """Generator: run a drain to completion across scheduler crashes.

    Runs ``scheduler.execute(jobs)``; whenever the incarnation dies to a
    :class:`~repro.chaos.SchedulerCrash` fault, waits out the crash's
    ``down_s``, builds a replacement scheduler with the same policy
    knobs, and resumes from the journal.  With no crash faults armed
    this is exactly one ``execute`` call — bit-identical to calling it
    directly.  Returns the final :class:`FleetReport`; the journal
    (``scheduler.journal`` of any incarnation) holds every per-migration
    report and the full transition log.
    """
    if journal is None:
        journal = SchedulerJournal()
    report = yield from scheduler.execute(jobs, journal=journal)
    while scheduler.crashed:
        crash = scheduler.crash_event
        yield scheduler.sim.timeout(crash.down_s)
        replacement = MigrationScheduler(
            scheduler.fleet, limits=scheduler.limits,
            placement=scheduler.placement, budget=scheduler.budget,
            backoff_s=scheduler.backoff_s, chaos=scheduler.chaos,
            requeue_backoff_s=scheduler.requeue_backoff_s,
            max_requeues=scheduler.max_requeues)
        replacement._policy = scheduler._policy
        replacement._target = scheduler._target
        report = yield from replacement.execute([], journal=journal,
                                                report=report)
        scheduler = replacement
    return report
