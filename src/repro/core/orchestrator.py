"""End-to-end live migration (Figure 2b).

:class:`LiveMigration` is the cloud manager's view: it drives runc/CRIU,
the MigrRDMA plugin and the partner agents through the full workflow —

pre-copy (memory + RDMA pre-dump, partial restore with RDMA pre-setup,
partner notification, iterative dirty-page shipping) → wait-before-stop →
stop-and-copy (freeze, DumpRDMA/DumpOthers/Transfer, final restore, partner
switchover, WR replay) → resume on the destination → source reclamation —

and produces a :class:`MigrationReport` with the Figure 3 blackout
breakdown, the WBS elapsed time (Figure 4) and the timeline marks Figure 5
plots against.

With ``presetup=False`` it degenerates into the comparison workflow of §4:
a single RDMA dump at stop-and-copy and full RDMA restoration during the
blackout (the RestoreRDMA phase).

**Transactional execution (DESIGN.md §11).**  The run is a transaction
journalled on :data:`PHASE_BOUNDARIES` with its commit point at
``transferred`` (the final image is on the destination).  Control-plane
RPCs go through ``ControlPlane.call_reliable`` (deadlines, idempotent
retries) and a :class:`~repro.resilience.FailureDetector` leases every
peer daemon for the migration's duration.  A typed
:class:`~repro.resilience.MigrationError` raised *before* the commit
point triggers an automatic rollback — the journal says how deep: undo
pre-setup, and additionally lift the communication suspension and thaw
the container if wait-before-stop or the freeze had begun.  The source
keeps serving, every posted WR still completes.  *After* the commit
point the workflow only rolls forward: completion waits out crashed
peers instead of giving up, and the report records ``rolled_forward``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster import Container, Server
from repro.core.plugin import MigrRdmaPlugin
from repro.core.world import MigrRdmaWorld
from repro.metrics import BlackoutBreakdown, PhaseTimer
from repro.migration import CriuEngine, PrecopyDecision, PrecopyWatchdog, Runc
from repro.resilience import (
    DEFAULT_RETRY_POLICY,
    PATIENT_RETRY_POLICY,
    FailureDetector,
    MigrationError,
    PhaseJournal,
    PrecopyDiverged,
    PresetupFailed,
    WbsStuck,
)

#: Poll interval for cross-server status checks during migration.
STATUS_POLL_S = 50e-6

#: Named points in the migration workflow, in execution order.  Fault
#: plans (repro.chaos) key abort/crash injection on these names; the
#: first four precede wait-before-stop, so aborting there rolls back,
#: while aborts from "wbs-entered" on are ignored — the migration is
#: committed (see :meth:`LiveMigration.abort`).
PHASE_BOUNDARIES = (
    "precopy-dumped",    # initial RDMA+memory pre-dump shipped
    "partial-restored",  # destination holds the partial restore + pre-setup
    "precopy-iterated",  # iterative dirty-page shipping converged
    "presetup-done",     # partners + destination confirmed pre-setup
    "wbs-entered",       # communication suspended, WBS draining
    "wbs-drained",       # every involved lib finished wait-before-stop
    "frozen",            # container frozen, incomplete WRs captured
    "rdma-dumped",       # DumpRDMA phase finished
    "others-dumped",     # DumpOthers phase finished
    "transferred",       # final image on the destination
    "restored",          # full restore + partner switchover finished
    "resumed",           # apps running on the destination
)

#: The transaction's commit point: once the final image is on the
#: destination, recovery rolls *forward* (finish the restore), never back.
COMMIT_POINT = "transferred"

#: Patient (post-commit) waits give wedged peers this long before
#: concluding the world is unrecoverable and raising anyway.
_PATIENT_DEADLINE_S = 60.0

#: Partner pre-setup is serial firmware work, ~1.4 ms per QP (5.6 s at
#: 4096 QPs); the pre-commit deadline allows at least this much per QP.
_PRESETUP_S_PER_QP = 1.5e-3


def presetup_budget_s(deadline_s: float, partners: Dict[str, List[int]]) -> float:
    """The pre-commit pre-setup deadline for this migration's fan-out:
    ``config.migration.presetup_deadline_s``, stretched where the QP count
    (``partners`` maps node -> partner QPNs) makes it unmeetable.  A
    deadline only acts when it expires, so below ~1300 QPs nothing moves."""
    qps = sum(len(pqpns) for pqpns in partners.values())
    return max(deadline_s, _PRESETUP_S_PER_QP * qps)


@dataclass
class MigrationReport:
    """Everything the evaluation section measures about one migration."""

    presetup: bool = True
    breakdown: BlackoutBreakdown = field(default_factory=BlackoutBreakdown)
    t_start: float = 0.0
    t_presetup_done: float = 0.0
    t_suspend: float = 0.0
    t_freeze: float = 0.0
    t_resume: float = 0.0
    t_end: float = 0.0
    #: Longest per-process wait-before-stop thread duration (what §5.4
    #: reports): suspension-flag observation to drain completion.
    wbs_elapsed_s: float = 0.0
    #: Wall window including cross-server suspend/ack coordination.
    wbs_wall_s: float = 0.0
    wbs_timed_out: bool = False
    precopy_iterations: int = 0
    #: True when the convergence watchdog cut the pre-copy loop short and
    #: forced stop-and-copy inside the blackout budget (DESIGN.md §15).
    precopy_capped: bool = False
    bytes_transferred: int = 0
    aborted: bool = False
    #: Identity of the run (who migrated where), for post-mortems and the
    #: service-continuity invariant.
    container_name: str = ""
    source_name: str = ""
    dest_name: str = ""
    #: True when the abort was executed as a transactional rollback (the
    #: journal-driven undo, as opposed to never having started).
    rolled_back: bool = False
    #: True when a peer failure was detected after the commit point and
    #: the migration completed anyway.
    rolled_forward: bool = False
    #: ``"ErrorType: message"`` of the MigrationError that triggered the
    #: rollback; None for fault-free runs and voluntary aborts.
    failure: Optional[str] = None
    #: Supervisor attempt history (filled by MigrationSupervisor).
    attempts: List[dict] = field(default_factory=list)
    #: Phase boundaries crossed, in order (from the phase journal).
    phases_reached: List[str] = field(default_factory=list)

    @property
    def blackout_s(self) -> Optional[float]:
        """Service blackout: freeze → resume.  ``None`` until the service
        actually resumed on the destination (aborted/rolled-back runs
        never did — there was no blackout, the source kept serving)."""
        if self.t_resume == 0.0:
            return None
        return self.t_resume - self.t_freeze

    @property
    def communication_blackout_s(self) -> Optional[float]:
        """Suspension of communication → resume (includes WBS, §6).
        ``None`` unless the run reached both marks."""
        if self.t_resume == 0.0:
            return None
        return self.t_resume - self.t_suspend

    @property
    def total_s(self) -> Optional[float]:
        """Start → end of the run, including rollback work; ``None`` until
        the run has ended."""
        if self.t_end == 0.0:
            return None
        return self.t_end - self.t_start


class LiveMigration:
    """One migration of one container."""

    def __init__(self, world: MigrRdmaWorld, container: Container, dest: Server,
                 presetup: bool = True,
                 precopy_iterations: Optional[int] = None):
        self.world = world
        self.tb = world.tb
        self.sim = world.sim
        self.container = container
        self.source = container.server
        self.dest = dest
        self.presetup = presetup
        self.config = self.tb.config
        self.precopy_iterations = (
            precopy_iterations if precopy_iterations is not None
            else self.config.migration.precopy_max_iterations)
        self.plugin = MigrRdmaPlugin(world, self.source, dest, presetup=presetup)
        self.engine = CriuEngine(self.sim, self.config)
        self.runc = Runc(self.engine, self.plugin)
        self.report = MigrationReport(presetup=presetup)
        self._abort_requested = False
        #: Optional fault plan (repro.chaos) notified at each boundary.
        self.chaos = None
        #: Optional :class:`~repro.fleet.lease.LeaseGuard`: when set, the
        #: destination must acquire the container's placement lease (a
        #: fencing-token transfer in the FleetState store) before the
        #: restored apps resume — the go-live gate of DESIGN.md §15.
        self.lease_guard = None
        #: Pre-copy convergence watchdog for the last/ongoing attempt.
        self.watchdog: Optional[PrecopyWatchdog] = None
        self.journal = PhaseJournal(PHASE_BOUNDARIES, COMMIT_POINT)
        self.detector: Optional[FailureDetector] = None
        self._session = None
        self._span = None
        self._channel = None

    def abort(self) -> None:
        """Cancel the migration.  Honoured until wait-before-stop begins;
        after that the migration is committed.  The service never notices:
        pre-setup runs beside it, so rollback just discards the new
        resources on the destination and the partners."""
        self._abort_requested = True

    # ------------------------------------------------------------------
    # the workflow
    # ------------------------------------------------------------------

    def _trace_lane(self, tracer):
        return tracer.lane("migration", "workflow")

    def _boundary(self, name: str) -> None:
        """Synchronous notification hook at a named workflow point: journal
        the crossing, let a fault plan inject (abort/daemon crash), then —
        before the commit point only — fail fast on any suspected peer."""
        self.journal.record(name, self.sim.now)
        chaos = self.chaos
        if chaos is not None:
            chaos.on_phase_boundary(self, name)
        if self.detector is not None and not self.journal.committed:
            self.detector.check()

    def _backoff_rng(self):
        """Retry jitter comes from the chaos campaign RNG when one is armed,
        keeping fault campaigns bit-deterministic; fault-free runs never
        draw (no retries happen)."""
        return self.chaos.rng if self.chaos is not None else None

    def run(self):
        """Generator: execute the migration transaction; returns the report.

        Never leaks a :class:`MigrationError`: pre-commit failures roll
        back (``report.aborted`` + ``report.rolled_back``), post-commit
        failures are waited out (``report.rolled_forward``).
        """
        report = self.report
        report.t_start = self.sim.now
        report.container_name = self.container.name
        report.source_name = self.source.name
        report.dest_name = self.dest.name
        self._channel = self.tb.channel(self.source.name, self.dest.name)
        partners = self.plugin.partner_map(self.container)
        mig = self.config.migration
        control = self.world.control
        control.stats.migration_attempts += 1
        self.detector = FailureDetector(
            control, self.source.name, [self.dest.name, *partners],
            interval_s=mig.heartbeat_interval_s,
            miss_threshold=mig.heartbeat_miss_threshold,
            poll_s=STATUS_POLL_S).start()
        try:
            try:
                committed = yield from self._precopy_and_commit(partners)
            except MigrationError as err:
                report.failure = f"{type(err).__name__}: {err}"
                yield from self._rollback_transaction(partners)
                report.t_end = self.sim.now
                return report
            if not committed:
                # Voluntary abort (self.abort()): same undo machinery, no
                # failure to report.
                yield from self._rollback_transaction(partners)
                report.t_end = self.sim.now
                return report
            yield from self._complete(partners)
            return report
        finally:
            self.detector.stop()
            report.phases_reached = self.journal.phases_reached()

    def _precopy_and_commit(self, partners: Dict[str, List[int]]):
        """Generator: everything up to the commit point.  Returns True when
        committed, False on a voluntary abort; raises MigrationError on a
        detected failure (the caller rolls back)."""
        report = self.report
        channel = self._channel
        mig = self.config.migration

        tracer = self.sim.tracer
        if tracer is not None and tracer.enabled:
            self._span = tracer.begin_span(
                self._trace_lane(tracer), "pre-copy",
                {"container": self.container.name, "dest": self.dest.name,
                 "presetup": self.presetup})

        # ---- Pre-copy phase (Fig. 2b steps 1-2) --------------------------
        image = yield from self.runc.checkpoint_rdma(self.container)
        yield from channel.transfer(image.size_bytes, src=self.source.name)
        report.bytes_transferred += image.size_bytes
        self._boundary("precopy-dumped")
        self._session = yield from self.runc.partial_restore(image, self.dest)
        self._boundary("partial-restored")

        if self.presetup:
            yield from self._notify_partners(partners)

        watchdog = PrecopyWatchdog(mig)
        self.watchdog = watchdog
        for _ in range(self.precopy_iterations):
            if self._abort_requested:
                break
            dirty = self._dirty_pages()
            if dirty <= mig.precopy_stop_threshold_pages:
                break
            decision = watchdog.decide(dirty)
            if decision == PrecopyDecision.POSTPONE:
                est = watchdog.est_blackout_s(dirty)
                raise PrecopyDiverged(
                    f"pre-copy stopped converging after "
                    f"{len(watchdog.rounds)} rounds ({dirty} pages dirty); "
                    f"projected blackout {est * 1e3:.2f}ms exceeds budget "
                    f"{mig.precopy_blackout_budget_s * 1e3:.2f}ms",
                    dirty_pages=dirty, est_blackout_s=est,
                    rounds=len(watchdog.rounds))
            if decision == PrecopyDecision.STOP_COPY:
                report.precopy_capped = True
                break
            t_round = self.sim.now
            diff = yield from self.runc.checkpoint_memory_only(self.container)
            yield from channel.transfer(diff.size_bytes, src=self.source.name)
            report.bytes_transferred += diff.size_bytes
            yield from self.runc.apply_iteration(self._session, diff)
            report.precopy_iterations += 1
            watchdog.observe(dirty, diff.size_bytes, self.sim.now - t_round)
        self._boundary("precopy-iterated")

        if self.presetup and not self._abort_requested:
            yield from self._wait_presetup(partners)
        report.t_presetup_done = self.sim.now
        self._boundary("presetup-done")
        if self._span is not None:
            self._span.end(iterations=report.precopy_iterations,
                           bytes=report.bytes_transferred,
                           aborted=self._abort_requested)
            self._span = None

        if self._abort_requested:
            return False

        # ---- Wait-before-stop (step 3) ------------------------------------
        report.t_suspend = self.sim.now
        self._boundary("wbs-entered")
        if tracer is not None and tracer.enabled:
            self._span = tracer.begin_span(self._trace_lane(tracer),
                                           "wait-before-stop")
        self._suspend_source()
        yield from self._suspend_partners(partners)
        yield from self._wait_wbs(partners)
        self._boundary("wbs-drained")
        if self._span is not None:
            self._span.end()
            self._span = None
        report.wbs_wall_s = self.sim.now - report.t_suspend
        report.wbs_elapsed_s = max(
            (lib.wbs.last_elapsed_s for lib in self._involved_libs(partners)),
            default=0.0)
        report.wbs_timed_out = any(
            lib.wbs.timed_out for lib in self._involved_libs(partners))

        # ---- Stop-and-copy (steps 4-6) -------------------------------------
        report.t_freeze = self.sim.now
        if tracer is not None and tracer.enabled:
            self._span = tracer.begin_span(self._trace_lane(tracer),
                                           "stop-and-copy")
        self.runc.freeze(self.container)
        # Final drain + incomplete-WR snapshot (no-op unless WBS timed out).
        for lib in self._source_libs():
            lib.capture_incomplete_for_replay()
        self._boundary("frozen")

        timer = PhaseTimer(self.sim, report.breakdown, "DumpRDMA").start()
        _diff_info, self._rdma_bytes = yield from self.plugin.dump_rdma_diff(
            self.container)
        timer.stop()
        self._boundary("rdma-dumped")

        timer = PhaseTimer(self.sim, report.breakdown, "DumpOthers").start()
        self._final_image = yield from self.engine.checkpoint_memory(
            self.container, full=False)
        yield from self.engine.checkpoint_others(self.container)
        timer.stop()
        self._boundary("others-dumped")

        timer = PhaseTimer(self.sim, report.breakdown, "Transfer").start()
        final_bytes = self._final_image.size_bytes + self._rdma_bytes
        yield from channel.transfer(final_bytes, src=self.source.name)
        report.bytes_transferred += final_bytes
        timer.stop()
        self._boundary("transferred")
        return True

    def _complete(self, partners: Dict[str, List[int]]):
        """Generator: everything after the commit point.  Tolerates peer
        failures (waits out restarts, skips dead partners) — the
        destination holds the full image, so roll-forward always finishes."""
        report = self.report
        tracer = self.sim.tracer
        old_resources = self.plugin.snapshot_source_resources(self.container)

        if self.presetup:
            # Partner switchover proceeds concurrently with the final restore.
            switch = self.sim.spawn(self._switch_partners(partners),
                                    name="partner-switchover")
            timer = PhaseTimer(self.sim, report.breakdown, "FullRestore").start()
            yield from self.runc.apply_iteration(self._session, self._final_image)
            yield from self.runc.full_restore(self._session)  # plugin.post_restore inside
            yield switch
            timer.stop()
        else:
            timer = PhaseTimer(self.sim, report.breakdown, "FullRestore").start()
            yield from self.runc.apply_iteration(self._session, self._final_image)
            yield from self.runc.full_restore(self._session)
            timer.stop()
            timer = PhaseTimer(self.sim, report.breakdown, "RestoreRDMA").start()
            yield from self.plugin.restore_rdma_full(self._session)
            yield from self._notify_partners(partners, patient=True)
            yield from self._wait_presetup(partners, patient=True)
            yield from self.plugin.finalize_restore(self._session)
            yield from self._switch_partners(partners)
            timer.stop()
        self._boundary("restored")

        # ---- Resume (step 7) -----------------------------------------------
        if self.lease_guard is not None:
            # Fencing gate: the destination only goes live holding the
            # container's placement lease.  The transfer bumps the fencing
            # epoch, so a source cut off by a partition can never serve
            # past this instant even after the partition heals.
            self.lease_guard.acquire(self.dest.name, self.sim.now)
        restored = self.runc.exec_restore(self._session)
        self._resume_apps(self._session, restored)
        report.t_resume = self.sim.now
        self._boundary("resumed")
        if self._span is not None:
            self._span.end(blackout_s=report.blackout_s)
            self._span = None
        if tracer is not None and tracer.enabled:
            tracer.instant(self._trace_lane(tracer), "resume",
                           {"blackout_s": report.blackout_s})
            self._span = tracer.begin_span(self._trace_lane(tracer),
                                           "source-reclaim")

        # ---- Source reclamation (off the critical path) ----------------------
        self.source.remove_container(self.container.name)
        yield from self.plugin.cleanup_source(old_resources)
        if self._span is not None:
            self._span.end()
            self._span = None
        report.t_end = self.sim.now
        if self.detector is not None and self.detector.total_suspicions > 0:
            # A peer died after the commit point and we finished anyway.
            report.rolled_forward = True
            self.world.control.stats.roll_forwards += 1

    def _rollback_transaction(self, partners: Dict[str, List[int]]):
        """Generator: journal-driven undo.  Idempotent and tolerant of dead
        partners; afterwards the source serves exactly as before the
        migration started and every intercepted WR has been reposted."""
        report = self.report
        report.aborted = True
        report.rolled_back = True
        control = self.world.control
        control.stats.rollbacks += 1
        if self._span is not None:
            self._span.end(aborted=True)
            self._span = None
        tracer = self.sim.tracer
        span = None
        if tracer is not None and tracer.enabled:
            span = tracer.begin_span(
                self._trace_lane(tracer), "rollback",
                {"from": self.journal.last or "(start)",
                 "failure": report.failure or "voluntary"})

        if self.journal.reached("wbs-entered"):
            # Communication was suspended: lift the suspension, rearm the
            # WBS threads for a future attempt, and repost the sends that
            # were intercepted meanwhile — their QPs never went away.
            layer = self.world.layer(self.source.name)
            for process in self.container.processes:
                if process.pid in layer.processes:
                    layer.clear_suspension(process.pid)
            for lib in self._source_libs():
                lib.wbs.reset()
                lib.rollback_suspension()
        if self.journal.reached("frozen"):
            # The container was frozen after WBS: thaw it and restart the
            # application loops on the *source* (the mirror image of
            # on_migrated on the destination).
            self.container.unfreeze()
            for app in self.container.apps:
                handler = getattr(app, "on_rollback", None)
                if handler is not None:
                    handler(self.container)

        # Tell every partner to drop its replacement QPs and lift any
        # suspension (idempotent; a dead partner has nothing to serve with
        # its pre-setup anyway, so skipping it is safe).
        for node in partners:
            try:
                yield from control.call_reliable(
                    self.source.name, node, "cancel_presetup",
                    {"service_id": self.container.container_id},
                    rng=self._backoff_rng())
            except MigrationError:
                pass
        if self._session is not None:
            yield from self.plugin.rollback(self._session)
        if span is not None:
            span.end()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _dirty_pages(self) -> int:
        from repro.config import PAGE_SIZE

        real = sum(p.space.dirty_page_count() for p in self.container.processes)
        synthetic = sum(p.synthetic_dirty_estimate(self.sim.now)
                        for p in self.container.processes)
        return real + synthetic // PAGE_SIZE

    def _source_libs(self):
        libs = []
        for process in self.container.processes:
            lib = self.world.lib_for_pid(process.pid)
            if lib is not None:
                libs.append(lib)
        return libs

    def _involved_libs(self, partners: Dict[str, List[int]]):
        """Source libs plus every partner lib with QPs to this service."""
        libs = self._source_libs()
        service_id = self.container.container_id
        for node in partners:
            for lib in self.world.libs_on(node):
                if lib.qps_talking_to(service_id):
                    libs.append(lib)
        return libs

    def _notify_partners(self, partners: Dict[str, List[int]], patient: bool = False):
        from repro.core.control import NOTIFY_BASE_BYTES, NOTIFY_PER_QP_BYTES

        policy = PATIENT_RETRY_POLICY if patient else DEFAULT_RETRY_POLICY
        policy = self._hol_scaled_policy(policy)
        for node, pqpns in partners.items():
            try:
                yield from self.world.control.call_reliable(
                    self.source.name, node, "migrate_notify",
                    {"service_id": self.container.container_id,
                     "dest": self.dest.name, "partner_pqpns": pqpns},
                    req_size=NOTIFY_BASE_BYTES + NOTIFY_PER_QP_BYTES * len(pqpns),
                    policy=policy, rng=self._backoff_rng())
            except MigrationError:
                if not patient:
                    raise  # pre-commit: surface and roll back

    def _hol_scaled_policy(self, policy):
        """Widen per-attempt RPC deadlines to cover egress head-of-line
        blocking.

        Control messages share the source's FIFO port with the bulk data
        still flowing pre-suspend.  At datacenter fan-out (1024+ QPs x
        depth 8 x 64 KiB) hundreds of megabytes can be queued ahead of the
        notify, so a fixed few-ms deadline can *never* be met and the
        migration would abort spuriously.  Each attempt's deadline is
        scaled to the port's drain time (capped so the channel's inner
        retransmit counter stays well under its runaway guard) and the
        attempt budget widened to cover at least twice the drain.  Below
        the default deadline the policy is returned untouched, keeping
        small-fanout runs bit-identical.
        """
        import math
        from dataclasses import replace

        port = self.source.node.port
        drain_s = port.pending_bytes * 8.0 / port.rate_bps
        if drain_s <= policy.attempt_timeout_s:
            return policy
        per = min(1.5 * drain_s + policy.attempt_timeout_s, 40e-3)
        tries = max(policy.max_attempts, math.ceil(2.0 * drain_s / per) + 1)
        return replace(policy, attempt_timeout_s=per, max_attempts=tries)

    def _wait_presetup(self, partners: Dict[str, List[int]], patient: bool = False):
        """Partner pre-setup and destination-side exchange both complete.

        Pre-commit callers get a :class:`PresetupFailed` when the deadline
        passes or a :class:`PeerCrashed` the moment the detector suspects a
        peer; ``patient=True`` (post-commit) callers wait restarts out and
        skip partners that stay dead.
        """
        mig = self.config.migration
        policy = PATIENT_RETRY_POLICY if patient else DEFAULT_RETRY_POLICY
        budget = (_PATIENT_DEADLINE_S if patient
                  else presetup_budget_s(mig.presetup_deadline_s, partners))
        for node in partners:
            deadline = self.sim.now + budget
            try:
                while True:
                    status = yield from self.world.control.call_reliable(
                        self.source.name, node, "presetup_status",
                        {"service_id": self.container.container_id},
                        policy=self._hol_scaled_policy(policy),
                        rng=self._backoff_rng())
                    if status["done"]:
                        break
                    yield from self.detector.poll_interval(
                        deadline,
                        PresetupFailed(f"partner {node} pre-setup did not "
                                       f"finish within {budget}s"),
                        patient=patient)
            except MigrationError:
                if not patient:
                    raise
        agent = self.world.agent(self.dest.name)
        deadline = self.sim.now + budget
        while not agent.plans_fully_connected(self.container.container_id):
            yield from self.detector.poll_interval(
                deadline,
                PresetupFailed(f"destination {self.dest.name} pre-setup "
                               f"exchange did not finish within {budget}s"),
                patient=patient)

    def _suspend_source(self) -> None:
        layer = self.world.layer(self.source.name)
        for process in self.container.processes:
            if process.pid in layer.processes:
                lib = self.world.lib_for_pid(process.pid)
                if lib is not None:
                    lib.wbs.reset()
                layer.raise_suspension(process.pid)

    def _suspend_partners(self, partners: Dict[str, List[int]]):
        for node in partners:
            yield from self.world.control.call_reliable(
                self.source.name, node, "suspend_for_service",
                {"service_id": self.container.container_id},
                policy=self._hol_scaled_policy(DEFAULT_RETRY_POLICY),
                rng=self._backoff_rng())

    def _wait_wbs(self, partners: Dict[str, List[int]]):
        for lib in self._source_libs():
            if not lib.wbs.complete:
                yield lib.wbs.done.wait()
        stuck_s = self.config.migration.wbs_stuck_timeout_s
        for node in partners:
            deadline = self.sim.now + stuck_s
            while True:
                status = yield from self.world.control.call_reliable(
                    self.source.name, node, "wbs_status",
                    {"service_id": self.container.container_id},
                    policy=self._hol_scaled_policy(DEFAULT_RETRY_POLICY),
                    rng=self._backoff_rng())
                if status["done"]:
                    break
                yield from self.detector.poll_interval(
                    deadline,
                    WbsStuck(f"partner {node} wait-before-stop still "
                             f"draining after {stuck_s}s"))

    def _switch_partners(self, partners: Dict[str, List[int]]):
        """Post-commit partner switchover: reliable, patient, and tolerant —
        a partner that stays dead is skipped (its daemon can re-sync from
        the service directory when it comes back) rather than wedging the
        committed migration."""
        tracer = self.sim.tracer
        span = None
        if tracer is not None and tracer.enabled:
            span = tracer.begin_span(
                tracer.lane("migration", "partner-switchover"), "switchover",
                {"partners": len(partners)})
        unreachable = set()
        for node in partners:
            try:
                yield from self.world.control.call_reliable(
                    self.source.name, node, "switchover_for_service",
                    {"service_id": self.container.container_id,
                     "dest": self.dest.name},
                    policy=PATIENT_RETRY_POLICY, rng=self._backoff_rng())
            except MigrationError:
                unreachable.add(node)
        for node in partners:
            if node in unreachable:
                continue
            deadline = self.sim.now + _PATIENT_DEADLINE_S
            try:
                while True:
                    status = yield from self.world.control.call_reliable(
                        self.source.name, node, "switchover_status",
                        {"service_id": self.container.container_id},
                        policy=PATIENT_RETRY_POLICY, rng=self._backoff_rng())
                    if status["done"]:
                        break
                    yield from self.detector.poll_interval(
                        deadline,
                        WbsStuck(f"partner {node} switchover still pending "
                                 f"after {_PATIENT_DEADLINE_S}s"),
                        patient=True)
            except MigrationError:
                unreachable.add(node)
        if span is not None:
            span.end(unreachable=len(unreachable))

    def _resume_apps(self, session, restored: Container) -> None:
        """Re-attach application objects to their restored processes."""
        for app in restored.apps:
            handler = getattr(app, "on_migrated", None)
            if handler is not None:
                handler(session, restored)
