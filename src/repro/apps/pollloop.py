"""The busy-poll loop every perftest and KV endpoint runs (DESIGN.md §12.5).

"Drain the CQ, maybe post, sleep for the CPU time that took but at least a
floor, repeat" costs one kernel event and one interpreted empty poll per
microsecond per loop while the wire is quiet — and a partner is silent for
a whole blackout.  A tick that can only find an empty CQ and post nothing
changes just the cycle ledger and the kernel's event count, so the loop
*parks* instead: no heap entry, registered as the waiter of its physical CQ
and of its cycle ledger.  Whatever could make a tick matter wakes it; the
wake replays the skipped polls exactly (``CpuContext.replay_idle_polls``),
credits their dispatches, and resumes the loop at the first tick instant not
yet run.  This module is the only place that knows the tick arithmetic.

The mixin also owns what every such endpoint repeats around its loops: the
attach to a container and a verbs library, the ``on_migrated`` /
``on_rollback`` hooks that respawn the loops, and :func:`quiesce`, the
post-run drain that drives the protocol from outside.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.sim import Interrupt
from repro.verbs import DirectVerbs

#: completions drained per poll call (perftest uses batched polling)
POLL_BATCH = 16

#: idle backoff when the wire is quiet (busy-poll granularity)
IDLE_POLL_S = 1e-6

#: sim-time budget for the post-run drain of in-flight completions
QUIESCE_TIMEOUT_S = 1.0
QUIESCE_POLL_S = 200e-6


class BusyPoller:
    """Mixin for an endpoint with ``name``, ``cq``, ``running``,
    ``_handle_wc(wc)`` and ``_spawn_loops()`` (respawn every traffic loop
    that was active, after a freeze killed them)."""

    _park = None  # the endpoint's parked loop, at most one

    def _attach(self, server, world, container, record_samples=False) -> None:
        """Give the endpoint a home: a process inside ``container`` (its own
        fresh one if None) and a verbs library — the MigrRDMA guest lib when
        a ``world`` is given, the plain one otherwise."""
        self.server = server
        self.world = world
        self.container = container or server.create_container(f"{self.name}-ct")
        self.process = self.container.add_process(
            self.name, record_samples=record_samples)
        if world is not None:
            self.lib = world.make_lib(self.process, self.container)
        else:
            self.lib = DirectVerbs(self.process, server.rnic)
        self.container.apps.append(self)

    def on_migrated(self, session, restored_container) -> None:
        """Called by the orchestrator after restore: re-home and resume.

        The endpoint's logical state (sequence numbers, stats) lives in the
        Python object — the analogue of restored process memory; the verbs
        wrappers stay valid because MigrRDMA virtualizes them.
        """
        self.container = restored_container
        self.process = session.processes[self.process.pid]
        self.server = restored_container.server
        if self.running:
            self._spawn_loops()

    def on_rollback(self, container) -> None:
        """Called by the orchestrator when a migration rolls back after the
        freeze: the container was thawed in place on the *source*, so only
        the interrupted loops need respawning — no re-homing, the endpoint
        never moved."""
        if self.running:
            self._spawn_loops()

    def stop(self) -> None:
        """Ask the traffic loops to wind down at their next wakeup."""
        self.running = False
        self._unpark(False)

    def _drain_completions(self) -> int:
        drained = 0
        while True:
            wcs = self.lib.poll_cq(self.cq, POLL_BATCH)
            if not wcs:
                return drained
            drained += len(wcs)
            for wc in wcs:
                self._handle_wc(wc)

    def _poll_loop(self, tick, refill=None, quiet: bool = True):
        """Generator: call ``tick()`` once per poll period until it returns
        ``None``.  Otherwise it returns ``(floor_s, idle_s)``: the shortest
        sleep before the next tick and, if the ticks after this one can only
        find an empty CQ and post nothing until a wake source fires, the
        floor they sleep (else ``None``) — then the loop parks.  ``refill()
        -> posted`` runs when the loop starts and on an idle tick after its
        CPU time is taken (so what it posts is charged to the next tick).  A
        freeze ends a traffic loop quietly (``on_migrated`` / ``on_rollback``
        respawn it); ``quiet=False`` lets the Interrupt out."""
        sim = self.server.sim
        cpu = self.process.cpu
        park = None
        if refill is not None:
            refill()
        try:
            while True:
                step = tick()
                if step is None:
                    return
                floor_s, idle_s = step
                delay = max(cpu.drain_seconds(), floor_s) or IDLE_POLL_S / 4
                if idle_s and (refill is None or not refill()):
                    # The waiter slot belongs to the physical CQ: a VirtCQ's
                    # fake CQ only fills from CQEs pushed there first.
                    cq = getattr(self.cq, "_phys", self.cq)
                    if cq.waiter is None and cpu.idle_waiter is None:
                        self._park = park = SimpleNamespace(
                            t_next=sim.now + delay, floor_s=idle_s, cq=cq,
                            cpu=cpu, event=sim.event(), entry=None)
                        cq.waiter = cpu.idle_waiter = self._unpark
                        if sim.tracer is not None:
                            self._trace_idle("idle-park", None)
                        yield park.event
                        park = None
                        continue
                yield sim.timeout(delay)
        except Interrupt:
            # Freeze.  The interrupt was scheduled at this instant, after a
            # tick due now, and cancels the timeout the spinning loop had
            # pending: replay through now, then cancel the resume entry.
            if park is not None:
                if self._park is park:
                    self._unpark(True)
                sim.cancel(park.entry)
            if not quiet:
                raise

    def _unpark(self, tick_first: bool) -> None:
        """Wake the parked loop, if any.  ``tick_first`` is the tie rule: a
        tick due exactly now was scheduled one period ago, so it has run
        already unless the caller's own event was scheduled before that."""
        park = self._park
        if park is None:
            return
        self._park = park.cq.waiter = park.cpu.idle_waiter = None
        sim = park.cq.sim
        skipped, t_next = park.cpu.replay_idle_polls(
            "poll", park.t_next, sim.now, tick_first, park.floor_s)
        sim.credit_events(processed=skipped)
        park.entry = sim.schedule_at(t_next, park.event._process_callbacks)
        if sim.tracer is not None:
            self._trace_idle("idle-wake", {"skipped": skipped})

    def _trace_idle(self, name: str, args) -> None:
        tracer = self.server.sim.tracer
        tracer.instant(tracer.lane(self.server.name, "verbs"), name, args)


def quiesce(tb, endpoints, timeout_s: float = QUIESCE_TIMEOUT_S):
    """Generator: stop traffic and drain every in-flight completion.

    The perftest loops exit without a final drain, so lost CQEs would be
    invisible without this step: a sender connection whose ``outstanding``
    never reaches zero here is exactly a conservation violation.

    Senders are stopped first and receivers keep consuming (and reposting
    RECVs) until the senders drain — stopping both at once would leave the
    last in-flight SENDs without a RECV to land in, an RNR retry loop that
    never resolves (rnr_retry=7 retries forever) and a false conservation
    violation.
    """
    for ep in endpoints:
        if ep._sender_active:
            ep.stop()
    deadline = tb.sim.now + timeout_s
    drained = False
    while True:
        for ep in endpoints:
            ep._drain_completions()
        if all(conn.outstanding == 0
               for ep in endpoints if ep._sender_active
               for conn in ep.connections):
            drained = True
            break
        if tb.sim.now >= deadline:
            break
        yield tb.sim.timeout(QUIESCE_POLL_S)
    # The final ACKed send's receive-side CQE may still be in flight; let
    # it land while the receivers are live, then stop them too.
    yield tb.sim.timeout(QUIESCE_POLL_S)
    for ep in endpoints:
        ep.stop()
    for ep in endpoints:
        ep._drain_completions()
    return drained
