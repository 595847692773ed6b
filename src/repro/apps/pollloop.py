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
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.sim import Interrupt

#: completions drained per poll call (perftest uses batched polling)
POLL_BATCH = 16

#: idle backoff when the wire is quiet (busy-poll granularity)
IDLE_POLL_S = 1e-6


class BusyPoller:
    """Mixin for an endpoint with ``lib``, ``cq``, ``process``, ``server``,
    ``running`` and ``_handle_wc(wc)``."""

    _park = None  # the endpoint's parked loop, at most one

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
