"""Egress port: a single server draining transmissions at line rate.

All traffic a node originates — RDMA payloads, migration TCP segments,
control-plane notifications — funnels through its port, so serialization
delay and cross-traffic contention fall out of the model for free.  This is
what makes the wait-before-stop theory line (inflight bytes / link rate)
hold in Figure 4.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from repro.sim import Event, Simulator

#: ``done`` slot of a queued item whose callback is dispatched as its own
#: entry at wire-done, handed off in place (:meth:`Port.transmit_deferred`).
_DEFERRED = object()


class Port:
    """FIFO egress scheduler with a fixed drain rate.

    Implemented event-driven rather than as a resident drain process: each
    transmission costs one scheduled finish event instead of a queue
    round-trip plus a timeout, which matters because every byte any model
    component sends funnels through here.

    *Stretch windows* model egress contention as port state: a
    transmission whose serialization begins at ``t`` with
    ``start_s <= t < end_s`` for some window takes ``factor`` x its wire
    time (the largest factor when windows overlap).  The RNIC opens one
    per firmware command (Figure 5 brownout dips), the chaos uplink
    degrade one per degraded interval of a trunk.  The admission step
    pays one float comparison for them outside every window.
    """

    def __init__(self, sim: Simulator, rate_bps: float, name: str = ""):
        if rate_bps <= 0:
            raise ValueError(f"port rate must be positive, got {rate_bps}")
        self.sim = sim
        self.rate_bps = rate_bps
        self.name = name
        self._pending: Deque[tuple] = deque()
        self._active = False
        self._bytes_sent = 0
        #: ``(start_s, end_s, factor, tally)`` stretch windows, and the
        #: latest ``end_s`` among them
        self._stretches: List[tuple] = []
        self._stretch_until = -1.0

    @property
    def bytes_sent(self) -> int:
        return self._bytes_sent

    @property
    def backlog(self) -> int:
        return len(self._pending)

    @property
    def pending_bytes(self) -> int:
        """Bytes queued behind the in-flight transmission.

        Head-of-line estimate for control messages sharing this port with
        bulk data: a new transmission waits roughly
        ``pending_bytes * 8 / rate_bps`` before its first byte serializes.
        """
        return sum(item[0] for item in self._pending)

    @property
    def stretches(self) -> Tuple[tuple, ...]:
        """The stretch windows that may still apply."""
        return tuple(self._stretches)

    # -- contention ------------------------------------------------------

    def stretch(self, start_s: float, end_s: float, factor: float,
                tally: Optional[Callable[[], None]] = None) -> None:
        """Open a stretch window ``[start_s, end_s)`` of ``factor``;
        ``tally()`` runs once per transmission it stretches.  Windows that
        have closed are dropped, and one that overlaps the last window
        with the same factor and tally extends it (a burst of firmware
        commands is one window)."""
        now = self.sim.now
        windows = [w for w in self._stretches if w[1] > now]
        window = (start_s, end_s, factor, tally)
        if windows:
            last_start, last_end, last_factor, last_tally = windows[-1]
            if (last_factor == factor and last_tally == tally
                    and last_start <= start_s <= last_end):
                window = (last_start, max(last_end, end_s), factor, tally)
                windows.pop()
        windows.append(window)
        self._stretches = windows
        self._stretch_until = max(self._stretch_until, end_s)

    def _stretch_factor(self, now: float) -> float:
        factor = 1.0
        tally = None
        for start_s, end_s, window_factor, window_tally in self._stretches:
            if start_s <= now < end_s and window_factor > factor:
                factor = window_factor
                tally = window_tally
        if tally is not None:
            tally()
        return factor

    # -- transmission ----------------------------------------------------

    def transmit(self, size_bytes: int) -> Event:
        """Enqueue a transmission; the returned event fires at wire-done.
        For callers that wait on it; a caller that only needs a callback
        uses :meth:`transmit_cb` or :meth:`transmit_deferred` (no event)."""
        done = self.sim.event()
        self._admit((size_bytes, None, (), done))
        return done

    def transmit_cb(self, size_bytes: int, on_wire_done: Callable, *cb_args) -> None:
        """Enqueue a transmission; ``on_wire_done(*cb_args)`` runs inside
        the port's finish event at wire-done.  The wire-done dispatch an
        event would have added has no listener, so it is credited
        (``Simulator.credit_events``) instead of being pushed, popped and
        run: same instants, same order, same ``events_processed``."""
        self._admit((size_bytes, on_wire_done, cb_args, None))

    def transmit_deferred(self, size_bytes: int, on_wire_done: Callable, *cb_args) -> None:
        """Enqueue a transmission; ``on_wire_done(*cb_args)`` is dispatched
        as its own entry at the wire-done instant: exactly the slot a
        wire-done event's ``succeed()`` would take (same instant, same
        position among same-instant entries), minus the event.  The finish
        event hands it off (``Simulator.hand_off``), so it runs in place
        unless something else is due first."""
        self._admit((size_bytes, on_wire_done, cb_args, _DEFERRED))

    def _admit(self, item: tuple) -> None:
        """The one admission step: queue behind the transmission on the
        wire, or begin serializing now (stretched inside a window)."""
        if self._active:
            self._pending.append(item)
            return
        self._active = True
        size_bytes = item[0]
        delay = 0.0
        if size_bytes > 0:
            delay = size_bytes * 8.0 / self.rate_bps
            now = self.sim.now
            if now < self._stretch_until:
                delay *= self._stretch_factor(now)
        self.sim.schedule(delay, self._finish, item)

    def _finish(self, item: tuple) -> None:
        size_bytes, on_wire_done, cb_args, done = item
        sim = self.sim
        self._bytes_sent += size_bytes
        if done is _DEFERRED:
            # Handed off as this dispatch's last act, in the slot it takes
            # before the next transmission's finish (DESIGN.md §12.11).
            self._active = False
            seq = None
            if self._pending:
                seq = sim.reserve()
                self._admit(self._pending.popleft())
            sim.hand_off(on_wire_done, cb_args, seq)
            return
        if done is None:
            on_wire_done(*cb_args)
            sim.credit_events(processed=1)
        else:
            done.succeed(sim.now)
        self._active = False  # only now: a callback's transmission queues
        if self._pending:
            self._admit(self._pending.popleft())
