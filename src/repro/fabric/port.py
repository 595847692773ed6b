"""Egress port: a single server draining transmissions at line rate.

All traffic a node originates — RDMA payloads, migration TCP segments,
control-plane notifications — funnels through its port, so serialization
delay and cross-traffic contention fall out of the model for free.  This is
what makes the wait-before-stop theory line (inflight bytes / link rate)
hold in Figure 4.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque

from repro.sim import Event, Simulator

#: ``done`` slot of a queued item whose callback is dispatched as its own
#: schedule entry at wire-done (:meth:`Port.transmit_deferred`).
_DEFERRED = object()


class Port:
    """FIFO egress scheduler with a fixed drain rate.

    Implemented event-driven rather than as a resident drain process: each
    transmission costs one scheduled finish event instead of a queue
    round-trip plus a timeout, which matters because every byte any model
    component sends funnels through here.
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
        self._busy_until = 0.0
        #: Optional callable returning a serialization slowdown factor
        #: (>= 1.0); used to model NIC-internal contention during
        #: control-path bursts (Figure 5 brownout dips).
        self.contention_factor = None

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

    def serialization_time(self, size_bytes: int) -> float:
        return size_bytes * 8.0 / self.rate_bps

    def transmit(self, size_bytes: int) -> Event:
        """Enqueue a transmission; the returned event fires at wire-done.
        For callers that wait on it; a caller that only needs a callback
        uses :meth:`transmit_cb` or :meth:`transmit_deferred` (no event)."""
        done = self.sim.event()
        self._enqueue((size_bytes, None, (), done))
        return done

    def transmit_cb(self, size_bytes: int, on_wire_done: Callable, *cb_args) -> None:
        """Enqueue a transmission; ``on_wire_done(*cb_args)`` runs inside
        the port's finish event at wire-done.  The wire-done dispatch an
        event would have added has no listener, so it is credited
        (``Simulator.credit_events``) instead of being pushed, popped and
        run: same instants, same order, same ``events_processed``."""
        self._enqueue((size_bytes, on_wire_done, cb_args, None))

    def transmit_deferred(self, size_bytes: int, on_wire_done: Callable, *cb_args) -> None:
        """Enqueue a transmission; ``on_wire_done(*cb_args)`` is dispatched
        as its own schedule entry at the wire-done instant: exactly the
        slot a wire-done event's ``succeed()`` would take (same instant,
        same position among same-instant entries), minus the event."""
        self._enqueue((size_bytes, on_wire_done, cb_args, _DEFERRED))

    def _enqueue(self, item: tuple) -> None:
        if self._active:
            self._pending.append(item)
        else:
            self._active = True
            self._begin(item)

    def _begin(self, item: tuple) -> None:
        size_bytes = item[0]
        delay = 0.0
        if size_bytes > 0:
            delay = size_bytes * 8.0 / self.rate_bps
            if self.contention_factor is not None:
                factor = self.contention_factor()
                if factor > 1.0:
                    delay *= factor
        self.sim.schedule(delay, self._finish, item)

    def _finish(self, item: tuple) -> None:
        size_bytes, on_wire_done, cb_args, done = item
        sim = self.sim
        self._bytes_sent += size_bytes
        self._busy_until = sim.now
        if done is _DEFERRED:
            sim.schedule(0.0, on_wire_done, *cb_args)
        elif done is None:
            on_wire_done(*cb_args)
            sim.credit_events(processed=1)
        else:
            done.succeed(sim.now)
        if self._pending:
            self._begin(self._pending.popleft())
        else:
            self._active = False
