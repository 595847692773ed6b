"""Synchronisation primitives built on the event kernel.

One coordination tool for processes: a :class:`Broadcast` signal for
suspension/wake notifications (the indirection layer and wait-before-stop
use it).  The per-message fabric and RNIC paths use none: they are
callback state machines on the schedule (DESIGN.md §12.10).
"""

from __future__ import annotations

from typing import Any, List

from repro.sim.core import Event, Simulator


class Broadcast:
    """A level-triggered signal many processes can wait on.

    :meth:`wait` returns an event that fires the next time :meth:`fire` is
    called (or immediately if ``sticky`` and already fired).  Used for the
    suspension flag handshake between the indirection layer and guest libs.
    """

    def __init__(self, sim: Simulator, sticky: bool = False):
        self.sim = sim
        self.sticky = sticky
        self._fired = False
        self._last_value: Any = None
        self._waiters: List[Event] = []

    @property
    def fired(self) -> bool:
        return self._fired

    def wait(self) -> Event:
        event = self.sim.event()
        if self.sticky and self._fired:
            event.succeed(self._last_value)
        else:
            self._waiters.append(event)
        return event

    def fire(self, value: Any = None) -> None:
        self._fired = True
        self._last_value = value
        waiters, self._waiters = self._waiters, []
        for event in waiters:
            event.succeed(value)

    def reset(self) -> None:
        """Clear the sticky fired state (waiters are unaffected)."""
        self._fired = False
        self._last_value = None
