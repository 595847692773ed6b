"""Synchronisation primitives built on the event kernel.

Coordination tools for processes: a FIFO :class:`Queue` for message
passing, a :class:`Broadcast` signal for suspension/wake notifications (the
indirection layer and wait-before-stop use it), and a counting
:class:`Resource` for modelling contention (e.g. NIC processing slots).
The per-message fabric and RNIC paths use none of them: they are callback
state machines on the schedule (DESIGN.md §12.10).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, List

from repro.sim.core import Event, SimulationError, Simulator


class Queue:
    """Unbounded FIFO channel between simulated processes.

    ``put`` never blocks; ``get`` returns an event that fires with the next
    item.  Pending getters are served in arrival order.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        event = self.sim.event()
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> Any:
        """Non-blocking get; returns None when empty."""
        if self._items:
            return self._items.popleft()
        return None

    def peek_all(self) -> List[Any]:
        """Snapshot of queued items without consuming them."""
        return list(self._items)


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


class Resource:
    """Counting semaphore: at most ``capacity`` concurrent holders."""

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    def acquire(self) -> Event:
        event = self.sim.event()
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError("release() without a matching acquire()")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1

    def using(self, sim_process: Generator) -> Generator:
        """Wrap a generator so it runs while holding the resource."""
        yield self.acquire()
        try:
            result = yield self.sim.spawn(sim_process)
        finally:
            self.release()
        return result
