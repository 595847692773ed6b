"""Completion queues, work completions and completion channels."""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional

from repro.rnic.constants import Opcode, WCStatus
from repro.rnic.errors import CQError
from repro.sim import Event, Simulator

_cq_handles = itertools.count(1)


@dataclass
class WorkCompletion:
    """A CQ entry.

    ``qp_num`` is the *local physical* QPN the NIC writes into the CQE —
    exactly the value MigrRDMA's guest lib must translate back to the
    virtual QPN before the application sees it (§3.3).
    """

    wr_id: int
    status: WCStatus
    opcode: Opcode
    qp_num: int
    byte_len: int = 0
    imm_data: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.status is WCStatus.SUCCESS


class CompletionChannel:
    """Interrupt-style completion notification (ibv_comp_channel).

    Each armed CQ pushes one event into the channel when a CQE arrives; the
    application waits with :meth:`get_cq_event` (a blocking event in sim
    terms) and must acknowledge events, mirroring ibverbs.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._events: Deque["CQ"] = deque()
        self._waiters: Deque[Event] = deque()
        self.unacked_events = 0

    def notify(self, cq: "CQ") -> None:
        self.unacked_events += 1
        if self._waiters:
            self._waiters.popleft().succeed(cq)
        else:
            self._events.append(cq)

    def get_cq_event(self) -> Event:
        """An event firing with the CQ that generated a completion event."""
        event = self.sim.event()
        if self._events:
            event.succeed(self._events.popleft())
        else:
            self._waiters.append(event)
        return event

    def ack_events(self, count: int = 1) -> None:
        if count > self.unacked_events:
            raise CQError(f"acking {count} events but only {self.unacked_events} outstanding")
        self.unacked_events -= count


class CQ:
    """A completion queue: bounded ring of :class:`WorkCompletion` entries."""

    def __init__(self, sim: Simulator, depth: int, channel: Optional[CompletionChannel] = None):
        if depth <= 0:
            raise CQError(f"CQ depth must be positive, got {depth}")
        self.sim = sim
        self.handle = next(_cq_handles)
        self.depth = depth
        self.channel = channel
        self._entries: Deque[WorkCompletion] = deque()
        self._armed = False
        self.destroyed = False
        self.total_completions = 0
        #: ``wake(tick_first)`` of the one poll loop parked here (DESIGN.md §12.5);
        #: a CQE arrives 50 ns after it was raised, so a tick due now ran first
        self.waiter: Optional[Callable[[bool], None]] = None

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, wc: WorkCompletion) -> None:
        """NIC-side: append a completion, firing the channel if armed."""
        if self.destroyed:
            raise CQError("completion pushed to a destroyed CQ")
        if len(self._entries) >= self.depth:
            raise CQError(f"CQ overflow (depth {self.depth})")
        self._entries.append(wc)
        self.total_completions += 1
        if self.waiter is not None:
            self.waiter(True)
        if self._armed and self.channel is not None:
            self._armed = False
            self.channel.notify(self)

    def poll(self, max_entries: int = 1) -> List[WorkCompletion]:
        """Application-side: pop up to ``max_entries`` completions."""
        if self.destroyed:
            raise CQError("polling a destroyed CQ")
        out = []
        entries = self._entries
        while entries and max_entries > 0:
            out.append(entries.popleft())
            max_entries -= 1
        return out

    def req_notify(self) -> None:
        """Arm the CQ: next push notifies the completion channel."""
        if self.channel is None:
            raise CQError("req_notify on a CQ without a completion channel")
        self._armed = True

    def destroy(self) -> None:
        self.destroyed = True
        self._entries.clear()
        if self.waiter is not None:
            self.waiter(False)  # its next poll must still raise CQError
