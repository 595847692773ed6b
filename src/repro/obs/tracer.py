"""Tracing: spans and instant events on simulated time, per-lane.

The :class:`Tracer` is the recording half of the observability subsystem
(:mod:`repro.obs`).  Model code emits **spans** (durations) and **instant
events** keyed on *simulated* time, organised into lanes: a lane is a
(process, thread) pair in Chrome-trace terms, mapped here to
(node-or-subsystem, component) — e.g. ``("source", "qp0x100")`` for one
RNIC engine, ``("migration", "blackout-phases")`` for the Figure 3 phases.

The simulation kernel itself is the one component whose activity is
invisible in simulated time (dispatch is instantaneous by construction),
so its lane records **wall-clock** batches instead: every
``kernel_sample_every`` heap events it emits one span covering the batch's
wall-clock window plus a counter sample of ``events_processed`` — where
the real time goes, next to what the model did.

Hard guarantees
---------------
- **Zero cost when absent.**  Instrumented code guards every emission with
  ``tr = sim.tracer`` / ``if tr is not None`` — a tracer-less simulation
  pays one attribute load and a None test per instrumentation point.
- **No semantic footprint.**  The tracer never schedules events, never
  advances time, and never draws randomness: enabling it cannot move a
  simulated timestamp or shift the RNG stream (pinned by
  ``tests/integration/test_simtime_equivalence.py``).
"""

from __future__ import annotations

import re
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.sim.core import Event, Process, Timeout

__all__ = ["Lane", "Span", "Tracer"]

#: Event-record kinds (first tuple element of each recorded event).
_SPAN = "X"
_BEGIN = "B"
_INSTANT = "i"
_COUNTER = "C"


#: numeric ids in process names (QPNs, pids, SSNs) — dropped so that all
#: instances of one kind of process land in one census family
_ID_RE = re.compile(r"0x[0-9a-f]+|\d+")


def _qualname(callback) -> str:
    return getattr(callback, "__qualname__", None) or repr(callback)


def event_family(callback) -> str:
    """Census key of a schedule entry about to be dispatched.

    A plain callback is its qualified name (``Port._finish``,
    ``Node.deliver``).  An event firing is keyed by who listens: the
    waiting process's name with its ids dropped for a process ``yield``,
    the first listener's qualified name otherwise, and ``event with no
    listener`` when the dispatch will wake nobody — the kind of entry a
    caller can elide and credit (DESIGN.md §12.4).
    """
    owner = getattr(callback, "__self__", None)
    if not isinstance(owner, Event) or callback.__name__ != "_process_callbacks":
        return _qualname(callback)
    kind = "timeout" if isinstance(owner, Timeout) else "event"
    if not owner.callbacks:
        return f"{kind} with no listener"
    listener = owner.callbacks[0]
    waiter = getattr(listener, "__self__", None)
    if isinstance(waiter, Process):
        return f"{kind} -> process {_ID_RE.sub('#', waiter.name)}"
    return f"{kind} -> {_qualname(listener)}"


class Lane:
    """One horizontal track in the trace: a (process, thread) pair."""

    __slots__ = ("pid", "tid", "process", "thread")

    def __init__(self, pid: int, tid: int, process: str, thread: str):
        self.pid = pid
        self.tid = tid
        self.process = process
        self.thread = thread

    def __repr__(self) -> str:
        return f"<Lane {self.process}/{self.thread} pid={self.pid} tid={self.tid}>"


class Span:
    """An open duration event; call :meth:`end` when the work finishes.

    Spans survive generator yields (the reason they are handles, not
    context managers): begin in one callback, end many simulated
    microseconds later.  A span never ended is exported as an open ``B``
    event so the timeline still shows where it started.
    """

    __slots__ = ("_tracer", "_lane", "name", "start_us", "args", "_ended")

    def __init__(self, tracer: "Tracer", lane: Lane, name: str,
                 start_us: float, args: Optional[Dict[str, Any]]):
        self._tracer = tracer
        self._lane = lane
        self.name = name
        self.start_us = start_us
        self.args = args
        self._ended = False

    def end(self, **extra_args: Any) -> float:
        """Close the span at the current simulated time; returns duration (us)."""
        if self._ended:
            return 0.0
        self._ended = True
        tracer = self._tracer
        tracer._open.pop(id(self), None)
        end_us = tracer._now_us()
        if extra_args:
            args = dict(self.args) if self.args else {}
            args.update(extra_args)
            self.args = args
        tracer._events.append((_SPAN, self._lane, self.name, self.start_us,
                               end_us - self.start_us, self.args))
        return end_us - self.start_us


class _SyncSpan:
    """``with tracer.span(...)`` for spans that do not cross a yield."""

    __slots__ = ("_span",)

    def __init__(self, span: Optional[Span]):
        self._span = span  # None when the tracer is disabled

    def __enter__(self) -> Optional[Span]:
        return self._span

    def __exit__(self, *exc) -> None:
        if self._span is not None:
            self._span.end()


class Tracer:
    """Records spans/instants/counters against a simulator's clock.

    Attach with :meth:`attach` (sets ``sim.tracer``); instrumented code all
    over the stack then starts emitting.  ``enabled=False`` keeps the
    object inert even when attached — every emission method returns
    immediately.
    """

    #: Process name used for the simulation kernel's wall-clock lane.
    KERNEL_PROCESS = "sim-kernel"

    def __init__(self, sim, enabled: bool = True,
                 kernel_sample_every: int = 1024,
                 kernel_dispatch: bool = False, census: bool = False):
        self.sim = sim
        self.enabled = enabled
        #: event census: dispatches counted by :func:`event_family`
        #: (``None`` unless asked for — it costs a classification per event).
        self.census: Optional[Dict[str, int]] = {} if census else None
        #: per-dispatch instants on the kernel lane (verbose; big traces).
        self.kernel_dispatch = kernel_dispatch
        self.kernel_sample_every = max(1, kernel_sample_every)
        self._events: List[Tuple] = []
        #: spans begun but not yet ended (exported as open ``B`` events).
        self._open: Dict[int, Span] = {}
        self._lanes: Dict[Tuple[str, str], Lane] = {}
        self._pids: Dict[str, int] = {}
        self._next_tid: Dict[int, int] = {}
        # Kernel wall-clock sampling state.
        self._wall_base = time.perf_counter()
        self._ktick = 0
        self._kbatch_start_wall: Optional[float] = None

    # -- attachment -----------------------------------------------------

    def attach(self) -> "Tracer":
        """Install as ``sim.tracer`` so instrumented code can find us."""
        self.sim.tracer = self
        return self

    # -- clock ----------------------------------------------------------

    def _now_us(self) -> float:
        return self.sim.now * 1e6

    def _wall_us(self) -> float:
        return (time.perf_counter() - self._wall_base) * 1e6

    # -- lanes ----------------------------------------------------------

    def lane(self, process: str, thread: str) -> Lane:
        """Get-or-create the lane for (process, thread)."""
        key = (process, thread)
        lane = self._lanes.get(key)
        if lane is None:
            pid = self._pids.get(process)
            if pid is None:
                pid = self._pids[process] = len(self._pids) + 1
                self._next_tid[pid] = 0
            self._next_tid[pid] += 1
            lane = Lane(pid, self._next_tid[pid], process, thread)
            self._lanes[key] = lane
        return lane

    def lanes(self) -> List[Lane]:
        return list(self._lanes.values())

    def kernel_lane(self) -> Lane:
        return self.lane(self.KERNEL_PROCESS, "dispatch")

    # -- emission --------------------------------------------------------

    def begin_span(self, lane: Lane, name: str,
                   args: Optional[Dict[str, Any]] = None) -> Optional[Span]:
        """Open a span at the current simulated time; ``None`` if disabled."""
        if not self.enabled:
            return None
        span = Span(self, lane, name, self._now_us(), args)
        self._open[id(span)] = span
        return span

    def span(self, lane: Lane, name: str,
             args: Optional[Dict[str, Any]] = None) -> "_SyncSpan":
        """Context manager variant for spans that do not cross a yield."""
        return _SyncSpan(self.begin_span(lane, name, args))

    def open_spans(self) -> List[Span]:
        """Spans begun but never ended (leaked or still in flight)."""
        return list(self._open.values())

    def instant(self, lane: Lane, name: str,
                args: Optional[Dict[str, Any]] = None) -> None:
        if not self.enabled:
            return
        self._events.append((_INSTANT, lane, name, self._now_us(), args))

    # -- kernel hook -----------------------------------------------------

    def _kernel_tick(self, sim, callback) -> None:
        """Called by the traced simulator loop right before it dispatches
        ``callback`` (so an event's listeners are still in place).

        Emits a wall-clock batch span + counter sample every
        ``kernel_sample_every`` events, (verbose mode) a per-dispatch
        instant naming the callback, and (census mode) one count under the
        entry's :func:`event_family`.
        """
        lane = self.kernel_lane()
        if self.census is not None:
            family = event_family(callback)
            self.census[family] = self.census.get(family, 0) + 1
        if self.kernel_dispatch:
            self._events.append((_INSTANT, lane, f"dispatch:{_qualname(callback)}",
                                 self._wall_us(), None))
        self._ktick += 1
        if self._kbatch_start_wall is None:
            self._kbatch_start_wall = self._wall_us()
        if self._ktick % self.kernel_sample_every:
            return
        now_wall = self._wall_us()
        self._events.append((
            _SPAN, lane, "dispatch-batch", self._kbatch_start_wall,
            now_wall - self._kbatch_start_wall,
            {"events": self.kernel_sample_every, "sim_now_s": sim.now},
        ))
        self._kbatch_start_wall = now_wall
        self._events.append((_COUNTER, self.lane(self.KERNEL_PROCESS, "counters"),
                             "sim.events_processed", now_wall,
                             {"events": sim.events_processed}))

    # -- introspection ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> List[Tuple]:
        """The raw event records (exporters consume these)."""
        return self._events

    def span_count(self, lane: Optional[Lane] = None) -> int:
        return sum(1 for e in self._events
                   if e[0] == _SPAN and (lane is None or e[1] is lane))
