"""Core discrete-event simulation primitives.

The simulator owns simulated time and a pending-event schedule and
advances time by dispatching ``(time, sequence, callback, args)`` entries
in order.  Work is expressed as generator-based processes that ``yield``
events; a process resumes when the yielded event fires, receiving the
event's value (or the event's exception, raised inside the generator).

Scheduler
---------
The pending-event schedule is one binary heap (``heapq``) of mutable
``[time, seq, callback, args]`` entries, dispatched in exact
``(time, seq)`` order.  ``seq`` is a per-simulator counter, so entries
scheduled for the same instant fire in schedule order.  Cancellation is
lazy: :meth:`Simulator.cancel` nulls the callback slot and the dispatch
loops drop the tombstone when it reaches the head (DESIGN.md §12.1).

Fast paths
----------
The kernel is the hot loop of every experiment, so it carries a few
wall-clock optimisations that do not change simulated-time semantics:

- Entries are mutable records so a scheduled callback can be *cancelled
  in place*.  ``schedule`` returns the entry as the cancel handle;
  :meth:`Timeout.cancel` deschedules a pending timeout the same way.
  This is what lets the RNIC retire retransmission timers on ACK instead
  of letting a stale timer fire per transmitted WR.
- ``Timeout`` objects are pooled on a per-simulator free list.  A timeout
  whose only consumer was a process ``yield`` (the overwhelmingly common
  case) is recycled as soon as its callback has run; timeouts that are
  stored, raced in conditions, or otherwise observed after firing are never
  recycled.  Cancelled timeouts are never recycled.
- Callbacks added to an already-processed event dispatch immediately
  instead of round-tripping the scheduler through a closure, and a process
  that yields an already-processed event consumes it synchronously in a
  loop (no recursion, no scheduler traffic).
- ``schedule`` accepts ``*args`` so hot callers can pass bound methods with
  arguments instead of allocating closures.
- ``Simulator.events_processed`` counts every executed entry; the
  ``benchmarks/test_simperf.py`` harness divides it by wall-clock time to
  track the kernel's events/sec over time.  ``credit_events`` keeps that
  count (and the run digests built on it) bit-identical wherever a
  dispatch is elided exactly: every listener-less
  :class:`~repro.fabric.port.Port` completion and every idle poll a parked
  loop replays.
- ``Simulator.tracer`` (normally ``None``) hooks the run loops into the
  :mod:`repro.obs` tracing subsystem: with a tracer attached the kernel
  emits wall-clock dispatch-batch spans and counter samples.  The hook is
  a single local-bool test per dispatched event when disabled, and tracing
  never perturbs simulated time.
"""

from __future__ import annotations

from heapq import heappop, heappush
from types import MethodType
from typing import Any, Callable, Generator, Iterable, List, Optional

#: Upper bound on the per-simulator Timeout free list (plenty for the
#: steady-state working set; prevents pathological growth after bursts).
_TIMEOUT_POOL_MAX = 4096


class SimulationError(RuntimeError):
    """Raised when the simulation itself is misused (not model errors)."""


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence processes can wait on.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    triggers it exactly once, after which its callbacks run at the current
    simulated time.  Waiting on an already-triggered event resumes the
    waiter immediately (at the current time).
    """

    __slots__ = ("sim", "callbacks", "_value", "_exception", "_triggered", "_processed")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._triggered = False
        self._processed = False

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def ok(self) -> bool:
        if not self._triggered:
            raise SimulationError("event has not been triggered yet")
        return self._exception is None

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event has not been triggered yet")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception

    def succeed(self, value: Any = None) -> "Event":
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        sim = self.sim
        sim._sequence = seq = sim._sequence + 1
        heappush(sim._heap, [sim.now, seq, self._process_callbacks, ()])
        return self

    def fail(self, exception: BaseException) -> "Event":
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._exception = exception
        sim = self.sim
        sim._sequence = seq = sim._sequence + 1
        heappush(sim._heap, [sim.now, seq, self._process_callbacks, ()])
        return self

    def _process_callbacks(self) -> None:
        self._processed = True
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` once the event has been triggered.

        For an already-processed event the callback runs immediately: the
        event's outcome is final by then, so there is nothing to wait for
        and no closure/scheduler round-trip is needed.
        """
        if self._processed:
            callback(self)
        else:
            self.callbacks.append(callback)


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation.

    Prefer :meth:`Simulator.timeout`, which recycles fired timeouts from a
    free list.  A pooled timeout must not be stored and inspected after it
    fires (use :meth:`Simulator.event` for that); timeouts consumed by a
    plain ``yield`` — the only pattern the pool recycles — are safe.
    """

    __slots__ = ("delay", "_entry")

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._exception = None
        self._triggered = True
        self._processed = False
        self.delay = delay
        sim._sequence = seq = sim._sequence + 1
        self._entry = [sim.now + delay, seq, self._process_callbacks, ()]
        heappush(sim._heap, self._entry)

    def cancel(self) -> bool:
        """Deschedule a pending timeout.

        Returns ``True`` if the timeout was still scheduled; its callbacks
        will never run.  Only legal for timers nobody is waiting on (a
        process blocked on a cancelled timeout would never resume); the
        typical caller is a retransmission/watchdog timer retired early
        because the condition it guarded already resolved.
        """
        if self._processed:
            return False
        return self.sim.cancel(self._entry)

    def _process_callbacks(self) -> None:
        self._processed = True
        callbacks, self.callbacks = self.callbacks, []
        try:
            callback, = callbacks
        except ValueError:  # zero or several consumers: never recycled
            for callback in callbacks:
                callback(self)
            return
        callback(self)
        # Recycle iff the only consumer was a process yield: nobody else
        # holds a reference that could observe the reused object.
        if (not self.callbacks and callback.__class__ is MethodType
                and callback.__func__ is Process._on_event):
            pool = self.sim._timeout_pool
            if len(pool) < _TIMEOUT_POOL_MAX:
                pool.append(self)


class Process(Event):
    """Drives a generator, treating each yielded event as a wait point.

    A process is itself an event: it triggers with the generator's return
    value when the generator finishes, or fails with the generator's
    unhandled exception.
    """

    __slots__ = ("generator", "name", "_waiting_on")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise TypeError(f"Process requires a generator, got {type(generator)!r}")
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        sim.schedule(0.0, self._start)

    def __repr__(self) -> str:
        return f"<Process {self.name} at t={self.sim.now:.6f}>"

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def _start(self) -> None:
        self._resume(None, None)

    def _on_event(self, event: Event) -> None:
        if self._triggered or event is not self._waiting_on:
            # Stale wakeup: the process was interrupted (or already resumed)
            # while this event was in flight — ignore it.
            return
        self._waiting_on = None
        if event._exception is not None:
            self._resume(None, event._exception)
        else:
            self._resume(event._value, None)

    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        generator = self.generator
        while True:
            try:
                if exc is not None:
                    target = generator.throw(exc)
                else:
                    target = generator.send(value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except Interrupt as interrupt:
                self.fail(interrupt)
                return
            except Exception as error:
                self.sim.failed_processes.append((self.name, error))
                self.fail(error)
                return
            try:
                processed = target._processed
            except AttributeError:  # not an Event
                generator.close()
                self.fail(SimulationError(f"process {self.name!r} yielded non-event {target!r}"))
                return
            if not processed:
                self._waiting_on = target
                target.callbacks.append(self._on_event)
                return
            # Already-processed event: consume it synchronously and keep
            # driving the generator (no scheduler round-trip, no recursion).
            exc = target._exception
            value = target._value if exc is None else None

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._triggered:
            return

        def deliver() -> None:
            if self._triggered:
                return
            # Detach from whatever the process was waiting on; the stale
            # event callback is neutralised by the _waiting_on identity
            # check in _on_event.  For a timeout we go further and remove
            # the callback eagerly — and if that orphans the timeout,
            # cancel its entry so the stale wakeup is never dispatched.
            waiting = self._waiting_on
            self._waiting_on = None
            if waiting is not None and not waiting._processed:
                try:
                    waiting.callbacks.remove(self._on_event)
                except ValueError:
                    pass
                if not waiting.callbacks and isinstance(waiting, Timeout):
                    waiting.cancel()
            self._resume(None, Interrupt(cause))

        self.sim.schedule(0.0, deliver)


class _Condition(Event):
    """Base for AllOf/AnyOf: waits on several events at once."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._pending = len(self.events)
        if not self.events:
            self.succeed([])
            return
        for event in self.events:
            event.add_callback(self._check)

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers once every constituent event has triggered.

    The value is the list of constituent values in construction order.  The
    first failure fails the condition.
    """

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if event._exception is not None:
            self.fail(event._exception)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([e._value for e in self.events])


class AnyOf(_Condition):
    """Triggers when the first constituent event triggers.

    The value is a ``(event, value)`` pair identifying which fired first.
    """

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if event._exception is not None:
            self.fail(event._exception)
            return
        self.succeed((event, event._value))


class Simulator:
    """The event loop: owns simulated time and the pending-event schedule."""

    def __init__(self):
        self.now: float = 0.0
        self._sequence = 0
        self._timeout_pool: List[Timeout] = []
        #: entries executed since construction — the numerator of the
        #: events/sec throughput metric tracked in BENCH_simperf.json.
        #: Cancelled entries are skipped without being counted.
        self.events_processed = 0
        #: entries descheduled via :meth:`cancel` / :meth:`Timeout.cancel`.
        self.events_cancelled = 0
        #: dispatches elided exactly and accounted for via
        #: :meth:`credit_events` (already included in events_processed).
        self.events_credited = 0
        #: (name, exception) of processes that died with an unhandled error —
        #: useful for debugging background processes nobody awaits.
        self.failed_processes: List = []
        #: optional :class:`repro.obs.Tracer`.  ``None`` (the default) keeps
        #: the kernel loops on their untraced fast path; an attached enabled
        #: tracer samples wall-clock dispatch batches.  Purely observational:
        #: it never changes event order, timestamps, or the RNG stream.
        self.tracer = None
        #: the pending-event schedule: a heapq of
        #: ``[time, seq, callback, args]`` entries (callback ``None`` once
        #: cancelled or dispatched).
        self._heap: List[list] = []

    # -- scheduling ------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> list:
        """Run ``callback(*args)`` ``delay`` seconds from now.

        Returns the schedule entry, usable as a handle for :meth:`cancel`.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        self._sequence = seq = self._sequence + 1
        entry = [self.now + delay, seq, callback, args]
        heappush(self._heap, entry)
        return entry

    def cancel(self, entry: list) -> bool:
        """Deschedule an entry returned by :meth:`schedule`.

        The entry is tombstoned in place and dropped when it reaches the
        head of the heap.  Returns ``False`` if the entry already ran or
        was already cancelled.
        """
        if entry[2] is None:
            return False
        entry[2] = None
        entry[3] = ()
        self.events_cancelled += 1
        return True

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> list:
        """Run ``callback(*args)`` at absolute simulated ``time``.

        Exists for fast paths that must reproduce a timestamp another code
        path computed earlier: ``schedule(time - now, ...)`` would round
        differently (``now + (time - now) != time`` in floats), so callers
        that re-materialize a previously computed event pass the stored
        absolute time through unchanged.
        """
        if time < self.now:
            raise ValueError(f"schedule_at in the past: {time} < {self.now}")
        self._sequence = seq = self._sequence + 1
        entry = [time, seq, callback, args]
        heappush(self._heap, entry)
        return entry

    def credit_events(self, processed: int) -> None:
        """Account for events elided without dispatching.

        ``events_credited`` covers every exactly-elided dispatch: a
        :class:`~repro.fabric.port.Port` completion nobody listens to, and
        the idle polls a parked poll loop replays, are credited instead of
        being pushed, popped and run.  Either way ``events_processed``
        (which feeds run digests and the events/sec benchmarks) stays
        exactly what dispatching them would have produced.  A credit lands
        when the elided entry would have been *scheduled*, so the count
        runs ahead of the dispatching kernel only inside one instant
        (DESIGN.md §12.4).
        """
        self.events_processed += processed
        self.events_credited += processed

    def _schedule_event(self, event: Event, delay: float = 0.0) -> None:
        self.schedule(delay, event._process_callbacks)

    # -- factories -------------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        pool = self._timeout_pool
        if pool and delay >= 0:
            timeout = pool.pop()
            timeout.delay = delay
            timeout._value = value
            timeout._exception = None
            timeout._triggered = True
            timeout._processed = False
            self._sequence = seq = self._sequence + 1
            timeout._entry = entry = [self.now + delay, seq,
                                      timeout._process_callbacks, ()]
            heappush(self._heap, entry)
            return timeout
        return Timeout(self, delay, value)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- execution -------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or simulated time reaches ``until``.

        Returns the simulated time at which execution stopped.
        """
        if until is not None and until < self.now:
            raise ValueError(f"until={until} is in the past (now={self.now})")
        heap = self._heap
        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled
        if until is None:
            while heap:
                entry = heappop(heap)
                callback = entry[2]
                if callback is None:
                    continue
                entry[2] = None
                self.now = entry[0]
                self.events_processed += 1
                if tracing:
                    tracer._kernel_tick(self, callback)
                callback(*entry[3])
            return self.now
        while heap:
            if heap[0][0] > until:
                self.now = until
                return self.now
            entry = heappop(heap)
            callback = entry[2]
            if callback is None:
                continue
            entry[2] = None
            self.now = entry[0]
            self.events_processed += 1
            if tracing:
                tracer._kernel_tick(self, callback)
            callback(*entry[3])
        self.now = until
        return self.now

    def run_until_complete(self, process: Process, limit: float = float("inf")) -> Any:
        """Run until ``process`` finishes; return its value or raise its error.

        ``limit`` bounds simulated time as a runaway guard.
        """
        heap = self._heap
        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled
        while not process._triggered:
            if not heap:
                raise SimulationError(f"deadlock: {process!r} never completed and the event queue drained")
            entry = heap[0]
            callback = entry[2]
            if callback is None:
                # Drop a cancelled head before the limit test: a tombstone
                # beyond ``limit`` is not pending work.
                heappop(heap)
                continue
            if entry[0] > limit:
                raise SimulationError(f"time limit {limit} exceeded waiting for {process!r}")
            heappop(heap)
            entry[2] = None
            self.now = entry[0]
            self.events_processed += 1
            if tracing:
                tracer._kernel_tick(self, callback)
            callback(*entry[3])
        return process.value
