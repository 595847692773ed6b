"""The kernel's schedule-order contract, checked against a ``sorted()`` model.

``Simulator`` must fire exactly the uncancelled entries, in
``(time, schedule order)`` order, at exactly the requested timestamps,
and count them in ``events_processed``/``events_cancelled`` — for any
interleaving of schedule/cancel/fire, including the awkward corners
(same-time bursts, zero delay, far-future entries, cancellation from
inside a running callback).  A Hypothesis driver feeds the kernel random
op sequences and compares the firing trace with the model; the units
below pin each corner individually.

The same contract covers the two entry forms that skip the heap
(DESIGN.md §12.11): a tail ``hand_off`` is a zero-delay entry and a
``fixed_delay`` queue entry is a ``schedule(delay, ...)`` entry, to the
model and in every count.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import SimulationError, Simulator

#: Longest delay the random driver draws: a few RC RTOs (504 µs each).
SPAN_S = 3e-3

_op = st.tuples(
    st.one_of(
        st.none(),
        st.floats(min_value=0.0, max_value=SPAN_S, allow_nan=False),
        st.sampled_from([0.0, 0.5e-6, 1.024e-3, 504e-6, 1e-9])),
    st.one_of(st.none(), st.integers(min_value=0, max_value=200)))


class TestRandomEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(st.lists(_op, min_size=1, max_size=60))
    def test_same_trace_processed_and_cancelled(self, ops):
        """``ops`` is a list of (delay_or_None, cancel_ref) tuples: a delay
        schedules a labelled callback, ``None`` skips the schedule, and
        ``cancel_ref`` (when not None) cancels the ref-th previously
        scheduled entry, modulo how many exist."""
        sim = Simulator()
        fired = []
        entries = []
        model = {}  # label -> (time, schedule order, label)
        cancels = 0
        for label, (delay, cancel_ref) in enumerate(ops):
            if delay is not None:
                entries.append((label, sim.schedule(
                    delay, lambda l=label: fired.append((sim.now, l)))))
                model[label] = (delay, len(entries), label)
            if cancel_ref is not None and entries:
                victim, entry = entries[cancel_ref % len(entries)]
                if sim.cancel(entry):
                    cancels += 1
                    del model[victim]
        sim.run()
        assert fired == [(time, label)
                         for time, _order, label in sorted(model.values())]
        assert sim.events_processed == len(fired)
        assert sim.events_cancelled == cancels

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=0, max_value=SPAN_S,
                              allow_nan=False), min_size=1, max_size=40),
           st.integers(min_value=0, max_value=39))
    def test_interleaved_run_and_schedule(self, delays, pivot):
        """Scheduling from inside callbacks (relative to a moved ``now``)
        keeps the same order: a chain whose every link schedules the next
        one, interleaved with entries scheduled up front."""
        sim = Simulator()
        fired = []

        def chain(i):
            fired.append((sim.now, i))
            j = i + 1
            if j < len(delays):
                sim.schedule(delays[j], chain, j)

        sim.schedule(delays[0], chain, 0)
        statics = delays[:pivot]
        for k, delay in enumerate(statics):
            sim.schedule(delay, lambda k=k: fired.append((sim.now, -k)))
        sim.run()

        # Link j is scheduled while link j-1 runs, so after everything
        # scheduled up front and after every earlier link.
        model = [(delays[0], 0, 0)]
        model += [(delay, 1 + k, -k) for k, delay in enumerate(statics)]
        now = delays[0]
        for j in range(1, len(delays)):
            now = now + delays[j]
            model.append((now, len(statics) + j, j))
        assert fired == [(time, label) for time, _order, label in sorted(model)]
        assert sim.events_processed == len(fired)


class TestEdgeCases:
    def test_same_tick_fifo_order(self):
        sim = Simulator()
        fired = []
        for i in range(50):
            sim.schedule(1e-3, fired.append, i)
        sim.run()
        assert fired == list(range(50))

    def test_zero_delay_fires_before_time_advances(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.0, lambda: fired.append(sim.now))
        sim.schedule(1e-6, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [0.0, 1e-6]

    def test_zero_delay_from_inside_callback_runs_same_tick(self):
        sim = Simulator()
        fired = []

        def outer():
            sim.schedule(0.0, lambda: fired.append(("inner", sim.now)))
            fired.append(("outer", sim.now))

        sim.schedule(5e-4, outer)
        sim.schedule(6e-4, lambda: fired.append(("later", sim.now)))
        sim.run()
        assert fired == [("outer", 5e-4), ("inner", 5e-4), ("later", 6e-4)]

    def test_far_future_entry_fires_at_exact_instant(self):
        """A watchdog-scale delay, orders of magnitude past the dense
        microsecond timers, still fires at exactly the requested time."""
        sim = Simulator()
        fired = []
        far = 50 * 1.024e-3
        sim.schedule(far, lambda: fired.append(sim.now))
        sim.schedule(1e-6, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1e-6, far]

    def test_cancel_inside_callback(self):
        """A callback cancelling a later entry — and a same-time entry that
        has not yet dispatched — stops both."""
        sim = Simulator()
        fired = []
        victims = []

        def killer():
            fired.append("killer")
            for victim in victims:
                sim.cancel(victim)

        sim.schedule(1e-3, killer)
        victims.append(sim.schedule(1e-3, fired.append, "same-tick"))
        victims.append(sim.schedule(2e-3, fired.append, "later"))
        sim.schedule(3e-3, fired.append, "survivor")
        sim.run()
        assert fired == ["killer", "survivor"]
        assert sim.events_cancelled == 2

    def test_schedule_at_reproduces_exact_timestamp(self):
        """``schedule_at`` must not re-round: after time has advanced,
        ``now + (t - now)`` generally differs from ``t`` in floats."""
        target = 0.1 + 0.2  # 0.30000000000000004
        sim = Simulator()
        fired = []
        sim.schedule(0.05, lambda: sim.schedule_at(target, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [target]

    def test_schedule_at_rejects_past(self):
        sim = Simulator()
        sim.schedule(1e-3, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(5e-4, lambda: None)


class TestOccupancyAfterCancelStorm:
    def test_storm_interleaved_with_live_traffic(self):
        """A burst of armed-then-cancelled retransmission timers leaves
        tombstones behind until their deadline; running past it fires only
        the live timers and drains every tombstone (none leak)."""
        sim = Simulator()
        fired = []
        keep = [sim.schedule(504e-6, fired.append, i) for i in range(64)]
        storm = [sim.schedule(504e-6, fired.append, -1) for _ in range(50_000)]
        for entry in storm:
            assert sim.cancel(entry)
        sim.run()
        assert fired == list(range(len(keep)))
        assert sim.events_processed == 64
        assert sim.events_cancelled == 50_000
        assert not sim._heap


#: The fixed delay of the random programs' timers (an RTO, scaled down so
#: that timers fire inside the programs' few-microsecond spans).
TIMER_S = 5e-6
#: Delays the random programs draw: zero (a live entry at the current
#: instant, ahead of a later hand-off), exact multiples that make instants
#: collide, and the timer delay itself (ties with the timers).
_DELAYS = (0.0, 0.0, 1e-6, 2e-6, 2.5e-6, TIMER_S)


class _ModelKernel:
    """The reference: every entry, hand-offs and timers included, is a
    plain ``(time, seq)`` record, and the next one is found by ``sorted()``."""

    def __init__(self):
        self.now = 0.0
        self.seq = 0
        self.pending = {}  # seq -> (time, callback, args)
        self.processed = 0
        self.cancelled = 0

    def schedule(self, delay, callback, *args):
        self.seq += 1
        self.pending[self.seq] = (self.now + delay, callback, args)
        return self.seq

    def hand_off(self, callback, *args):
        self.schedule(0.0, callback, *args)

    def timer(self, callback, *args):
        return self.schedule(TIMER_S, callback, *args)

    def cancel(self, handle):
        if self.pending.pop(handle, None) is None:
            return False
        self.cancelled += 1
        return True

    def run(self, until=None):
        while self.pending:
            time, seq = sorted((t, s) for s, (t, _cb, _args) in self.pending.items())[0]
            if until is not None and time > until:
                break
            _time, callback, args = self.pending.pop(seq)
            self.now = time
            self.processed += 1
            callback(*args)
        if until is not None:
            self.now = until


class _RealKernel:
    def __init__(self):
        self.sim = Simulator()
        self.timers = self.sim.fixed_delay(TIMER_S)

    @property
    def now(self):
        return self.sim.now

    def schedule(self, delay, callback, *args):
        return self.sim.schedule(delay, callback, *args)

    def hand_off(self, callback, *args):
        self.sim.hand_off(callback, args)

    def timer(self, callback, *args):
        return self.timers.schedule(callback, *args)

    def cancel(self, handle):
        return self.sim.cancel(handle)

    def run(self, until=None):
        self.sim.run(until)


def _random_program(kernel, seed, budget, slices):
    """Drive ``kernel`` with a program drawn from ``seed`` in dispatch
    order: each callback logs itself, then schedules plain entries, arms
    and cancels timers, and hands off as its last act.  Both kernels draw
    the same program as long as they dispatch in the same order."""
    rng = random.Random(seed)
    fired = []
    handles = []
    labels = iter(range(budget))

    def act(label):
        fired.append((kernel.now, label))
        for _ in range(rng.randrange(3)):
            choice = rng.random()
            child = next(labels, None)
            if child is None:
                break
            if choice < 0.45:
                handles.append(kernel.schedule(rng.choice(_DELAYS), act, child))
            else:
                handles.append(kernel.timer(act, child))
        while handles and rng.random() < 0.4:
            kernel.cancel(handles[rng.randrange(len(handles))])
        if rng.random() < 0.5:
            child = next(labels, None)
            if child is not None:
                kernel.hand_off(act, child)

    for _ in range(4):
        kernel.schedule(rng.choice(_DELAYS), act, next(labels))
    for until in slices:
        kernel.run(until)
    kernel.run()
    return fired


class TestHandOffAndFixedDelayEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32),
           st.integers(min_value=20, max_value=400),
           st.lists(st.sampled_from([1e-6, 2.5e-6, 5e-6, 7.5e-6, 1e-5]),
                    max_size=3))
    def test_same_trace_processed_and_cancelled(self, seed, budget, slices):
        """Random programs of plain entries, tail hand-offs (chains
        included), fixed-delay timers armed, cancelled and firing, with
        same-instant ties and ``run(until)`` slices: the kernel fires
        what the model fires, in the same order at the same instants,
        and counts the same dispatches and cancellations."""
        slices = sorted(slices)
        model = _ModelKernel()
        expected = _random_program(model, seed, budget, slices)
        real = _RealKernel()
        fired = _random_program(real, seed, budget, slices)
        assert fired == expected
        assert real.sim.events_processed == model.processed == len(fired)
        assert real.sim.events_cancelled == model.cancelled
        assert not real.sim._heap


class TestHandOff:
    def test_runs_in_place_when_next(self):
        """Nothing else due: the hand-off runs inside the dispatch that
        made it, counted, and never enters the heap."""
        sim = Simulator()
        seen = []

        def second():
            seen.append(("second", sim.now, len(sim._heap), sim.events_processed))

        def first():
            seen.append(("first", sim.now, len(sim._heap), sim.events_processed))
            sim.hand_off(second)
            seen.append(("first returns", sim.now))

        sim.schedule(1e-6, first)
        sim.run()
        assert seen == [("first", 1e-6, 0, 1), ("second", 1e-6, 0, 2),
                        ("first returns", 1e-6)]
        assert sim.events_processed == 2 and sim.events_credited == 0

    def test_waits_behind_an_earlier_entry_of_the_same_instant(self):
        sim = Simulator()
        fired = []

        def first():
            sim.schedule(0.0, fired.append, "earlier")
            sim.hand_off(fired.append, ("handed off",))
            fired.append("first returns")

        sim.schedule(1e-6, first)
        sim.schedule(2e-6, fired.append, "later")
        sim.run()
        assert fired == ["first returns", "earlier", "handed off", "later"]
        assert sim.events_processed == 4

    def test_a_cancelled_earlier_entry_does_not_hold_it_back(self):
        sim = Simulator()
        fired = []

        def first():
            sim.cancel(sim.schedule(0.0, fired.append, "cancelled"))
            sim.hand_off(fired.append, ("handed off",))
            fired.append("first returns")

        sim.schedule(1e-6, first)
        sim.run()
        assert fired == ["handed off", "first returns"]
        assert (sim.events_processed, sim.events_cancelled) == (2, 1)

    def test_reserved_slot_precedes_later_entries(self):
        """A slot reserved before scheduling an entry for the same instant
        keeps the hand-off ahead of it (the port's next finish)."""
        sim = Simulator()
        fired = []

        def finish():
            seq = sim.reserve()
            sim.schedule(0.0, fired.append, "scheduled after the reservation")
            sim.hand_off(fired.append, ("handed off",), seq)

        sim.schedule(1e-6, finish)
        sim.run()
        assert fired == ["handed off", "scheduled after the reservation"]

    def test_a_chain_loops_instead_of_recursing(self):
        """Each link hands off the next: far more links than the
        recursion limit run, in order, one counted dispatch each."""
        sim = Simulator()
        fired = []
        links = 5000

        def link(i):
            fired.append(i)
            if i + 1 < links:
                sim.hand_off(link, (i + 1,))

        sim.schedule(1e-6, link, 0)
        sim.run()
        assert fired == list(range(links))
        assert sim.events_processed == links

    @pytest.mark.parametrize("form", ["hand_off", "schedule"])
    def test_run_until_complete_boundary(self, form):
        """A listener that hands off after the awaited process has finished
        in the same dispatch: the process's own completion entry precedes
        the hand-off, so it waits in the heap past the boundary, as a
        zero-delay entry does."""
        sim = Simulator()
        fired = []
        gate = sim.event()

        def waiter():
            yield gate

        def listener(_event):
            if form == "hand_off":
                sim.hand_off(fired.append, ("handed off",))
            else:
                sim.schedule(0.0, fired.append, "handed off")

        process = sim.spawn(waiter())
        sim.schedule(0.5e-6, gate.add_callback, listener)
        sim.schedule(1e-6, gate.succeed)
        sim.run_until_complete(process)
        assert (sim.now, sim.events_processed, fired) == (1e-6, 4, [])
        sim.run()
        assert (sim.events_processed, fired) == (6, ["handed off"])


class TestFixedDelayQueue:
    def test_keys_match_plain_schedule(self):
        """Timers and plain entries of the same delay, armed at the same
        instants, interleave by schedule order, as plain entries do."""
        def run(form):
            sim = Simulator()
            timers = sim.fixed_delay(TIMER_S)
            fired = []

            def arm(i):
                sim.schedule(TIMER_S, fired.append, ("plain", i, "before"))
                if form == "timer":
                    timers.schedule(lambda: fired.append(("timer", i, sim.now)))
                else:
                    sim.schedule(TIMER_S, lambda: fired.append(("timer", i, sim.now)))
                sim.schedule(TIMER_S, fired.append, ("plain", i, "after"))

            for i in range(6):
                sim.schedule(i * 1e-6 / 2, arm, i)
            sim.run()
            return fired, sim.events_processed

        assert run("timer") == run("plain")

    def test_one_queue_per_delay(self):
        sim = Simulator()
        assert sim.fixed_delay(TIMER_S) is sim.fixed_delay(TIMER_S)
        assert sim.fixed_delay(TIMER_S) is not sim.fixed_delay(2 * TIMER_S)
        with pytest.raises(ValueError):
            sim.fixed_delay(-1.0)

    def test_cancelled_timers_leave_no_tombstones(self):
        """The RC RTO pattern: armed, then cancelled by the ACK.  The heap
        holds one proxy for the whole queue, never a tombstone per timer;
        counts are those of plain entries."""
        sim = Simulator()
        timers = sim.fixed_delay(504e-6)
        fired = []
        keep = []

        def wire_done(i):
            entry = timers.schedule(fired.append, i)
            if i % 100:
                assert sim.cancel(entry)
            else:
                keep.append(i)
            assert len(sim._heap) <= 1  # the queue's proxy, nothing else
            if i < 5000:
                sim.schedule(0.1e-6, wire_done, i + 1)

        sim.schedule(0.0, wire_done, 0)
        sim.run()
        assert fired == keep
        assert sim.events_cancelled == 5001 - len(keep)
        assert sim.events_processed == 5001 + len(keep)
        assert not sim._heap

    def test_expiry_fires_at_its_instant(self):
        sim = Simulator()
        timers = sim.fixed_delay(504e-6)
        fired = []
        sim.schedule(3e-6, lambda: timers.schedule(lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [3e-6 + 504e-6]
        assert sim.events_processed == 2

    def test_cancelling_the_head_hands_over_to_the_next(self):
        """The proxied head is cancelled: the proxy, popped at the head's
        instant, re-proxies the next live timer, which fires on time."""
        sim = Simulator()
        timers = sim.fixed_delay(10e-6)
        fired = []
        head = timers.schedule(fired.append, "head")
        sim.schedule(1e-6, lambda: timers.schedule(lambda: fired.append(sim.now)))
        sim.schedule(2e-6, sim.cancel, head)
        sim.run(until=10e-6)
        assert fired == [] and len(sim._heap) == 1
        sim.run()
        assert fired == [1e-6 + 10e-6]
        assert (sim.events_processed, sim.events_cancelled) == (3, 1)

    def test_run_until_complete_limit(self):
        """A live timer beyond ``limit`` is pending work; a cancelled one
        is not: the same errors as for plain entries."""
        for cancel, message in ((False, "time limit"), (True, "deadlock")):
            sim = Simulator()
            timers = sim.fixed_delay(10e-6)
            entry = timers.schedule(lambda: None)
            if cancel:
                sim.cancel(entry)

            def forever():
                yield sim.event()

            with pytest.raises(SimulationError, match=message):
                sim.run_until_complete(sim.spawn(forever()), limit=5e-6)
