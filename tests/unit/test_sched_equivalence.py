"""The kernel's schedule-order contract, checked against a ``sorted()`` model.

``Simulator`` must fire exactly the uncancelled entries, in
``(time, schedule order)`` order, at exactly the requested timestamps,
and count them in ``events_processed``/``events_cancelled`` — for any
interleaving of schedule/cancel/fire, including the awkward corners
(same-time bursts, zero delay, far-future entries, cancellation from
inside a running callback).  A Hypothesis driver feeds the kernel random
op sequences and compares the firing trace with the model; the units
below pin each corner individually.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator

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
