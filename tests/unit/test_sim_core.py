"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    SimulationError,
    Simulator,
)


@pytest.fixture
def sim():
    return Simulator()


class TestScheduling:
    def test_time_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_schedule_runs_callback_at_time(self, sim):
        fired = []
        sim.schedule(2.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [2.5]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_callbacks_run_in_time_order(self, sim):
        order = []
        sim.schedule(3.0, lambda: order.append("c"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_fifo_for_equal_times(self, sim):
        order = []
        for label in "abc":
            sim.schedule(1.0, lambda label=label: order.append(label))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_run_until_limit(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0

    def test_run_until_in_past_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.run(until=0.5)


class TestEvents:
    def test_succeed_delivers_value(self, sim):
        event = sim.event()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        event.succeed(42)
        sim.run()
        assert seen == [42]

    def test_double_trigger_rejected(self, sim):
        event = sim.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_fail_stores_exception(self, sim):
        event = sim.event()
        error = RuntimeError("boom")
        event.fail(error)
        sim.run()
        assert event.exception is error
        assert not event.ok

    def test_fail_requires_exception(self, sim):
        event = sim.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_value_before_trigger_raises(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            _ = event.value

    def test_callback_added_after_processing_still_runs(self, sim):
        event = sim.event()
        event.succeed("x")
        sim.run()
        assert event.processed
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        sim.run()
        assert seen == ["x"]


class TestTimeout:
    def test_timeout_advances_time(self, sim):
        def proc():
            yield sim.timeout(1.5)
            return sim.now

        process = sim.spawn(proc())
        assert sim.run_until_complete(process) == 1.5

    def test_timeout_value(self, sim):
        def proc():
            value = yield sim.timeout(1.0, value="done")
            return value

        assert sim.run_until_complete(sim.spawn(proc())) == "done"

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-0.1)


class TestProcesses:
    def test_process_return_value(self, sim):
        def proc():
            yield sim.timeout(1.0)
            return 99

        assert sim.run_until_complete(sim.spawn(proc())) == 99

    def test_process_exception_propagates(self, sim):
        def proc():
            yield sim.timeout(1.0)
            raise ValueError("bad")

        process = sim.spawn(proc())
        with pytest.raises(ValueError, match="bad"):
            sim.run_until_complete(process)

    def test_process_waits_on_event(self, sim):
        event = sim.event()

        def waiter():
            value = yield event
            return value

        def firer():
            yield sim.timeout(2.0)
            event.succeed("hello")

        process = sim.spawn(waiter())
        sim.spawn(firer())
        assert sim.run_until_complete(process) == "hello"
        assert sim.now == 2.0

    def test_process_waits_on_process(self, sim):
        def inner():
            yield sim.timeout(3.0)
            return "inner-result"

        def outer():
            result = yield sim.spawn(inner())
            return result

        assert sim.run_until_complete(sim.spawn(outer())) == "inner-result"

    def test_failed_event_raises_inside_process(self, sim):
        event = sim.event()

        def proc():
            try:
                yield event
            except RuntimeError as error:
                return f"caught {error}"

        sim.schedule(1.0, lambda: event.fail(RuntimeError("oops")))
        assert sim.run_until_complete(sim.spawn(proc())) == "caught oops"

    def test_yield_non_event_fails_process(self, sim):
        def proc():
            yield 42

        process = sim.spawn(proc())
        with pytest.raises(SimulationError):
            sim.run_until_complete(process)

    def test_non_generator_rejected(self, sim):
        with pytest.raises(TypeError):
            sim.spawn(lambda: None)

    def test_interrupt_raises_in_process(self, sim):
        def proc():
            try:
                yield sim.timeout(100.0)
            except Interrupt as interrupt:
                return ("interrupted", interrupt.cause, sim.now)

        process = sim.spawn(proc())
        sim.schedule(1.0, lambda: process.interrupt("stop now"))
        assert sim.run_until_complete(process) == ("interrupted", "stop now", 1.0)

    def test_interrupt_completed_process_is_noop(self, sim):
        def proc():
            yield sim.timeout(1.0)
            return "ok"

        process = sim.spawn(proc())
        sim.run_until_complete(process)
        process.interrupt()  # must not raise
        sim.run()
        assert process.value == "ok"

    def test_deadlock_detected(self, sim):
        event = sim.event()  # never fired

        def proc():
            yield event

        process = sim.spawn(proc())
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_until_complete(process)

    def test_cancelled_timer_beyond_limit_is_deadlock_not_time_limit(self, sim):
        event = sim.event()  # never fired

        def proc():
            yield event

        process = sim.spawn(proc())
        sim.cancel(sim.schedule(20.0, lambda: None))
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_until_complete(process, limit=10.0)

    def test_time_limit_enforced(self, sim):
        def slow():
            yield sim.timeout(1e9)

        def ticker():
            while True:
                yield sim.timeout(1e8)

        sim.spawn(ticker())
        process = sim.spawn(slow())
        with pytest.raises(SimulationError, match="time limit"):
            sim.run_until_complete(process, limit=10.0)


class TestConditions:
    def test_all_of_waits_for_all(self, sim):
        def maker(delay, value):
            yield sim.timeout(delay)
            return value

        def proc():
            results = yield sim.all_of([
                sim.spawn(maker(3.0, "a")),
                sim.spawn(maker(1.0, "b")),
            ])
            return (results, sim.now)

        results, now = sim.run_until_complete(sim.spawn(proc()))
        assert results == ["a", "b"]
        assert now == 3.0

    def test_any_of_fires_on_first(self, sim):
        slow = sim.timeout(5.0, value="slow")
        fast = sim.timeout(1.0, value="fast")

        def proc():
            event, value = yield sim.any_of([slow, fast])
            return (value, sim.now)

        assert sim.run_until_complete(sim.spawn(proc())) == ("fast", 1.0)

    def test_all_of_empty_fires_immediately(self, sim):
        def proc():
            results = yield sim.all_of([])
            return results

        assert sim.run_until_complete(sim.spawn(proc())) == []

    def test_all_of_propagates_failure(self, sim):
        event = sim.event()

        def proc():
            yield sim.all_of([event, sim.timeout(10.0)])

        sim.schedule(1.0, lambda: event.fail(RuntimeError("nope")))
        process = sim.spawn(proc())
        with pytest.raises(RuntimeError, match="nope"):
            sim.run_until_complete(process)

    def test_condition_classes_exported(self, sim):
        assert isinstance(sim.all_of([]), AllOf)
        assert isinstance(sim.any_of([sim.event()]), AnyOf)


class TestStaleWakeups:
    """An interrupted wait must not be resumed by the event it abandoned."""

    def test_stale_event_does_not_resume_later_wait(self, sim):
        e1 = sim.event()
        e2 = sim.event()
        log = []

        def proc():
            try:
                log.append(("e1", (yield e1)))
            except Interrupt as interrupt:
                log.append(("interrupted", interrupt.cause))
            log.append(("e2", (yield e2)))

        process = sim.spawn(proc())
        sim.schedule(1.0, lambda: process.interrupt("stop"))
        # e1 fires while the process is already waiting on e2: its queued
        # callback must be ignored, not mistaken for the e2 wakeup.
        sim.schedule(2.0, lambda: e1.succeed("stale"))
        sim.schedule(3.0, lambda: e2.succeed("fresh"))
        sim.run()
        assert log == [("interrupted", "stop"), ("e2", "fresh")]

    def test_interrupt_then_event_does_not_double_resume(self, sim):
        event = sim.event()
        resumes = []

        def proc():
            try:
                yield event
            except Interrupt:
                resumes.append(sim.now)

        process = sim.spawn(proc())
        sim.schedule(1.0, lambda: process.interrupt())
        sim.schedule(1.0, lambda: event.succeed())
        sim.run()
        assert resumes == [1.0]
        assert not sim.failed_processes


class TestKernelFastPaths:
    def test_events_processed_counts_heap_entries(self, sim):
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_events_processed_counts_process_steps(self, sim):
        def proc():
            yield sim.timeout(1.0)
            yield sim.timeout(1.0)

        sim.run_until_complete(sim.spawn(proc()))
        # spawn start + two timeout firings (run_until_complete returns as
        # soon as the process triggers, before its completion event pops).
        assert sim.events_processed == 3

    def test_recycled_timeouts_deliver_fresh_values(self, sim):
        seen = []

        def proc():
            for i in range(10):
                seen.append((yield sim.timeout(0.5, value=i)))

        sim.run_until_complete(sim.spawn(proc()))
        assert seen == list(range(10))
        assert sim.now == 5.0
        assert len(sim._timeout_pool) > 0  # recycling actually happened

    def test_pooled_timeout_not_recycled_under_conditions(self, sim):
        def proc():
            slow = sim.timeout(5.0, value="slow")
            fast = sim.timeout(1.0, value="fast")
            event, value = yield sim.any_of([slow, fast])
            # The fired timeout must keep its value even though the process
            # resumed through the condition, not the timeout itself.
            assert value == "fast"
            assert fast.value == "fast"
            yield slow
            assert slow.value == "slow"

        sim.run_until_complete(sim.spawn(proc()))
        assert not sim.failed_processes

    def test_already_processed_event_resumes_synchronously(self, sim):
        event = sim.event()
        event.succeed("ready")

        def proc():
            value = yield event
            return (value, sim.now)

        sim.schedule(0.0, lambda: None)
        assert sim.run_until_complete(sim.spawn(proc())) == ("ready", 0.0)
