"""Unit tests for the sim synchronisation primitive (Broadcast)."""

import pytest

from repro.sim import Broadcast, SimulationError, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestBroadcast:
    def test_fire_wakes_all_waiters(self, sim):
        signal = Broadcast(sim)
        woken = []

        def waiter(label):
            value = yield signal.wait()
            woken.append((label, value, sim.now))

        sim.spawn(waiter("a"))
        sim.spawn(waiter("b"))
        sim.schedule(2.0, lambda: signal.fire("go"))
        sim.run()
        assert sorted(woken) == [("a", "go", 2.0), ("b", "go", 2.0)]

    def test_sticky_fires_immediately_after(self, sim):
        signal = Broadcast(sim, sticky=True)
        signal.fire("already")

        def late_waiter():
            value = yield signal.wait()
            return value

        assert sim.run_until_complete(sim.spawn(late_waiter())) == "already"

    def test_non_sticky_waiter_misses_past_fire(self, sim):
        signal = Broadcast(sim)
        signal.fire("gone")

        def waiter():
            yield signal.wait()

        process = sim.spawn(waiter())
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_until_complete(process)

    def test_reset_clears_sticky(self, sim):
        signal = Broadcast(sim, sticky=True)
        signal.fire()
        assert signal.fired
        signal.reset()
        assert not signal.fired
