"""Unit tests for the measurement instruments: cycle accounting
(``repro.cluster``), throughput sampling (``repro.obs``) and blackout
breakdowns (``repro.core.orchestrator``)."""

import pytest

from repro.cluster import CpuContext
from repro.config import CpuConfig
from repro.core.orchestrator import BlackoutBreakdown, PhaseTimer
from repro.obs import ThroughputSampler
from repro.sim import Simulator


def make_cpu(noise=0.0, record=False):
    config = CpuConfig()
    config.measurement_noise_frac = noise
    return CpuContext(config, seed=1, record_samples=record)


class TestCpuContext:
    def test_charge_accumulates(self):
        cpu = make_cpu()
        cpu.charge("send", 100)
        cpu.charge("send", 50)
        assert cpu.total_cycles == 150
        assert cpu.count_by_op["send"] == 2
        assert cpu.mean_cycles("send") == 75

    def test_charge_base_uses_config(self):
        cpu = make_cpu()
        cpu.charge_base("send")
        assert cpu.total_cycles == pytest.approx(cpu.config.base_cycles["send"])

    @pytest.mark.parametrize("noise", [0.0, 0.02])
    def test_charge_base_is_charge_of_the_base_cost(self, noise):
        """charge_base carries its own copy of charge's arithmetic: same
        jitter draw, same additions, inside an operation sample too."""
        inlined, via_charge = make_cpu(noise, record=True), make_cpu(noise, record=True)
        for cpu in (inlined, via_charge):
            cpu.begin_op_sample("send")
        for op in ("send", "poll", "poll", "recv", "send"):
            inlined.charge_base(op)
            via_charge.charge(op, via_charge.config.base_cycles[op])
        for cpu in (inlined, via_charge):
            cpu.end_op_sample()
        assert vars(inlined).keys() == vars(via_charge).keys()
        for name, value in vars(inlined).items():
            if name not in ("_rng", "config"):
                assert value == getattr(via_charge, name), name
        assert inlined._rng.random() == via_charge._rng.random()

    @pytest.mark.parametrize("noise", [0.0, 0.02])
    @pytest.mark.parametrize("tick_first", [False, True])
    def test_replay_idle_polls_is_the_tick_by_tick_sequence(self, noise, tick_first):
        """n empty polls in one call == n times (charge_base, drain_seconds,
        t += max(cost, floor)), up to a tick exactly at `now` by the tie rule."""
        batched, stepped = make_cpu(noise), make_cpu(noise)
        for cpu in (batched, stepped):
            cpu.charge_base("poll")
            cpu.drain_seconds()
        floor_s, t0 = 1e-6, 5e-6
        instants = [t0]
        for _ in range(9):
            instants.append(instants[-1] + floor_s)
        now = instants[6]  # exactly on a tick
        t, ticks = t0, 0
        while t < now or (tick_first and t == now):
            stepped.charge_base("poll")
            t += max(stepped.drain_seconds(), floor_s)
            ticks += 1
        assert ticks == (7 if tick_first else 6)
        assert batched.replay_idle_polls("poll", t0, now, tick_first, floor_s) == (ticks, t)
        for name, value in vars(batched).items():
            if name not in ("_rng", "config"):
                assert value == getattr(stepped, name), name
        assert batched._rng.random() == stepped._rng.random()

    def test_a_charge_wakes_the_parked_loop_first(self):
        cpu = make_cpu()
        order = []
        cpu.idle_waiter = lambda tick_first: order.append(("wake", tick_first, cpu.total_cycles))
        cpu.charge("virt", 10)
        cpu.charge_base("poll")
        assert order == [("wake", False, 0.0), ("wake", False, 10.0)]

    def test_drain_converts_to_seconds(self):
        cpu = make_cpu()
        cpu.charge("x", cpu.config.clock_hz)  # exactly one second of cycles
        assert cpu.drain_seconds() == pytest.approx(1.0)
        assert cpu.drain_seconds() == 0.0  # reset

    def test_noise_within_bounds(self):
        cpu = make_cpu(noise=0.1)
        for _ in range(200):
            cpu.charge("op", 100)
        mean = cpu.mean_cycles("op")
        assert 90 < mean < 110

    def test_op_sampling(self):
        cpu = make_cpu(record=True)
        cpu.begin_op_sample("write")
        cpu.charge("base", 88)
        cpu.charge("virt", 7.8)
        cpu.end_op_sample()
        assert cpu.mean_sample_cycles("write") == pytest.approx(95.8)

    def test_sampling_requires_samples(self):
        cpu = make_cpu(record=True)
        with pytest.raises(ValueError):
            cpu.mean_sample_cycles("never")

    def test_mean_of_uncharged_op_rejected(self):
        cpu = make_cpu()
        with pytest.raises(ValueError):
            cpu.mean_cycles("nothing")


class TestThroughputSampler:
    def test_samples_rates(self):
        sim = Simulator()
        counters = {"tx": 0, "rx": 0}
        sampler = ThroughputSampler(sim, lambda: counters["tx"],
                                    lambda: counters["rx"], interval_s=1e-3)
        sampler.start()

        def traffic():
            for _ in range(10):
                yield sim.timeout(1e-3)
                counters["tx"] += 12_500_000  # 100 Gbps at 1ms steps

        sim.run_until_complete(sim.spawn(traffic()))
        sampler.stop()
        sim.run()
        assert len(sampler.samples) >= 9
        assert sampler.samples[3].tx_gbps == pytest.approx(100.0, rel=0.01)

    def test_blackout_interval_detection(self):
        sim = Simulator()
        counters = {"rx": 0}
        sampler = ThroughputSampler(sim, lambda: 0, lambda: counters["rx"],
                                    interval_s=1e-3)
        sampler.start()

        def traffic():
            yield sim.timeout(0.5e-3)  # offset from the sampling grid
            for step in range(30):
                if not 10 <= step < 20:
                    counters["rx"] += 12_500_000
                yield sim.timeout(1e-3)

        sim.run_until_complete(sim.spawn(traffic()))
        sampler.stop()
        sim.run()
        intervals = sampler.blackout_intervals(threshold_gbps=1.0)
        assert len(intervals) == 1
        start, end = intervals[0]
        assert end - start == pytest.approx(10e-3, abs=2.1e-3)

    def test_mean_over_window(self):
        sim = Simulator()
        counters = {"rx": 0}
        sampler = ThroughputSampler(sim, lambda: 0, lambda: counters["rx"],
                                    interval_s=1e-3)
        sampler.start()

        def traffic():
            yield sim.timeout(0.5e-3)  # offset from the sampling grid
            for _ in range(5):
                counters["rx"] += 6_250_000  # 50 Gbps
                yield sim.timeout(1e-3)

        sim.run_until_complete(sim.spawn(traffic()))
        sampler.stop()
        sim.run()
        assert sampler.mean_gbps(0, 5e-3) == pytest.approx(50.0, rel=0.01)

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            ThroughputSampler(Simulator(), lambda: 0, lambda: 0, interval_s=0)

    def test_double_start_rejected(self):
        sampler = ThroughputSampler(Simulator(), lambda: 0, lambda: 0)
        sampler.start()
        with pytest.raises(RuntimeError):
            sampler.start()


class TestBlackoutBreakdown:
    def test_phases_accumulate(self):
        breakdown = BlackoutBreakdown()
        breakdown.add("Transfer", 0.01)
        breakdown.add("Transfer", 0.02)
        assert breakdown.phases["Transfer"] == pytest.approx(0.03)

    def test_total_and_fraction(self):
        breakdown = BlackoutBreakdown()
        breakdown.add("DumpOthers", 0.06)
        breakdown.add("RestoreRDMA", 0.06)
        assert breakdown.total_s == pytest.approx(0.12)
        assert breakdown.fraction("RestoreRDMA") == pytest.approx(0.5)

    def test_canonical_ordering(self):
        breakdown = BlackoutBreakdown()
        breakdown.add("FullRestore", 1)
        breakdown.add("DumpRDMA", 1)
        breakdown.add("Transfer", 1)
        assert [p for p, _ in breakdown.ordered()] == ["DumpRDMA", "Transfer", "FullRestore"]

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            BlackoutBreakdown().add("X", -1)

    def test_fraction_of_empty_rejected(self):
        with pytest.raises(ValueError):
            BlackoutBreakdown().fraction("X")

    def test_phase_timer(self):
        sim = Simulator()
        breakdown = BlackoutBreakdown()

        def flow():
            timer = PhaseTimer(sim, breakdown, "Transfer").start()
            yield sim.timeout(0.5)
            assert timer.stop() == pytest.approx(0.5)

        sim.run_until_complete(sim.spawn(flow()))
        assert breakdown.phases["Transfer"] == pytest.approx(0.5)

    def test_phase_timer_misuse(self):
        sim = Simulator()
        breakdown = BlackoutBreakdown()
        timer = PhaseTimer(sim, breakdown, "X")
        with pytest.raises(RuntimeError):
            timer.stop()
        timer.start()
        with pytest.raises(RuntimeError):
            timer.start()
