"""Unit tests for repro.chaos: FaultPlan mechanics and invariant plumbing."""

import random

import pytest

from repro.chaos import (
    DEFAULT_REGISTRY,
    FaultPlan,
    FaultRule,
    InvariantRegistry,
)
from repro.config import default_config
from repro.fabric import Message, Network
from repro.obs import MetricsRegistry
from repro.sim import Simulator


@pytest.fixture
def net():
    network = Network(Simulator(), default_config())
    network.add_node("a")
    network.add_node("b")
    return network


class TestFaultRule:
    def test_probability_validation(self):
        with pytest.raises(ValueError):
            FaultRule(drop_p=1.5)
        with pytest.raises(ValueError):
            FaultRule(dup_p=-0.1)
        with pytest.raises(ValueError):
            FaultRule(reorder_p=2.0)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            FaultRule(delay_s=-1e-6)
        with pytest.raises(ValueError):
            FaultRule(reorder_max_delay_s=-1.0)

    def test_inverted_window_rejected(self):
        with pytest.raises(ValueError):
            FaultRule(start_s=1.0, end_s=0.5)

    def test_window_scoping(self):
        rule = FaultRule(start_s=1.0, end_s=2.0, drop_p=1.0)
        msg = Message("a", "b", "rdma", 100)
        assert not rule.matches(msg, 0.5)
        assert rule.matches(msg, 1.0)  # inclusive start
        assert rule.matches(msg, 1.999)
        assert not rule.matches(msg, 2.0)  # exclusive end

    def test_protocol_prefix_match(self):
        rule = FaultRule(protocol="tcp", drop_p=1.0)
        assert rule.matches(Message("a", "b", "tcp", 10), 0.0)
        assert rule.matches(Message("a", "b", "tcp:chan7", 10), 0.0)
        assert not rule.matches(Message("a", "b", "tcpx", 10), 0.0)
        assert not rule.matches(Message("a", "b", "rdma", 10), 0.0)

    def test_link_scoping(self):
        rule = FaultRule(src="a", dst="b", drop_p=1.0)
        assert rule.matches(Message("a", "b", "rdma", 10), 0.0)
        assert not rule.matches(Message("b", "a", "rdma", 10), 0.0)


class TestFabricInjection:
    def test_unmatched_message_falls_through(self, net):
        plan = FaultPlan(seed=1).drop(1.0, protocol="tcp").install(net)
        verdict = net.fault_injector.intercept(Message("a", "b", "rdma", 10), 0.0)
        assert verdict is None  # the legacy delivery path proceeds unchanged
        assert plan.stats.total == 0

    def test_certain_drop(self, net):
        plan = FaultPlan(seed=1).drop(1.0).install(net)
        verdict = net.fault_injector.intercept(Message("a", "b", "rdma", 10), 0.0)
        assert verdict == []
        assert plan.stats.fabric_dropped == 1

    def test_certain_duplicate_yields_two_deliveries(self, net):
        plan = FaultPlan(seed=1).duplicate(1.0).install(net)
        verdict = net.fault_injector.intercept(Message("a", "b", "rdma", 10), 0.0)
        assert len(verdict) == 2
        assert verdict[0] == 0.0  # the original copy is undelayed
        assert plan.stats.fabric_duplicated == 1

    def test_fixed_delay(self, net):
        plan = FaultPlan(seed=1).delay(5e-6).install(net)
        verdict = net.fault_injector.intercept(Message("a", "b", "rdma", 10), 0.0)
        assert verdict == [5e-6]
        assert plan.stats.fabric_delayed == 1

    def test_rules_compose(self, net):
        FaultPlan(seed=1).delay(1e-6).delay(2e-6).install(net)
        verdict = net.fault_injector.intercept(Message("a", "b", "rdma", 10), 0.0)
        assert verdict == [pytest.approx(3e-6)]

    def test_drop_counted_end_to_end(self, net):
        FaultPlan(seed=2).drop(1.0).install(net)
        received = []
        net.node("b").register_handler("p", received.append)
        net.node("a").send(Message("a", "b", "p", 100))
        net.sim.run()
        assert received == []
        assert net.messages_dropped == 1


class TestFaultPlanLifecycle:
    def test_noop_plan_draws_no_randomness(self, net):
        plan = FaultPlan(seed=42)
        assert plan.is_noop
        before = plan.rng.getstate()
        plan.install(net)
        net.node("b").register_handler("p", lambda m: None)
        for _ in range(10):
            net.node("a").send(Message("a", "b", "p", 100))
        net.sim.run()
        assert plan.rng.getstate() == before
        assert plan.stats.total == 0

    def test_global_rng_untouched(self, net):
        state = random.getstate()
        FaultPlan(seed=3).drop(0.5).install(net)
        net.node("b").register_handler("p", lambda m: None)
        for _ in range(20):
            net.node("a").send(Message("a", "b", "p", 100))
        net.sim.run()
        assert random.getstate() == state

    def test_double_install_rejected(self, net):
        plan = FaultPlan(seed=1).install(net)
        with pytest.raises(RuntimeError):
            plan.install(net)

    def test_second_injector_rejected(self, net):
        FaultPlan(seed=1).install(net)
        with pytest.raises(RuntimeError):
            FaultPlan(seed=2).install(net)

    def test_uninstall_is_idempotent_and_identity_checked(self, net):
        # A plan stays installed for its network's life (every scenario
        # builds a fresh bed); a refused second plan must leave the first
        # plan's injector in place.
        first = FaultPlan(seed=1).install(net)
        assert first.testbed is net
        assert net.fault_injector.plan is first
        with pytest.raises(RuntimeError):
            FaultPlan(seed=2).install(net)
        assert net.fault_injector.plan is first

    def test_abort_at_unknown_boundary_rejected(self):
        with pytest.raises(ValueError, match="unknown phase boundary"):
            FaultPlan().abort_at("never-a-phase")

    def test_abort_at_known_boundaries(self):
        from repro.core.orchestrator import PHASE_BOUNDARIES

        for boundary in PHASE_BOUNDARIES:
            assert FaultPlan().abort_at(boundary).abort_boundary == boundary


class TestInvariantRegistry:
    def test_duplicate_name_rejected(self):
        registry = InvariantRegistry()

        @registry.register("x")
        def first(ctx):
            return ()

        with pytest.raises(ValueError):
            @registry.register("x")
            def second(ctx):
                return ()

    def test_crashed_checker_is_a_violation(self):
        registry = InvariantRegistry()

        @registry.register("boom")
        def boom(ctx):
            raise RuntimeError("kaboom")

        report = registry.run(ctx=_FakeContext())
        assert not report.ok
        assert report.violations[0][0] == "boom"
        assert "kaboom" in report.violations[0][1]

    def test_default_registry_names(self):
        names = DEFAULT_REGISTRY.names()
        assert "cqe-conservation" in names
        assert "wbs-drained" in names
        assert "blackout-accounting" in names


class _FakeContext:
    """Minimal stand-in: custom registries only see what checkers touch."""


class TestMetricsScrape:
    def test_scrape_chaos_exports_counters(self, net):
        plan = FaultPlan(seed=1).drop(1.0).install(net)
        net.node("a").send(Message("a", "b", "p", 100))
        net.sim.run()
        registry = MetricsRegistry()
        registry.scrape_chaos(plan)
        snap = registry.snapshot()
        assert snap["chaos.fabric_dropped"] == 1
        assert snap["chaos.rules"] == 1
        assert snap["chaos.boundaries_seen"] == 0


class TestPartition:
    def test_partition_severs_both_directions(self, net):
        from repro.chaos import Partition

        partition = Partition("a", "b", start_s=0.0, end_s=1.0)
        assert partition.severs("a", "b", 0.5)
        assert partition.severs("b", "a", 0.5)
        assert not partition.severs("a", "b", 1.5)
        assert not partition.severs("a", "c", 0.5)

    def test_partition_drops_counted_separately_from_rules(self, net):
        plan = FaultPlan(seed=1).partition("a", "b", 0.0, 1.0).install(net)
        got = []
        net.node("b").register_handler("p", got.append)
        net.node("a").send(Message("a", "b", "p", 100))
        net.node("b").send(Message("b", "a", "p", 100))
        net.sim.run()
        assert got == []
        assert plan.stats.partition_dropped == 2
        assert plan.stats.fabric_dropped == 0
        assert net.messages_dropped == 2

    def test_partition_heals_at_window_end(self, net):
        plan = FaultPlan(seed=1).partition("a", "b", 0.0, 1e-3).install(net)
        got = []
        net.node("b").register_handler("p", got.append)

        def flow():
            net.node("a").send(Message("a", "b", "p", 100))
            yield net.sim.timeout(2e-3)  # partition heals
            net.node("a").send(Message("a", "b", "p", 100))
            yield net.sim.timeout(1e-3)

        net.sim.spawn(flow())
        net.sim.run()
        assert len(got) == 1
        assert plan.stats.partition_dropped == 1

    def test_partition_consumes_no_rng(self, net):
        plan = FaultPlan(seed=1).partition("a", "b", 0.0, 1.0)
        plan.drop(0.5)  # a probabilistic rule that WOULD draw if consulted
        plan.install(net)
        state = plan.rng.getstate()
        net.node("a").send(Message("a", "b", "p", 100))
        net.sim.run()
        # The sever fires before any rule: dropped with zero draws.
        assert plan.rng.getstate() == state
        assert plan.stats.partition_dropped == 1

    def test_invalid_partition_rejected(self):
        from repro.chaos import Partition

        with pytest.raises(ValueError):
            Partition("a", "a", 0.0, 1.0)
        with pytest.raises(ValueError):
            Partition("a", "b", 1.0, 0.5)


class TestSchedulerCrash:
    def test_fires_once_at_its_time(self):
        plan = FaultPlan(seed=1).scheduler_crash(5e-3, down_s=10e-3)
        assert plan.scheduler_crash_due(4e-3) is None
        crash = plan.scheduler_crash_due(5e-3)
        assert crash is not None
        assert crash.down_s == pytest.approx(10e-3)
        assert plan.scheduler_crash_due(6e-3) is None  # fired exactly once
        assert plan.stats.scheduler_crashes == 1

    def test_noop_plan_has_no_crashes(self):
        assert FaultPlan(seed=1).is_noop
        assert not FaultPlan(seed=1).scheduler_crash(1.0).is_noop
        assert not FaultPlan(seed=1).partition("a", "b", 0.0, 1.0).is_noop


class TestWbsBugDetectability:
    def test_dropped_wbs_drain_is_caught(self, monkeypatch):
        """Acceptance gate: silently discarding the CQEs that wait-before-
        stop drains into fake CQs must trip at least one checker."""
        import repro.core.wbs as wbs
        from repro.chaos.torture import TortureCase, run_case

        monkeypatch.setattr(wbs, "CHAOS_DROP_DRAINED_CQES", True)
        case = TortureCase(
            seed=0, index=0, scenario="perftest",
            workload={"qps": 1, "msg_size": 65536, "depth": 4, "mode": "write",
                      "migrate": "sender", "presetup": True},
            faults=[], trigger_s=1e-3)
        outcome = run_case(case)
        assert not outcome.report.ok, "injected WBS bug went undetected"
        tripped = {name for name, _ in outcome.report.violations}
        assert tripped & {"cqe-conservation", "wbs-drained"}, tripped
