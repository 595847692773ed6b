"""Unit tests for repro.fleet: topology routing, state store, scheduler
planning/admission/placement, fleet reporting, and the fleet-scoped
chaos faults."""

import pytest

from repro.chaos import FaultPlan
from repro.config import default_config
from repro.fabric import FatTreeTopology, Message, Network
from repro.fleet import (
    AdmissionLimits,
    Fleet,
    FleetReport,
    FleetSpec,
    MigrationJob,
    MigrationScheduler,
    MigrationOutcome,
    build_fleet,
)
from repro.fleet.state import FleetState
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def net(sim):
    network = Network(sim, default_config())
    for name in ("r0h0", "r0h1", "r1h0", "r1h1"):
        network.add_node(name)
    return network


@pytest.fixture
def topo(sim, net):
    topology = FatTreeTopology(
        sim, default_config(),
        {"rack0": ["r0h0", "r0h1"], "rack1": ["r1h0", "r1h1"]},
        oversubscription=4.0)
    topology.attach(net)
    return topology


class TestFatTreeTopology:
    def test_trunk_rate_oversubscribed(self, topo):
        # 2 hosts x 100 Gbps / 4 oversubscription = 50 Gbps per trunk.
        assert topo.uplink("rack0").rate_bps == pytest.approx(50e9)
        assert topo.downlink("rack1").rate_bps == pytest.approx(50e9)

    def test_same_rack_stays_off_the_trunk(self, sim, net, topo):
        got = []
        net.node("r0h1").register_handler("p", got.append)
        net.node("r0h0").send(Message("r0h0", "r0h1", "p", 1000))
        sim.run()
        assert len(got) == 1
        assert topo.local_messages == 1
        assert topo.cross_rack_messages == 0
        assert topo.uplink("rack0").bytes_sent == 0

    def test_cross_rack_serializes_on_both_trunks(self, sim, net, topo):
        got = []
        net.node("r1h0").register_handler("p", lambda m: got.append(sim.now))
        net.node("r0h0").send(Message("r0h0", "r1h0", "p", 12500))
        sim.run()
        assert topo.cross_rack_messages == 1
        assert topo.uplink("rack0").bytes_sent == 12500
        assert topo.downlink("rack1").bytes_sent == 12500
        # NIC serialization (1 us at 100 G) + 3 hops prop (3 us) +
        # 2 trunk serializations (2 us each at 50 G).
        assert got == [pytest.approx(8e-6)]

    def test_cross_rack_slower_than_flat(self, sim, net, topo):
        """The oversubscribed trunks must add delay vs the flat fabric."""
        flat_net = Network(Simulator(), default_config())
        flat_net.add_node("r0h0")
        flat_net.add_node("r1h0")
        flat_got = []
        flat_net.node("r1h0").register_handler(
            "p", lambda m: flat_got.append(flat_net.sim.now))
        flat_net.node("r0h0").send(Message("r0h0", "r1h0", "p", 12500))
        flat_net.sim.run()
        got = []
        net.node("r1h0").register_handler("p", lambda m: got.append(sim.now))
        net.node("r0h0").send(Message("r0h0", "r1h0", "p", 12500))
        sim.run()
        assert got[0] > flat_got[0]

    def test_link_stats_track_utilization(self, sim, net, topo):
        net.node("r1h1").register_handler("p", lambda m: None)
        net.node("r0h0").send(Message("r0h0", "r1h1", "p", 50000))
        sim.run()
        stats = topo.link_stats(now=sim.now)
        assert stats["rack0:up"]["bytes"] == 50000
        assert stats["rack0:up"]["utilization"] > 0
        assert stats["rack1:up"]["bytes"] == 0

    def test_double_attach_rejected(self, sim, net, topo):
        assert net.topology is topo
        with pytest.raises(RuntimeError):
            topo.attach(net)

    def test_duplicate_host_rejected(self, sim):
        with pytest.raises(ValueError):
            FatTreeTopology(sim, default_config(),
                            {"rack0": ["h0"], "rack1": ["h0"]})

    def test_unknown_rack_uplink_raises(self, topo):
        with pytest.raises(LookupError):
            topo.uplink("rack9")


class TestFleetState:
    @pytest.fixture
    def state(self):
        state = FleetState()
        state.add_host("r0h0", "rack0", qp_quota=2, memory_bytes=1000)
        state.add_host("r0h1", "rack0", qp_quota=2, memory_bytes=1000)
        state.add_host("r1h0", "rack1", qp_quota=2, memory_bytes=1000)
        state.add_container("ct000", "r0h0", qps=1, memory_bytes=400)
        state.add_container("ct001", "r0h1", qps=1, memory_bytes=400)
        return state

    def test_placement_lookup(self, state):
        assert state.host_of("ct000") == "r0h0"
        assert state.containers_on("r0h0") == ["ct000"]
        assert state.rack_of("r0h0") == "rack0"
        assert state.hosts_in("rack1") == ["r1h0"]

    def test_place_moves_container(self, state):
        state.place("ct000", "r1h0")
        assert state.host_of("ct000") == "r1h0"
        assert state.containers_on("r0h0") == []
        assert state.load("r1h0") == 1

    def test_fits_respects_qp_quota(self, state):
        state.add_container("ct002", "r1h0", qps=2, memory_bytes=100)
        # r1h0 now uses 2 of 2 QPs: one more QP does not fit.
        assert not state.fits("r1h0", "ct000")

    def test_fits_respects_memory(self, state):
        state.add_container("ct003", "r1h0", qps=0, memory_bytes=700)
        # 700 + 400 > 1000: ct000 does not fit.
        assert not state.fits("r1h0", "ct000")

    def test_draining_host_rejects_placements(self, state):
        assert state.fits("r1h0", "ct000")
        state.mark_draining("r1h0")
        assert not state.fits("r1h0", "ct000")
        assert "r1h0" not in state.candidates("ct000", exclude=())

    def test_candidates_respect_exclusions(self, state):
        hosts = state.candidates("ct000", exclude=("r0h1",))
        assert "r0h1" not in hosts
        assert "r1h0" in hosts

    def test_unknown_names_raise(self, state):
        with pytest.raises(LookupError):
            state.host_of("ct999")
        with pytest.raises(LookupError):
            state.add_container("ct009", "nowhere")


def tiny_fleet(**kwargs):
    defaults = dict(racks=2, hosts_per_rack=2, containers=8, seed=3)
    defaults.update(kwargs)
    return build_fleet(**defaults)


class TestFleetBuilder:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FleetSpec(racks=0)
        with pytest.raises(ValueError):
            FleetSpec(racks=1, hosts_per_rack=1)
        with pytest.raises(ValueError):
            FleetSpec(containers=1)

    def test_hosts_and_containers_registered(self):
        fleet = tiny_fleet()
        assert list(fleet.state.hosts) == ["r0h0", "r0h1", "r1h0", "r1h1"]
        assert len(fleet.state.containers) == 8
        assert [s.name for s in fleet.servers] == ["r0h0", "r0h1", "r1h0", "r1h1"]
        # Every container is a live object on its registered host.
        for name in fleet.state.containers:
            assert fleet.container(name).name == name

    def test_degenerate_two_host_fleet(self):
        """One rack, two hosts: the Testbed shape, no trunks in the path."""
        fleet = build_fleet(racks=1, hosts_per_rack=2, containers=2, seed=3)
        fleet.run(fleet.setup())
        assert fleet.topology.cross_rack_messages == 0
        sender, receiver = fleet.pairs[0]
        assert fleet.state.host_of(sender.name) != fleet.state.host_of(receiver.name)

    def test_pairs_cross_racks(self):
        fleet = tiny_fleet()
        for tx, rx in fleet.pairs:
            tx_rack = fleet.state.rack_of(fleet.state.host_of(tx.name))
            rx_rack = fleet.state.rack_of(fleet.state.host_of(rx.name))
            assert tx_rack != rx_rack


class TestAdmissionLimits:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionLimits(fleet=0)
        with pytest.raises(ValueError):
            AdmissionLimits(per_uplink=-1)

    def test_source_admission_counts(self):
        fleet = tiny_fleet()
        sched = MigrationScheduler(
            fleet, limits=AdmissionLimits(fleet=2, per_host=1, per_rack=2))
        job_a = MigrationJob(container="ct000", source="r0h0", dest="r1h0")
        job_b = MigrationJob(container="ct004", source="r0h0")
        active = {"ct000": (job_a, None)}
        # per_host=1: a second migration off r0h0 must wait.
        assert not sched._source_admissible(active, job_b)
        job_c = MigrationJob(container="ct002", source="r0h1")
        assert sched._source_admissible(active, job_c)
        # fleet=2 binds once two are active.
        job_d = MigrationJob(container="ct002", source="r0h1", dest="r1h1")
        active["ct002"] = (job_d, None)
        assert not sched._source_admissible(active, MigrationJob(
            container="ct006", source="r1h1"))

    def test_uplink_admission_counts_cross_rack_only(self):
        fleet = tiny_fleet()
        sched = MigrationScheduler(
            fleet, limits=AdmissionLimits(per_uplink=1, per_host=8, per_rack=8))
        cross = MigrationJob(container="ct000", source="r0h0", dest="r1h0")
        active = {"ct000": (cross, None)}
        # Trunk budget of rack0 is spent: another cross-rack move is barred...
        assert not sched._dest_admissible(active, "r1h1", "r0h1")
        # ...but a same-rack move never touches a trunk.
        assert sched._dest_admissible(active, "r0h0", "r0h1")


class TestSchedulerPlanning:
    def test_drain_empty_host_is_noop(self):
        fleet = tiny_fleet()
        sched = MigrationScheduler(fleet)
        for name in list(fleet.state.containers_on("r0h0")):
            fleet.state.place(name, "r0h1")
        assert sched.plan("drain", "r0h0") == []

    def test_drain_host_plans_all_residents(self):
        fleet = tiny_fleet()
        sched = MigrationScheduler(fleet)
        jobs = sched.plan("drain", "r0h0")
        assert [j.container for j in jobs] == fleet.state.containers_on("r0h0")
        assert all(j.exclude == ("r0h0",) for j in jobs)
        assert fleet.state.draining == {"r0h0"}

    def test_drain_rack_excludes_whole_rack(self):
        fleet = tiny_fleet()
        sched = MigrationScheduler(fleet)
        jobs = sched.plan("drain", "rack0")
        assert jobs, "rack0 should have residents"
        assert all(j.exclude == ("r0h0", "r0h1") for j in jobs)
        assert fleet.state.draining == {"r0h0", "r0h1"}

    def test_unknown_drain_target_raises(self):
        fleet = tiny_fleet()
        with pytest.raises(LookupError):
            MigrationScheduler(fleet).plan("drain", "rack9")

    def test_unknown_policy_raises(self):
        fleet = tiny_fleet()
        with pytest.raises(ValueError):
            MigrationScheduler(fleet).plan("defrag", "rack0")

    def test_evict_plans_named_containers(self):
        fleet = tiny_fleet()
        jobs = MigrationScheduler(fleet).plan("evict", "ct000,ct003")
        assert [(j.container, j.source) for j in jobs] == [
            ("ct000", fleet.state.host_of("ct000")),
            ("ct003", fleet.state.host_of("ct003"))]

    def test_rebalance_moves_surplus(self):
        fleet = tiny_fleet()
        for name in list(fleet.state.containers_on("r0h1")):
            fleet.state.place(name, "r0h0")
        jobs = MigrationScheduler(fleet).plan("rebalance")
        assert jobs
        assert all(j.source == "r0h0" for j in jobs)

    def test_placement_policy_ranking(self):
        fleet = tiny_fleet()
        # Make r1h0 clearly the busiest non-drained host.
        for name in list(fleet.state.containers_on("r1h1")):
            fleet.state.place(name, "r1h0")
        job = MigrationJob(container="ct000", source="r0h0",
                           exclude=("r0h0", "r0h1"))
        pack = MigrationScheduler(fleet, placement="pack")
        spread = MigrationScheduler(fleet, placement="spread")
        assert pack._pick_dest({}, job)[0] == "r1h0"
        assert spread._pick_dest({}, job)[0] == "r1h1"

    def test_invalid_placement_rejected(self):
        with pytest.raises(ValueError):
            MigrationScheduler(tiny_fleet(), placement="random")


class TestFleetReport:
    def outcome(self, name, blackout):
        return MigrationOutcome(container=name, source="a", dest="b",
                                completed=True, attempts=1,
                                blackout_s=blackout, t_admitted=0.0,
                                t_done=1.0)

    def test_blackout_summary_empty_safe(self):
        report = FleetReport(policy="drain", target="x", placement="pack")
        summary = report.blackout_summary()
        assert summary["count"] == 0
        assert summary["p99"] == 0.0

    def test_digest_depends_on_outcomes(self):
        a = FleetReport(policy="drain", target="x", placement="pack")
        b = FleetReport(policy="drain", target="x", placement="pack")
        a.add(self.outcome("ct000", 0.05))
        b.add(self.outcome("ct000", 0.05))
        assert a.digest() == b.digest()
        b.add(self.outcome("ct001", 0.06))
        assert a.digest() != b.digest()


class TestFleetFaults:
    def test_host_kill_validation(self):
        with pytest.raises(ValueError):
            FaultPlan().host_kill("r0h0", at_s=-1.0, down_s=0.1)
        with pytest.raises(ValueError):
            FaultPlan().host_kill("r0h0", at_s=0.0, down_s=0.0)

    def test_degrade_validation(self):
        with pytest.raises(ValueError):
            FaultPlan().degrade_uplink("rack0", 0.2, 0.1, factor=4.0)
        with pytest.raises(ValueError):
            FaultPlan().degrade_uplink("rack0", 0.0, 1.0, factor=1.0)

    def test_fleet_faults_not_noop(self):
        assert FaultPlan().host_kill("h", 0.0, 0.1).is_noop is False
        assert FaultPlan().degrade_uplink("r", 0.0, 1.0, 2.0).is_noop is False

    def test_degrade_requires_topology(self, sim, net):
        plan = FaultPlan().degrade_uplink("rack0", 0.0, 1.0, 4.0)
        with pytest.raises(RuntimeError):
            plan.install(net)

    def test_host_kill_marks_daemon_down_then_up(self):
        fleet = tiny_fleet()
        plan = FaultPlan().host_kill("r0h0", at_s=1e-3, down_s=2e-3)
        plan.install(fleet)
        control = fleet.world.control

        def probe():
            yield fleet.sim.timeout(1.5e-3)
            down_mid = control.daemon_down("r0h0")
            yield fleet.sim.timeout(2e-3)
            return down_mid, control.daemon_down("r0h0")

        down_mid, down_after = fleet.run(probe())
        assert down_mid is True
        assert down_after is False
        assert plan.stats.host_kills == 1

    def test_degrade_slows_trunk_inside_window(self, sim, net, topo):
        plan = FaultPlan().degrade_uplink("rack0", 0.0, 1.0, factor=4.0)
        plan.install(net)
        got = []
        net.node("r1h0").register_handler("p", lambda m: got.append(sim.now))
        net.node("r0h0").send(Message("r0h0", "r1h0", "p", 12500))
        sim.run()
        # Baseline cross-rack is 8 us (see TestFatTreeTopology); a 4x
        # slower uplink adds 3 more trunk-serialization units (2 us each).
        assert got == [pytest.approx(14e-6)]
        assert plan.stats.uplink_slowdowns >= 1
        ((start, end, factor, _tally),) = topo.uplink("rack0").stretches
        assert (start, end, factor) == (0.0, 1.0, 4.0)
