"""Integration: perftest workload over the direct and MigrRDMA libraries."""

import pytest

from repro import cluster
from repro.apps.contract import perftest_harness, run_contract
from repro.apps.perftest import PerftestEndpoint, connect_endpoints
from repro.beds import PerftestBed
from repro.chaos.invariants import DEFAULT_REGISTRY
from repro.chaos.plan import FaultPlan
from repro.core import MigrRdmaWorld
from repro.rnic import QPState


def build_world(num_partners=1):
    tb = cluster.build(num_partners=num_partners)
    world = MigrRdmaWorld(tb)
    return tb, world


def run_bw(tb, sender, receiver, iters, mode, limit=30.0):
    def flow():
        yield from sender.setup(qp_budget=1)
        yield from receiver.setup(qp_budget=1)
        yield from connect_endpoints(sender, receiver, qp_count=1)
        if mode == "send":
            receiver.start_as_receiver()
        sender.start_as_sender(iters=iters)
        start = tb.sim.now
        while sender.running:
            yield tb.sim.timeout(100e-6)
        return tb.sim.now - start

    return tb.run(flow(), limit=limit)


class TestDirectPerftest:
    @pytest.mark.parametrize("mode", ["write", "send", "read"])
    def test_bw_completes_cleanly(self, mode):
        tb = cluster.build()
        sender = PerftestEndpoint(tb.source, mode=mode, msg_size=8192, depth=16,
                                  verify_content=(mode == "send"))
        receiver = PerftestEndpoint(tb.partners[0], mode=mode, msg_size=8192, depth=16,
                                    verify_content=(mode == "send"))
        run_bw(tb, sender, receiver, iters=256, mode=mode)
        violations = run_contract(perftest_harness(sender, receiver, iters=256))
        assert not violations, violations

    def test_write_bw_reaches_line_rate(self):
        tb = cluster.build()
        sender = PerftestEndpoint(tb.source, mode="write", msg_size=65536, depth=32)
        receiver = PerftestEndpoint(tb.partners[0], mode="write", msg_size=65536, depth=32)
        elapsed = run_bw(tb, sender, receiver, iters=512, mode="write")
        gbps = sender.stats.bytes_completed * 8 / elapsed / 1e9
        assert gbps > 80.0  # close to the 100 Gbps line


class TestMigrRdmaPerftest:
    """The virtualization layer must be transparent to the application."""

    @pytest.mark.parametrize("mode", ["write", "send", "read", "fadd"])
    def test_bw_over_guest_lib(self, mode):
        tb, world = build_world()
        sender = PerftestEndpoint(tb.source, world=world, mode=mode,
                                  msg_size=4096, depth=8,
                                  verify_content=(mode == "send"))
        receiver = PerftestEndpoint(tb.partners[0], world=world, mode=mode,
                                    msg_size=4096, depth=8,
                                    verify_content=(mode == "send"))
        run_bw(tb, sender, receiver, iters=128, mode=mode)
        violations = run_contract(perftest_harness(sender, receiver, iters=128))
        assert not violations, violations

    def test_virtual_keys_are_dense(self):
        tb, world = build_world()
        endpoint = PerftestEndpoint(tb.source, world=world)

        def flow():
            yield from endpoint.setup()

        tb.run(flow())
        # The first MR of the process gets virtual lkey 0 (dense assignment).
        assert endpoint.mr.lkey == 0
        assert endpoint.mr.rkey == 0
        # While the physical keys on the NIC are sparse/scrambled.
        physical = endpoint.lib.state.lkey_table.lookup(0)
        assert physical != 0

    def test_virtual_qpn_equals_physical_at_creation(self):
        tb, world = build_world()
        a = PerftestEndpoint(tb.source, world=world)
        b = PerftestEndpoint(tb.partners[0], world=world)

        def flow():
            yield from a.setup()
            yield from b.setup()
            yield from connect_endpoints(a, b, qp_count=1)

        tb.run(flow())
        vqp = a.connections[0].qp
        assert vqp.qpn == vqp._phys.qpn  # identity until migration

    def test_rkey_fetch_amortized(self):
        """First one-sided WR fetches the rkey; later ones hit the cache."""
        tb, world = build_world()
        sender = PerftestEndpoint(tb.source, world=world, mode="write",
                                  msg_size=1024, depth=4)
        receiver = PerftestEndpoint(tb.partners[0], world=world, mode="write",
                                    msg_size=1024, depth=4)
        run_bw(tb, sender, receiver, iters=64, mode="write")
        assert sender.stats.clean
        cache = sender.lib.rkey_cache
        assert cache.misses >= 1
        assert cache.hits >= 62  # everything after the first lookup

    def test_hybrid_passthrough_to_non_migrrdma_peer(self):
        """§6: a MigrRDMA endpoint talking to a plain-verbs endpoint
        negotiates virtualization off for that connection."""
        tb = cluster.build()
        world = MigrRdmaWorld(tb, servers=[tb.source])  # partner has no daemon
        sender = PerftestEndpoint(tb.source, world=world, mode="write",
                                  msg_size=2048, depth=4)
        receiver = PerftestEndpoint(tb.partners[0], mode="write",
                                    msg_size=2048, depth=4)
        run_bw(tb, sender, receiver, iters=32, mode="write")
        violations = run_contract(perftest_harness(sender, receiver, iters=32))
        assert not violations, violations
        assert sender.connections[0].qp.passthrough


class TestErrorCompletions:
    def test_flushed_wrs_are_retired_and_never_refilled(self):
        """A sender QP forced to ERR mid-traffic (what the ``qp_error``
        fault does): its flushed WRs are retired with their status, the
        endpoint posts nothing more into it, and quiesce drains."""
        bed = PerftestBed(4, depth=8)
        bed.run(bed.setup())
        bed.start_traffic()
        sender = bed.sender
        victim = sender.connections[0]

        def flow():
            yield bed.sim.timeout(1e-3)
            qp = victim.qp._phys
            qp.force_error()
            bed.source.rnic._flush_sq(qp)
            yield bed.sim.timeout(1e-3)
            return (yield from bed.quiesce())

        assert bed.run(flow(), limit=10.0)
        assert [conn.outstanding for conn in sender.connections] == [0, 0, 0, 0]
        assert victim.errored and victim.qp._phys.state is QPState.ERR
        flushed = [e for e in sender.stats.status_errors if e.endswith("WR_FLUSH_ERR")]
        assert len(flushed) == len(sender.stats.status_errors) == sender.depth
        assert victim.next_seq == victim.completed + sender.depth
        assert all(conn.completed == conn.next_seq for conn in sender.connections[1:])
        assert not bed.sim.failed_processes

    def test_injected_qp_error_is_conserved(self):
        """The ``qp_error`` fault on the sender's host 1 ms into traffic, no
        migration.  The app may post into the ERR QP before it polls the
        flush; that WR completes flushed too.  Every flushed WR counts as a
        completion, so ``cqe-conservation`` holds, and ``completion-status``
        names the flushes of a run not told to expect them.  A WR that never
        completes still trips ``cqe-conservation``."""
        bed = PerftestBed(4, depth=8)
        bed.run(bed.setup())
        plan = FaultPlan(seed=1).qp_error("src", bed.sim.now + 1e-3)
        plan.install(bed)
        bed.drive(2e-3, plan=plan, migrate=False)
        assert plan.stats.qp_errors_fired == 1
        report = DEFAULT_REGISTRY.run(bed.context(plan=plan))
        assert report.ok, report.violations
        sender = bed.sender
        [victim] = [conn for conn in sender.connections if conn.errored]
        assert victim.errors == len(sender.stats.status_errors) >= sender.depth
        assert victim.next_seq == victim.completed + victim.errors
        assert victim.outstanding == 0
        # IBA order: the flush completes the WRs in the order they were posted
        error_ids = [int(message.split()[1]) for message in sender.stats.status_errors]
        assert all(older < younger for older, younger in zip(error_ids, error_ids[1:])), \
            error_ids

        unexpected = DEFAULT_REGISTRY.run(bed.context())
        assert {name for name, _ in unexpected.violations} == {"completion-status"}
        assert all(message.endswith("WR_FLUSH_ERR")
                   for _, message in unexpected.violations)

        victim.next_seq += 1  # one more WR posted, and no CQE for it
        victim.outstanding += 1
        lost = DEFAULT_REGISTRY.run(bed.context(plan=plan))
        assert {name for name, _ in lost.violations} == {"cqe-conservation"}
        assert any("neither ok nor error" in message for _, message in lost.violations)
