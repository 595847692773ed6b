"""Unit tests for wait-before-stop termination conditions (§3.4)."""

import pytest

from repro import cluster
from repro.core import MigrRdmaWorld
from repro.rnic import AccessFlags, Opcode, QPType, RecvWR, SendWR
from repro.verbs.api import make_sge


@pytest.fixture
def pair():
    tb = cluster.build()
    world = MigrRdmaWorld(tb)
    ct_a = tb.source.create_container("a")
    proc_a = ct_a.add_process("a")
    lib_a = world.make_lib(proc_a, ct_a)
    ct_b = tb.partners[0].create_container("b")
    proc_b = ct_b.add_process("b")
    lib_b = world.make_lib(proc_b, ct_b)
    h = {}

    def setup():
        for tag, lib, proc, server in (("a", lib_a, proc_a, tb.source),
                                       ("b", lib_b, proc_b, tb.partners[0])):
            pd = yield from lib.alloc_pd()
            cq = yield from lib.create_cq(256)
            vma = proc.space.mmap(65536, tag="data")
            mr = yield from lib.reg_mr(pd, vma.start, 65536, AccessFlags.all_remote())
            qp = yield from lib.create_qp(pd, QPType.RC, cq, cq, 64, 64)
            h[tag] = dict(pd=pd, cq=cq, mr=mr, qp=qp)
        yield from lib_a.connect(h["a"]["qp"], tb.partners[0].name, h["b"]["qp"].qpn)
        yield from lib_b.connect(h["b"]["qp"], tb.source.name, h["a"]["qp"].qpn)

    tb.run(setup())
    return tb, world, lib_a, lib_b, proc_a, proc_b, h


class TestSendSideDrain:
    def test_wbs_waits_for_inflight_sends(self, pair):
        tb, world, lib_a, lib_b, proc_a, proc_b, h = pair
        # Receiver preposts; sender posts a window of SENDs, then suspends.
        for i in range(16):
            lib_b.post_recv(h["b"]["qp"], RecvWR(
                wr_id=i, sges=[make_sge(h["b"]["mr"], i * 4096, 4096)]))
        for i in range(16):
            lib_a.post_send(h["a"]["qp"], SendWR(
                wr_id=i, opcode=Opcode.SEND, sges=[make_sge(h["a"]["mr"], 0, 4096)]))
        layer = world.layer(tb.source.name)
        lib_a.wbs.reset()
        layer.raise_suspension(proc_a.pid)
        tb.sim.run(until=tb.sim.now + 50e-3)
        assert lib_a.wbs.complete
        assert h["a"]["qp"]._phys.send_inflight == 0
        # All completions were stashed into the fake CQ for the app.
        assert len(h["a"]["qp"].send_vcq.fake) == 16


class TestRecvSideCondition:
    def test_wbs_on_receiver_waits_for_peer_n_sent(self, pair):
        """§3.4: no inflight RECVs iff peer's n_sent == local n_recv."""
        tb, world, lib_a, lib_b, proc_a, proc_b, h = pair
        for i in range(8):
            lib_b.post_recv(h["b"]["qp"], RecvWR(
                wr_id=i, sges=[make_sge(h["b"]["mr"], i * 4096, 4096)]))
        # The sender posts 4 SENDs, then both sides suspend; the receiver's
        # WBS must wait until it has *received* all 4 (n_recv == n_sent).
        for i in range(4):
            lib_a.post_send(h["a"]["qp"], SendWR(
                wr_id=i, opcode=Opcode.SEND, sges=[make_sge(h["a"]["mr"], 0, 4096)]))
        src_layer = world.layer(tb.source.name)
        dst_layer = world.layer(tb.partners[0].name)
        lib_a.wbs.reset()
        lib_b.wbs.reset()
        src_layer.raise_suspension(proc_a.pid)
        dst_layer.raise_suspension(proc_b.pid)
        tb.sim.run(until=tb.sim.now + 50e-3)
        assert lib_a.wbs.complete and lib_b.wbs.complete
        assert h["b"]["qp"]._phys.n_recv_completed == 4
        assert lib_b.state.expected_n_sent[h["b"]["qp"].qpn] == 4
        # Four RECVs matched; four remain for replay.
        assert len(h["b"]["qp"].posted_recvs) == 4

    def test_unmatched_recvs_kept_for_replay(self, pair):
        tb, world, lib_a, lib_b, proc_a, proc_b, h = pair
        for i in range(8):
            lib_b.post_recv(h["b"]["qp"], RecvWR(
                wr_id=i, sges=[make_sge(h["b"]["mr"], i * 4096, 4096)]))
        dst_layer = world.layer(tb.partners[0].name)
        lib_b.wbs.reset()
        dst_layer.raise_suspension(proc_b.pid)
        tb.sim.run(until=tb.sim.now + 10e-3)
        # Nothing was ever sent: WBS finishes immediately, all 8 replayable.
        assert lib_b.wbs.complete
        assert len(h["b"]["qp"].posted_recvs) == 8


class TestCqEventCondition:
    def test_unacked_event_blocks_wbs(self, pair):
        tb, world, lib_a, lib_b, proc_a, proc_b, h = pair
        layer = world.layer(tb.source.name)
        lib_a.unfinished_cq_events = 1  # a delivered, unhandled event
        lib_a.wbs.reset()
        layer.raise_suspension(proc_a.pid)
        tb.sim.run(until=tb.sim.now + 5e-3)
        assert not lib_a.wbs.complete
        lib_a.unfinished_cq_events = 0
        lib_a.state.suspend_signal.fire(set())  # re-evaluate
        tb.sim.run(until=tb.sim.now + 5e-3)
        assert lib_a.wbs.complete


class TestPortContention:
    def test_contention_factor_stretches_serialization(self):
        from repro.fabric import Port
        from repro.sim import Simulator

        sim = Simulator()
        port = Port(sim, rate_bps=100e9)
        port.contention_factor = lambda: 1.25
        done_at = []
        port.transmit_cb(12500, lambda: done_at.append(sim.now))
        sim.run()
        assert done_at == [pytest.approx(1.25e-6)]

    def test_nic_reports_busy_during_control_commands(self):
        from tests.helpers import build_pair

        tb, a, b = build_pair(qp_count=0)
        nic = a.server.rnic
        assert not nic.control_busy

        def flow():
            spawn = tb.sim.spawn(a.lib.create_qp(
                a.pd, QPType.RC, a.cq, a.cq, 8, 8))
            yield tb.sim.timeout(10e-6)  # mid-command
            busy_mid = nic.control_busy
            yield spawn
            yield tb.sim.timeout(1e-3)
            return busy_mid, nic.control_busy

        busy_mid, busy_after = tb.run(flow())
        assert busy_mid is True
        assert busy_after is False
