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
        port.stretch(0.0, 1.0, 1.25)
        done_at = []
        port.transmit_cb(12500, lambda: done_at.append(sim.now))
        sim.run()
        assert done_at == [pytest.approx(1.25e-6)]

    @pytest.mark.parametrize("case", ["inside", "at_end", "after"])
    def test_rnic_write_egress_stretch(self, case):
        """A WRITE whose serialization begins inside a firmware-command
        window takes ``(1 + control_contention_tx_frac)`` x its wire time;
        one that begins exactly at the window's end, or after it, takes 1x.
        The instants are pinned exactly: the stretch is decided once, when
        the port admits the request."""
        from repro.config import default_config
        from repro.rnic.nic import RDMA_PROTOCOL
        from tests.helpers import build_pair

        config = default_config()
        rnic = config.rnic
        fetch_s = rnic.doorbell_s + rnic.per_wqe_processing_s
        # The command starts with the post; "at_end" makes it end exactly
        # where the engine hands the WQE to the port.
        rnic.create_cq_s = fetch_s if case == "at_end" else 40e-6
        tb, a, b = build_pair(config=config)
        nic = a.server.rnic
        network = tb.network
        raw = network.transmit_raw
        wire_done = []

        def spy(src, dst, size_bytes, protocol, payload):
            if src == a.server.name and protocol == RDMA_PROTOCOL:
                wire_done.append((tb.sim.now, size_bytes))
            raw(src, dst, size_bytes, protocol, payload)

        network.transmit_raw = spy
        starts = []

        def flow():
            yield tb.sim.timeout(1e-3)  # setup's firmware commands are over
            assert not nic.control_busy
            tb.sim.spawn(nic.create_cq(8))  # one firmware command, from now
            busy_until = tb.sim.now + rnic.create_cq_s
            if case == "after":
                yield tb.sim.timeout(50e-6)
                assert not nic.control_busy
            starts.append((tb.sim.now, busy_until))
            a.lib.post_send(a.qp, SendWR(
                wr_id=1, opcode=Opcode.RDMA_WRITE,
                sges=[make_sge(a.mr, 0, 16384)],
                remote_addr=b.mr.addr, rkey=b.mr.rkey))
            yield tb.sim.timeout(1e-3)

        tb.run(flow())
        (posted_at, busy_until), = starts
        serialize_at = posted_at + fetch_s
        (done_at, size), = wire_done
        wire_s = size * 8.0 / a.server.node.port.rate_bps
        if case == "inside":
            assert serialize_at < busy_until
            assert done_at == serialize_at + wire_s * (1.0 + rnic.control_contention_tx_frac)
        elif case == "at_end":
            assert serialize_at == busy_until
            assert done_at == serialize_at + wire_s
        else:
            assert serialize_at > busy_until
            assert done_at == serialize_at + wire_s

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
