"""Unit tests for RNIC control path: QP state machine, SRQ, memory windows,
on-chip memory, completion channels, resource limits."""

import pytest

from repro.config import default_config
from repro.rnic import (
    AccessFlags,
    CQError,
    Opcode,
    QPState,
    QPStateError,
    QPType,
    RecvWR,
    ResourceError,
    SendWR,
    WCStatus,
)
from repro.mem import AddressSpace
from repro.rnic.errors import AccessError
from repro.rnic.mr import MR, PD, KeyAllocator, MemoryWindow
from repro.verbs.api import make_sge

from tests.helpers import build_pair, create_connected_qps, make_endpoint, poll_until, setup_endpoint


class TestQPStateMachine:
    def test_connection_takes_milliseconds(self):
        """The premise of pre-setup: connection setup is slow (§2.2)."""
        tb, a, b = build_pair(qp_count=0)

        def driver():
            start = tb.sim.now
            yield from create_connected_qps(tb, a, b, count=1)
            return tb.sim.now - start

        elapsed = tb.run(driver())
        assert elapsed > 1e-3  # more than a millisecond for one QP pair

    def test_illegal_transition_rejected(self):
        tb, a, _ = build_pair(qp_count=0)

        def driver():
            qp = yield from a.lib.create_qp(a.pd, QPType.RC, a.cq, a.cq, 16, 16)
            yield from a.lib.modify_qp_to_rts(qp)  # RESET -> RTS is illegal

        with pytest.raises(QPStateError):
            tb.run(driver())

    def test_rtr_requires_remote(self):
        tb, a, _ = build_pair(qp_count=0)

        def driver():
            qp = yield from a.lib.create_qp(a.pd, QPType.RC, a.cq, a.cq, 16, 16)
            yield from a.lib.modify_qp_to_init(qp)
            yield from a.lib.modify_qp_to_rtr(qp)  # missing remote

        with pytest.raises(QPStateError):
            tb.run(driver())

    def test_destroy_qp_removes_engine(self):
        tb, a, b = build_pair()
        qp = a.qp

        def driver():
            yield from a.lib.destroy_qp(qp)

        tb.run(driver())
        assert qp.destroyed
        assert qp.qpn not in a.server.rnic.qps
        with pytest.raises(QPStateError):
            a.lib.post_send(qp, SendWR(wr_id=1, opcode=Opcode.SEND, sges=[]))

    def test_qp_limit_enforced(self):
        config = default_config()
        config.rnic.max_qps = 2
        tb, a, b = build_pair(config=config, qp_count=1)

        def driver():
            # One QP pair exists; bob's NIC already has 1; alice's has 1.
            yield from a.lib.create_qp(a.pd, QPType.RC, a.cq, a.cq, 16, 16)
            yield from a.lib.create_qp(a.pd, QPType.RC, a.cq, a.cq, 16, 16)

        with pytest.raises(ResourceError):
            tb.run(driver())

    def test_qpns_are_24_bit_and_unique(self):
        tb, a, _ = build_pair(qp_count=0)

        def driver():
            qps = []
            for _ in range(32):
                qps.append((yield from a.lib.create_qp(a.pd, QPType.RC, a.cq, a.cq, 4, 4)))
            return qps

        qps = tb.run(driver())
        qpns = [qp.qpn for qp in qps]
        assert len(set(qpns)) == 32
        assert all(0 < qpn < (1 << 24) for qpn in qpns)


class TestMemoryRegions:
    def test_reg_mr_requires_mapped_memory(self):
        tb, a, _ = build_pair(qp_count=0)

        def driver():
            yield from a.lib.reg_mr(a.pd, 0xDEAD0000, 4096, AccessFlags.all_remote())

        with pytest.raises(Exception):
            tb.run(driver())

    def test_keys_are_sparse_and_unique(self):
        allocator = KeyAllocator()
        keys = [allocator.allocate() for _ in range(1000)]
        assert len(set(keys)) == 1000
        # Sparse: consecutive allocations are not consecutive integers.
        deltas = [abs(b - a) for a, b in zip(keys, keys[1:])]
        assert min(deltas) > 1

    def test_dereg_invalidates(self):
        tb, a, b = build_pair()

        def driver():
            yield from a.lib.dereg_mr(a.mr)

        tb.run(driver())
        assert a.mr.invalidated
        assert a.mr.lkey not in a.server.rnic.mrs_by_lkey

    def test_remote_access_after_dereg_naks(self):
        tb, a, b = build_pair()
        rkey = b.mr.rkey
        addr = b.mr.addr

        def driver():
            yield from b.lib.dereg_mr(b.mr)
            a.lib.post_send(a.qp, SendWR(
                wr_id=1, opcode=Opcode.RDMA_WRITE, sges=[make_sge(a.mr, 0, 8)],
                remote_addr=addr, rkey=rkey))
            return (yield from poll_until(tb, a.lib, a.cq, 1))

        wcs = tb.run(driver())
        assert wcs[0].status is WCStatus.REM_ACCESS_ERR


class TestAccessCheckMessages:
    """The per-WR checks run on precomputed int bits; what they reject, and
    the text they reject it with, is the contract."""

    ADDR, LENGTH = 0x10000, 8192

    def _mr(self, access):
        space = AddressSpace("t")
        space.mmap(self.LENGTH, addr=self.ADDR)
        return MR(PD("nic"), space, self.ADDR, self.LENGTH, access, lkey=0x100, rkey=0x200)

    def test_end_is_fixed_at_registration(self):
        mr = self._mr(AccessFlags.all_remote())
        assert mr.end == self.ADDR + self.LENGTH
        assert mr.covers(self.ADDR, self.LENGTH) and not mr.covers(self.ADDR, self.LENGTH + 1)

    def test_in_range_permitted_accesses_pass(self):
        mr = self._mr(AccessFlags.all_remote())
        mr.check_local(self.ADDR, self.LENGTH, write=True)
        for op in ("read", "write", "atomic"):
            mr.check_remote(self.ADDR + 8, 8, op)
        self._mr(AccessFlags.NONE).check_local(self.ADDR, 8, write=False)

    def test_invalidated(self):
        mr = self._mr(AccessFlags.all_remote())
        mr.invalidated = True
        with pytest.raises(AccessError, match="^access through a deregistered MR$"):
            mr.check_local(self.ADDR, 8, write=False)
        with pytest.raises(AccessError, match="^remote access through a deregistered MR$"):
            mr.check_remote(self.ADDR, 8, "read")

    @pytest.mark.parametrize("addr, length", [
        (0x10000 - 1, 8), (0x10000 + 8192 - 7, 8), (0x10000, 8193)])
    def test_out_of_range(self, addr, length):
        mr = self._mr(AccessFlags.all_remote())
        span = (f"[{addr:#x}, {addr + length:#x}) outside MR "
                f"[{self.ADDR:#x}, {self.ADDR + self.LENGTH:#x})")
        with pytest.raises(AccessError) as local:
            mr.check_local(addr, length, write=False)
        assert str(local.value) == f"local access {span}"
        with pytest.raises(AccessError) as remote:
            mr.check_remote(addr, length, "write")
        assert str(remote.value) == f"remote access {span}"

    def test_missing_permission(self):
        mr = self._mr(AccessFlags.REMOTE_READ)
        with pytest.raises(AccessError) as local:
            mr.check_local(self.ADDR, 8, write=True)
        assert str(local.value) == "local write without LOCAL_WRITE permission"
        mr.check_remote(self.ADDR, 8, "read")
        for op, flag in (("write", AccessFlags.REMOTE_WRITE),
                         ("atomic", AccessFlags.REMOTE_ATOMIC)):
            with pytest.raises(AccessError) as remote:
                mr.check_remote(self.ADDR, 8, op)
            assert str(remote.value) == f"remote {op} without {flag} permission"
        with pytest.raises(KeyError):
            mr.check_remote(self.ADDR, 8, "scribble")

    def test_memory_window(self):
        mr = self._mr(AccessFlags.all_remote())
        window = MemoryWindow(mr.pd, handle=1)
        with pytest.raises(AccessError, match="^access through an unbound memory window$"):
            window.check_remote(self.ADDR, 8, "read")
        window.bind(mr, self.ADDR + 4096, 1024, AccessFlags.REMOTE_WRITE, rkey=0x300)
        window.check_remote(self.ADDR + 4096, 1024, "write")
        with pytest.raises(AccessError, match="^remote access outside the memory window$"):
            window.check_remote(self.ADDR + 4096, 1025, "write")
        with pytest.raises(AccessError) as denied:
            window.check_remote(self.ADDR + 4096, 8, "read")
        assert str(denied.value) == (
            f"remote read without {AccessFlags.REMOTE_READ} window permission")
        window.invalidated = True
        with pytest.raises(AccessError, match="^access through an unbound memory window$"):
            window.check_remote(self.ADDR + 4096, 8, "write")


class TestMemoryWindows:
    def _bind(self, tb, a, b, window_offset=0, window_len=1024,
              access=None):
        if access is None:
            access = AccessFlags.REMOTE_WRITE | AccessFlags.REMOTE_READ

        def driver():
            mw = yield from b.lib.alloc_mw(b.pd)
            b.lib.post_send(b.qp, SendWR(
                wr_id=100, opcode=Opcode.BIND_MW, bind_mw=mw, bind_mr=b.mr,
                remote_addr=b.mr.addr + window_offset,
                sges=[make_sge(b.mr, window_offset, window_len)],
                bind_access=access))
            yield from poll_until(tb, b.lib, b.cq, 1)
            return mw

        return tb.run(driver())

    def test_bind_and_write_through_window(self):
        tb, a, b = build_pair()
        mw = self._bind(tb, a, b)
        assert mw.rkey is not None
        assert mw.rkey != b.mr.rkey

        def driver():
            a.process.space.write(a.buf_addr, b"via window")
            a.lib.post_send(a.qp, SendWR(
                wr_id=1, opcode=Opcode.RDMA_WRITE, sges=[make_sge(a.mr, 0, 10)],
                remote_addr=mw.addr, rkey=mw.rkey))
            return (yield from poll_until(tb, a.lib, a.cq, 1))

        wcs = tb.run(driver())
        assert wcs[0].status is WCStatus.SUCCESS
        assert b.process.space.read(b.buf_addr, 10) == b"via window"

    def test_window_narrower_than_mr(self):
        tb, a, b = build_pair()
        mw = self._bind(tb, a, b, window_offset=0, window_len=128)

        def driver():
            a.lib.post_send(a.qp, SendWR(
                wr_id=1, opcode=Opcode.RDMA_WRITE, sges=[make_sge(a.mr, 0, 64)],
                remote_addr=mw.addr + 100, rkey=mw.rkey))  # crosses window end
            return (yield from poll_until(tb, a.lib, a.cq, 1))

        wcs = tb.run(driver())
        assert wcs[0].status is WCStatus.REM_ACCESS_ERR

    def test_bind_requires_mw_bind_permission(self):
        tb, a, b = build_pair()

        def setup():
            yield from b.lib.dereg_mr(b.mr)
            b.mr = yield from b.lib.reg_mr(
                b.pd, b.buf_addr, 4096,
                AccessFlags.LOCAL_WRITE | AccessFlags.REMOTE_WRITE)
            mw = yield from b.lib.alloc_mw(b.pd)
            b.lib.post_send(b.qp, SendWR(
                wr_id=100, opcode=Opcode.BIND_MW, bind_mw=mw, bind_mr=b.mr,
                remote_addr=b.mr.addr, sges=[make_sge(b.mr, 0, 128)],
                bind_access=AccessFlags.REMOTE_WRITE))
            return (yield from poll_until(tb, b.lib, b.cq, 1))

        wcs = tb.run(setup())
        assert wcs[0].status is WCStatus.LOC_PROT_ERR


class TestDeviceMemory:
    def test_alloc_dm_maps_into_process(self):
        tb, a, _ = build_pair(qp_count=0)

        def driver():
            dm = yield from a.lib.alloc_dm(8192)
            return dm

        dm = tb.run(driver())
        assert dm.mapped_addr is not None
        vma = a.process.space.find(dm.mapped_addr)
        assert vma is not None and vma.tag == "on-chip"

    def test_dm_budget_enforced(self):
        tb, a, _ = build_pair(qp_count=0)
        budget = tb.config.rnic.device_memory_bytes

        def driver():
            yield from a.lib.alloc_dm(budget)
            yield from a.lib.alloc_dm(4096)

        with pytest.raises(ResourceError):
            tb.run(driver())

    def test_dm_mr_usable_for_rdma(self):
        tb, a, b = build_pair()

        def driver():
            dm = yield from b.lib.alloc_dm(4096)
            dm_mr = yield from b.lib.reg_dm_mr(b.pd, dm, AccessFlags.all_remote())
            a.process.space.write(a.buf_addr, b"to the chip")
            a.lib.post_send(a.qp, SendWR(
                wr_id=1, opcode=Opcode.RDMA_WRITE, sges=[make_sge(a.mr, 0, 11)],
                remote_addr=dm_mr.addr, rkey=dm_mr.rkey))
            yield from poll_until(tb, a.lib, a.cq, 1)
            return b.process.space.read(dm.mapped_addr, 11)

        assert tb.run(driver()) == b"to the chip"

    def test_free_dm_returns_budget(self):
        tb, a, _ = build_pair(qp_count=0)

        def driver():
            dm = yield from a.lib.alloc_dm(8192)
            yield from a.server.rnic.free_dm(dm)
            return a.server.rnic.dm_allocated

        assert tb.run(driver()) == 0


class TestSRQ:
    def test_srq_shared_by_two_qps(self):
        tb = __import__("repro.cluster", fromlist=["build"]).build()
        a = make_endpoint(tb, tb.source, "alice")
        b = make_endpoint(tb, tb.partners[0], "bob")

        def setup():
            yield from setup_endpoint(a)
            yield from setup_endpoint(b)
            srq = yield from b.lib.create_srq(b.pd, 128)
            qa1 = yield from a.lib.create_qp(a.pd, QPType.RC, a.cq, a.cq, 16, 16)
            qa2 = yield from a.lib.create_qp(a.pd, QPType.RC, a.cq, a.cq, 16, 16)
            qb1 = yield from b.lib.create_qp(b.pd, QPType.RC, b.cq, b.cq, 16, 1, srq=srq)
            qb2 = yield from b.lib.create_qp(b.pd, QPType.RC, b.cq, b.cq, 16, 1, srq=srq)
            yield from a.lib.connect(qa1, b.server.name, qb1.qpn)
            yield from b.lib.connect(qb1, a.server.name, qa1.qpn)
            yield from a.lib.connect(qa2, b.server.name, qb2.qpn)
            yield from b.lib.connect(qb2, a.server.name, qa2.qpn)
            return srq, qa1, qa2, qb1, qb2

        srq, qa1, qa2, qb1, qb2 = tb.run(setup())

        def driver():
            for i in range(4):
                b.lib.post_srq_recv(srq, RecvWR(wr_id=i, sges=[make_sge(b.mr, i * 64, 64)]))
            a.lib.post_send(qa1, SendWR(wr_id=1, opcode=Opcode.SEND,
                                        sges=[make_sge(a.mr, 0, 8)]))
            a.lib.post_send(qa2, SendWR(wr_id=2, opcode=Opcode.SEND,
                                        sges=[make_sge(a.mr, 0, 8)]))
            recv_wcs = yield from poll_until(tb, b.lib, b.cq, 2)
            return recv_wcs

        recv_wcs = tb.run(driver())
        assert {wc.qp_num for wc in recv_wcs} == {qb1.qpn, qb2.qpn}
        assert len(srq) == 2  # two of four RECVs consumed

    def test_srq_capacity(self):
        tb, b, _ = build_pair(qp_count=0)

        def driver():
            srq = yield from b.lib.create_srq(b.pd, 2)
            return srq

        srq = tb.run(driver())
        b.lib.post_srq_recv(srq, RecvWR(wr_id=1, sges=[]))
        b.lib.post_srq_recv(srq, RecvWR(wr_id=2, sges=[]))
        with pytest.raises(ResourceError):
            b.lib.post_srq_recv(srq, RecvWR(wr_id=3, sges=[]))


class TestCompletionChannels:
    def test_event_notification(self):
        tb = __import__("repro.cluster", fromlist=["build"]).build()
        a = make_endpoint(tb, tb.source, "alice")
        b = make_endpoint(tb, tb.partners[0], "bob")

        def setup():
            yield from setup_endpoint(a)
            b.pd = yield from b.lib.alloc_pd()
            channel = yield from b.lib.create_comp_channel()
            b.cq = yield from b.lib.create_cq(64, channel=channel)
            vma = b.process.space.mmap(4096, tag="data")
            b.buf_addr = vma.start
            b.mr = yield from b.lib.reg_mr(b.pd, b.buf_addr, 4096, AccessFlags.all_remote())
            yield from create_connected_qps(tb, a, b, count=1)
            return channel

        channel = tb.run(setup())

        def driver():
            b.lib.post_recv(b.qp, RecvWR(wr_id=5, sges=[make_sge(b.mr, 0, 64)]))
            b.lib.req_notify_cq(b.cq)
            a.lib.post_send(a.qp, SendWR(wr_id=1, opcode=Opcode.SEND,
                                         sges=[make_sge(a.mr, 0, 8)]))
            cq = yield from b.lib.get_cq_event(channel)
            b.lib.ack_cq_events(channel, 1)
            wcs = b.lib.poll_cq(cq, 8)
            return wcs

        wcs = tb.run(driver())
        assert len(wcs) == 1 and wcs[0].wr_id == 5
        assert channel.unacked_events == 0

    def test_req_notify_without_channel_rejected(self):
        tb, a, _ = build_pair(qp_count=0)
        with pytest.raises(CQError):
            a.lib.req_notify_cq(a.cq)

    def test_ack_more_than_outstanding_rejected(self):
        tb, a, _ = build_pair(qp_count=0)

        def driver():
            channel = yield from a.lib.create_comp_channel()
            return channel

        channel = tb.run(driver())
        with pytest.raises(CQError):
            a.lib.ack_cq_events(channel, 1)
