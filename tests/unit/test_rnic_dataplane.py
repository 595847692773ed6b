"""Unit tests for the RNIC data plane: SEND/RECV, WRITE, READ, ATOMIC,
errors, ordering, reliability."""

import math
import random

import pytest

from repro.rnic import AccessFlags, Opcode, QPState, QPType, RecvWR, SendWR, WCStatus
from repro.rnic.errors import QPStateError, ResourceError
from repro.rnic.nic import RNR_TIMER_S
from repro.verbs.api import make_sge

from tests.helpers import build_pair, poll_until


@pytest.fixture
def pair():
    return build_pair()


def run_op(tb, sender, receiver, wr, recv_wr=None, expect_send=1, expect_recv=0):
    """Post (optional recv then) send, drain expected completions."""

    def driver():
        if recv_wr is not None:
            receiver.lib.post_recv(receiver.qp, recv_wr)
        sender.lib.post_send(sender.qp, wr)
        send_wcs = yield from poll_until(tb, sender.lib, sender.cq, expect_send)
        recv_wcs = []
        if expect_recv:
            recv_wcs = yield from poll_until(tb, receiver.lib, receiver.cq, expect_recv)
        return send_wcs, recv_wcs

    return tb.run(driver())


class TestSendRecv:
    def test_send_delivers_payload(self, pair):
        tb, a, b = pair
        a.process.space.write(a.buf_addr, b"hello rdma!")
        wr = SendWR(wr_id=1, opcode=Opcode.SEND, sges=[make_sge(a.mr, 0, 11)])
        recv = RecvWR(wr_id=2, sges=[make_sge(b.mr, 0, 4096)])
        send_wcs, recv_wcs = run_op(tb, a, b, wr, recv, expect_recv=1)
        assert send_wcs[0].status is WCStatus.SUCCESS
        assert send_wcs[0].wr_id == 1
        assert recv_wcs[0].wr_id == 2
        assert recv_wcs[0].byte_len == 11
        assert b.process.space.read(b.buf_addr, 11) == b"hello rdma!"

    def test_send_with_imm(self, pair):
        tb, a, b = pair
        wr = SendWR(wr_id=1, opcode=Opcode.SEND_WITH_IMM,
                    sges=[make_sge(a.mr, 0, 8)], imm_data=0xABCD)
        recv = RecvWR(wr_id=2, sges=[make_sge(b.mr, 0, 64)])
        _, recv_wcs = run_op(tb, a, b, wr, recv, expect_recv=1)
        assert recv_wcs[0].imm_data == 0xABCD

    def test_send_without_recv_gets_rnr_then_succeeds(self, pair):
        tb, a, b = pair
        a.process.space.write(a.buf_addr, b"patience")

        def driver():
            a.lib.post_send(a.qp, SendWR(wr_id=1, opcode=Opcode.SEND,
                                         sges=[make_sge(a.mr, 0, 8)]))
            # Post the RECV late: after the first RNR NAK.
            yield tb.sim.timeout(150e-6)
            b.lib.post_recv(b.qp, RecvWR(wr_id=9, sges=[make_sge(b.mr, 0, 64)]))
            wcs = yield from poll_until(tb, a.lib, a.cq, 1)
            return wcs

        wcs = tb.run(driver())
        assert wcs[0].status is WCStatus.SUCCESS
        assert b.process.space.read(b.buf_addr, 8) == b"patience"

    def test_destroyed_qp_drops_pending_rnr_retry(self, pair):
        """The RNR retry is scheduled without a handle, so destroy_qp cannot
        cancel it: the retry itself must see the QP is gone and not resend
        into a RECV the peer posts afterwards."""
        tb, a, b = pair
        rnic = a.server.rnic

        def driver():
            a.lib.post_send(a.qp, SendWR(wr_id=1, opcode=Opcode.SEND,
                                         sges=[make_sge(a.mr, 0, 8)]))
            yield tb.sim.timeout(10e-6)  # RNR NAK received, retry pending
            yield from a.lib.destroy_qp(a.qp)
            tx_msgs = rnic.tx_msgs
            b.lib.post_recv(b.qp, RecvWR(wr_id=9, sges=[make_sge(b.mr, 0, 64)]))
            yield tb.sim.timeout(1e-3)
            return tx_msgs

        tx_msgs = tb.run(driver())
        assert rnic.tx_msgs == tx_msgs
        assert b.lib.poll_cq(b.cq, 4) == []

    def test_late_recvs_resend_once_per_rnr_timer(self, pair):
        """Two SENDs meet a peer that posts its RECVs 0.5 ms late.  The
        responder RNR-NAKs the first and drops the second silently, so the
        requester resends the pair once per RNR timer — not once per NAK,
        each resend drawing two more."""
        tb, a, b = pair
        late_s = 0.5e-3

        def driver():
            for i in range(2):
                a.lib.post_send(a.qp, SendWR(wr_id=i, opcode=Opcode.SEND,
                                             sges=[make_sge(a.mr, 8 * i, 8)]))
            yield tb.sim.timeout(late_s)
            for i in range(2):
                b.lib.post_recv(b.qp, RecvWR(wr_id=10 + i,
                                             sges=[make_sge(b.mr, 64 * i, 64)]))
            return (yield from poll_until(tb, a.lib, a.cq, 2))

        wcs = tb.run(driver())
        assert [(wc.wr_id, wc.status) for wc in wcs] == [
            (0, WCStatus.SUCCESS), (1, WCStatus.SUCCESS)]
        assert a.server.rnic.tx_msgs <= 2 + 2 * math.ceil(late_s / RNR_TIMER_S)

    def test_lost_request_draws_one_seq_nak_and_one_go_back(self, pair):
        """The second of four inflight SENDs is lost: the responder NAKs
        the gap once and drops the two behind it silently, the requester
        goes back once, and all four complete in order."""
        tb, a, b = pair
        injector = tb.network.fault_injector = _LoseSecondRequest()
        a.process.space.write(a.buf_addr, b"abcdefgh")

        def driver():
            for i in range(4):
                b.lib.post_recv(b.qp, RecvWR(wr_id=10 + i,
                                             sges=[make_sge(b.mr, 64 * i, 64)]))
            for i in range(4):
                a.lib.post_send(a.qp, SendWR(wr_id=i, opcode=Opcode.SEND,
                                             sges=[make_sge(a.mr, 2 * i, 2)]))
            send_wcs = yield from poll_until(tb, a.lib, a.cq, 4)
            recv_wcs = yield from poll_until(tb, b.lib, b.cq, 4)
            return send_wcs, recv_wcs

        send_wcs, recv_wcs = tb.run(driver())
        assert injector.seq_naks == 1
        assert injector.resent == [1, 2, 3]
        assert [(wc.wr_id, wc.status) for wc in send_wcs] == [
            (i, WCStatus.SUCCESS) for i in range(4)]
        assert [wc.wr_id for wc in recv_wcs] == [10, 11, 12, 13]
        assert [b.process.space.read(b.buf_addr + 64 * i, 2) for i in range(4)] == [
            b"ab", b"cd", b"ef", b"gh"]

    def test_payload_larger_than_recv_buffer_errors(self, pair):
        tb, a, b = pair
        wr = SendWR(wr_id=1, opcode=Opcode.SEND, sges=[make_sge(a.mr, 0, 1024)])
        recv = RecvWR(wr_id=2, sges=[make_sge(b.mr, 0, 16)])

        def driver():
            b.lib.post_recv(b.qp, recv)
            a.lib.post_send(a.qp, wr)
            recv_wcs = yield from poll_until(tb, b.lib, b.cq, 1)
            return recv_wcs

        recv_wcs = tb.run(driver())
        assert recv_wcs[0].status is WCStatus.LOC_LEN_ERR

    def test_recv_counters_track_two_sided(self, pair):
        tb, a, b = pair
        wr = SendWR(wr_id=1, opcode=Opcode.SEND, sges=[make_sge(a.mr, 0, 16)])
        recv = RecvWR(wr_id=2, sges=[make_sge(b.mr, 0, 64)])
        run_op(tb, a, b, wr, recv, expect_recv=1)
        assert a.qp.n_sent_two_sided == 1
        assert b.qp.n_recv_completed == 1

    def test_unsignaled_send_generates_no_cqe(self, pair):
        tb, a, b = pair

        def driver():
            b.lib.post_recv(b.qp, RecvWR(wr_id=2, sges=[make_sge(b.mr, 0, 64)]))
            a.lib.post_send(a.qp, SendWR(wr_id=1, opcode=Opcode.SEND, signaled=False,
                                         sges=[make_sge(a.mr, 0, 8)]))
            yield from poll_until(tb, b.lib, b.cq, 1)  # recv side completes
            yield tb.sim.timeout(1e-3)
            return a.lib.poll_cq(a.cq, 16)

        assert tb.run(driver()) == []
        assert a.qp.send_inflight == 0


class TestOneSided:
    def test_rdma_write(self, pair):
        tb, a, b = pair
        a.process.space.write(a.buf_addr, b"one-sided write")
        wr = SendWR(wr_id=1, opcode=Opcode.RDMA_WRITE, sges=[make_sge(a.mr, 0, 15)],
                    remote_addr=b.mr.addr + 100, rkey=b.mr.rkey)
        send_wcs, _ = run_op(tb, a, b, wr)
        assert send_wcs[0].status is WCStatus.SUCCESS
        assert b.process.space.read(b.buf_addr + 100, 15) == b"one-sided write"
        # One-sided: no recv CQE on the responder.
        assert len(b.cq) == 0

    def test_rdma_write_with_imm_consumes_recv(self, pair):
        tb, a, b = pair
        a.process.space.write(a.buf_addr, b"imm write")
        wr = SendWR(wr_id=1, opcode=Opcode.RDMA_WRITE_WITH_IMM,
                    sges=[make_sge(a.mr, 0, 9)],
                    remote_addr=b.mr.addr, rkey=b.mr.rkey, imm_data=7)
        recv = RecvWR(wr_id=2, sges=[])
        send_wcs, recv_wcs = run_op(tb, a, b, wr, recv, expect_recv=1)
        assert send_wcs[0].status is WCStatus.SUCCESS
        assert recv_wcs[0].imm_data == 7
        assert b.process.space.read(b.buf_addr, 9) == b"imm write"

    def test_rdma_read(self, pair):
        tb, a, b = pair
        b.process.space.write(b.buf_addr + 8, b"read me!")
        wr = SendWR(wr_id=1, opcode=Opcode.RDMA_READ, sges=[make_sge(a.mr, 0, 8)],
                    remote_addr=b.mr.addr + 8, rkey=b.mr.rkey)
        send_wcs, _ = run_op(tb, a, b, wr)
        assert send_wcs[0].status is WCStatus.SUCCESS
        assert send_wcs[0].byte_len == 8
        assert a.process.space.read(a.buf_addr, 8) == b"read me!"

    def test_atomic_fetch_and_add(self, pair):
        tb, a, b = pair
        b.process.space.write(b.buf_addr, (41).to_bytes(8, "little"))
        wr = SendWR(wr_id=1, opcode=Opcode.ATOMIC_FETCH_AND_ADD,
                    sges=[make_sge(a.mr, 0, 8)],
                    remote_addr=b.mr.addr, rkey=b.mr.rkey, compare_add=1)
        send_wcs, _ = run_op(tb, a, b, wr)
        assert send_wcs[0].status is WCStatus.SUCCESS
        # Original value lands in the requester buffer; remote is incremented.
        assert int.from_bytes(a.process.space.read(a.buf_addr, 8), "little") == 41
        assert int.from_bytes(b.process.space.read(b.buf_addr, 8), "little") == 42

    def test_atomic_cmp_and_swap(self, pair):
        tb, a, b = pair
        b.process.space.write(b.buf_addr, (5).to_bytes(8, "little"))
        wr = SendWR(wr_id=1, opcode=Opcode.ATOMIC_CMP_AND_SWP,
                    sges=[make_sge(a.mr, 0, 8)],
                    remote_addr=b.mr.addr, rkey=b.mr.rkey, compare_add=5, swap=99)
        run_op(tb, a, b, wr)
        assert int.from_bytes(b.process.space.read(b.buf_addr, 8), "little") == 99

    def test_atomic_cmp_and_swap_mismatch_leaves_value(self, pair):
        tb, a, b = pair
        b.process.space.write(b.buf_addr, (5).to_bytes(8, "little"))
        wr = SendWR(wr_id=1, opcode=Opcode.ATOMIC_CMP_AND_SWP,
                    sges=[make_sge(a.mr, 0, 8)],
                    remote_addr=b.mr.addr, rkey=b.mr.rkey, compare_add=4, swap=99)
        run_op(tb, a, b, wr)
        assert int.from_bytes(b.process.space.read(b.buf_addr, 8), "little") == 5

    def test_unaligned_atomic_fails(self, pair):
        tb, a, b = pair
        wr = SendWR(wr_id=1, opcode=Opcode.ATOMIC_FETCH_AND_ADD,
                    sges=[make_sge(a.mr, 0, 8)],
                    remote_addr=b.mr.addr + 3, rkey=b.mr.rkey, compare_add=1)
        send_wcs, _ = run_op(tb, a, b, wr)
        assert send_wcs[0].status is WCStatus.REM_ACCESS_ERR
        assert a.qp.state is QPState.ERR


class TestAuthorization:
    def test_bad_rkey_naks(self, pair):
        tb, a, b = pair
        wr = SendWR(wr_id=1, opcode=Opcode.RDMA_WRITE, sges=[make_sge(a.mr, 0, 8)],
                    remote_addr=b.mr.addr, rkey=0xDEADBEEF)
        send_wcs, _ = run_op(tb, a, b, wr)
        assert send_wcs[0].status is WCStatus.REM_ACCESS_ERR

    def test_write_without_remote_write_permission(self):
        tb, a, b = build_pair()
        # Re-register b's MR without REMOTE_WRITE.
        def setup():
            yield from b.lib.dereg_mr(b.mr)
            b.mr = yield from b.lib.reg_mr(
                b.pd, b.buf_addr, 4096, AccessFlags.LOCAL_WRITE | AccessFlags.REMOTE_READ)

        tb.run(setup())
        wr = SendWR(wr_id=1, opcode=Opcode.RDMA_WRITE, sges=[make_sge(a.mr, 0, 8)],
                    remote_addr=b.mr.addr, rkey=b.mr.rkey)
        send_wcs, _ = run_op(tb, a, b, wr)
        assert send_wcs[0].status is WCStatus.REM_ACCESS_ERR

    def test_remote_access_outside_mr_naks(self, pair):
        tb, a, b = pair
        wr = SendWR(wr_id=1, opcode=Opcode.RDMA_WRITE, sges=[make_sge(a.mr, 0, 64)],
                    remote_addr=b.mr.addr + b.mr.length - 8, rkey=b.mr.rkey)
        send_wcs, _ = run_op(tb, a, b, wr)
        assert send_wcs[0].status is WCStatus.REM_ACCESS_ERR

    def test_bad_lkey_local_error(self, pair):
        tb, a, b = pair
        from repro.rnic import SGE

        wr = SendWR(wr_id=1, opcode=Opcode.SEND, sges=[SGE(a.buf_addr, 8, 0x123456)])
        send_wcs, _ = run_op(tb, a, b, wr)
        assert send_wcs[0].status is WCStatus.LOC_PROT_ERR
        assert a.qp.state is QPState.ERR

    def test_error_flushes_subsequent_wrs(self, pair):
        tb, a, b = pair

        def driver():
            bad = SendWR(wr_id=1, opcode=Opcode.RDMA_WRITE, sges=[make_sge(a.mr, 0, 8)],
                         remote_addr=b.mr.addr, rkey=0xBAD)
            good = SendWR(wr_id=2, opcode=Opcode.RDMA_WRITE, sges=[make_sge(a.mr, 0, 8)],
                          remote_addr=b.mr.addr, rkey=b.mr.rkey)
            a.lib.post_send(a.qp, bad)
            a.lib.post_send(a.qp, good)
            return (yield from poll_until(tb, a.lib, a.cq, 2))

        wcs = tb.run(driver())
        statuses = {wc.wr_id: wc.status for wc in wcs}
        assert statuses[1] is WCStatus.REM_ACCESS_ERR
        assert statuses[2] in (WCStatus.WR_FLUSH_ERR, WCStatus.REM_ACCESS_ERR)


class TestOrderingAndState:
    def test_completions_in_posting_order(self, pair):
        tb, a, b = pair

        def driver():
            for i in range(32):
                a.lib.post_send(a.qp, SendWR(
                    wr_id=i, opcode=Opcode.RDMA_WRITE, sges=[make_sge(a.mr, 0, 256)],
                    remote_addr=b.mr.addr, rkey=b.mr.rkey))
            return (yield from poll_until(tb, a.lib, a.cq, 32))

        wcs = tb.run(driver())
        assert [wc.wr_id for wc in wcs] == list(range(32))

    def test_post_send_before_rts_rejected(self):
        tb, a, b = build_pair(qp_count=0)

        def driver():
            qp = yield from a.lib.create_qp(a.pd, QPType.RC, a.cq, a.cq, 16, 16)
            return qp

        qp = tb.run(driver())
        with pytest.raises(QPStateError):
            a.lib.post_send(qp, SendWR(wr_id=1, opcode=Opcode.SEND,
                                       sges=[make_sge(a.mr, 0, 8)]))

    def test_send_queue_full_rejected(self, pair):
        tb, a, b = pair
        with pytest.raises(ResourceError):
            for i in range(1000):
                a.lib.post_send(a.qp, SendWR(
                    wr_id=i, opcode=Opcode.RDMA_WRITE, sges=[make_sge(a.mr, 0, 8)],
                    remote_addr=b.mr.addr, rkey=b.mr.rkey))

    def test_inflight_accounting_drains_to_zero(self, pair):
        tb, a, b = pair

        def driver():
            for i in range(16):
                a.lib.post_send(a.qp, SendWR(
                    wr_id=i, opcode=Opcode.RDMA_WRITE, sges=[make_sge(a.mr, 0, 1024)],
                    remote_addr=b.mr.addr, rkey=b.mr.rkey))
            assert a.qp.send_inflight == 16
            yield from poll_until(tb, a.lib, a.cq, 16)
            return a.qp.send_inflight

        assert tb.run(driver()) == 0

    def test_throughput_is_line_rate_for_large_messages(self, pair):
        tb, a, b = pair
        nbytes = 32 * 1024
        count = 64

        def driver():
            start = tb.sim.now
            for i in range(count):
                a.lib.post_send(a.qp, SendWR(
                    wr_id=i, opcode=Opcode.RDMA_WRITE, sges=[make_sge(a.mr, 0, nbytes)],
                    remote_addr=b.mr.addr, rkey=b.mr.rkey))
            yield from poll_until(tb, a.lib, a.cq, count)
            return tb.sim.now - start

        elapsed = tb.run(driver())
        wire_time = count * nbytes * 8 / tb.config.link.rate_bps
        assert elapsed >= wire_time
        assert elapsed < wire_time * 1.25

    def test_reliability_under_loss(self, pair):
        from repro.chaos import FaultPlan

        tb, a, b = pair
        FaultPlan(seed=11).drop(0.02, protocol="rdma").install(tb)
        a.process.space.write(a.buf_addr, bytes(range(256)))

        def driver():
            for i in range(64):
                a.lib.post_send(a.qp, SendWR(
                    wr_id=i, opcode=Opcode.RDMA_WRITE,
                    sges=[make_sge(a.mr, 0, 256)],
                    remote_addr=b.mr.addr + 256, rkey=b.mr.rkey))
            return (yield from poll_until(tb, a.lib, a.cq, 64, timeout=30.0))

        wcs = tb.run(driver(), limit=60.0)
        assert all(wc.status is WCStatus.SUCCESS for wc in wcs)
        assert [wc.wr_id for wc in wcs] == list(range(64))
        assert b.process.space.read(b.buf_addr + 256, 256) == bytes(range(256))


class TestUD:
    def test_ud_send(self):
        tb, a, b = build_pair(qp_count=1, qp_type=QPType.UD)
        a.process.space.write(a.buf_addr, b"datagram")

        def driver():
            b.lib.post_recv(b.qp, RecvWR(wr_id=7, sges=[make_sge(b.mr, 0, 64)]))
            a.lib.post_send(a.qp, SendWR(
                wr_id=1, opcode=Opcode.SEND, sges=[make_sge(a.mr, 0, 8)],
                remote_node=b.server.name, remote_qpn=b.qp.qpn))
            send_wcs = yield from poll_until(tb, a.lib, a.cq, 1)
            recv_wcs = yield from poll_until(tb, b.lib, b.cq, 1)
            return send_wcs, recv_wcs

        send_wcs, recv_wcs = tb.run(driver())
        assert send_wcs[0].status is WCStatus.SUCCESS
        assert recv_wcs[0].wr_id == 7
        assert b.process.space.read(b.buf_addr, 8) == b"datagram"

    def test_ud_loss_is_silent(self):
        from repro.chaos import FaultPlan

        tb, a, b = build_pair(qp_count=1, qp_type=QPType.UD)
        FaultPlan(seed=13).drop(0.999, protocol="rdma").install(tb)

        def driver():
            b.lib.post_recv(b.qp, RecvWR(wr_id=7, sges=[make_sge(b.mr, 0, 64)]))
            a.lib.post_send(a.qp, SendWR(
                wr_id=1, opcode=Opcode.SEND, sges=[make_sge(a.mr, 0, 8)],
                remote_node=b.server.name, remote_qpn=b.qp.qpn))
            # The send still completes locally (fire and forget).
            send_wcs = yield from poll_until(tb, a.lib, a.cq, 1)
            yield tb.sim.timeout(5e-3)
            return send_wcs, b.lib.poll_cq(b.cq, 8)

        send_wcs, recv_wcs = tb.run(driver())
        assert send_wcs[0].status is WCStatus.SUCCESS
        assert recv_wcs == []


class TestBatchedPosting:
    """A burst of WRs posted back to back.  (The class name is historical:
    it once covered a WR-chain post.)"""

    N = 4

    def test_wr_ids_complete_in_posting_order(self):
        tb, a, b = build_pair()
        a.process.space.write(a.buf_addr, b"0123456789abcdef")

        def driver():
            for i in range(self.N):
                a.lib.post_send(a.qp, SendWR(
                    wr_id=i, opcode=Opcode.RDMA_WRITE, sges=[make_sge(a.mr, 4 * i, 4)],
                    remote_addr=b.mr.addr + 4 * i, rkey=b.mr.rkey))
            return (yield from poll_until(tb, a.lib, a.cq, self.N))

        wcs = tb.run(driver())
        assert [wc.wr_id for wc in wcs] == list(range(self.N))
        assert all(wc.status is WCStatus.SUCCESS for wc in wcs)
        assert b.process.space.read(b.buf_addr, 16) == b"0123456789abcdef"

    def test_partial_chain_failure_still_kicks_accepted_wrs(self):
        depth = 4
        tb, a, b = build_pair(depth=depth)
        wrs = [SendWR(wr_id=i, opcode=Opcode.RDMA_WRITE,
                      sges=[make_sge(a.mr, 0, 8)],
                      remote_addr=b.mr.addr, rkey=b.mr.rkey)
               for i in range(depth + 2)]

        def driver():
            # The post that overflows the SQ raises; the WRs accepted
            # before it still execute, in order.
            with pytest.raises(ResourceError):
                for wr in wrs:
                    a.lib.post_send(a.qp, wr)
            return (yield from poll_until(tb, a.lib, a.cq, depth))

        wcs = tb.run(driver())
        assert [wc.wr_id for wc in wcs] == list(range(depth))
        assert all(wc.status is WCStatus.SUCCESS for wc in wcs)


BUF = 32 * 4096

#: (name, local (offset, length) SGEs, remote offset) — local is the
#: requester's buffer, remote the responder's.
PAYLOAD_SHAPES = [
    ("aligned-multi-page", [(0, 4 * 4096)], 8 * 4096),
    ("single-page", [(4096, 4096)], 3 * 4096),
    ("unaligned", [(100, 10000)], 4096 + 7),
    ("aligned-local-unaligned-remote", [(0, 2 * 4096)], 300),
    ("multi-sge", [(0, 2 * 4096), (4 * 4096, 4096), (24 * 4096 + 5, 700)], 2 * 4096),
]


def _fill(space, addr):
    """Every kind of page: immutable (whole-page write), mutable (then
    partially overwritten) and never written (pages 3 and 20..31)."""
    rng = random.Random(addr)
    for page in range(20):
        if page != 3:
            space.write(addr + page * 4096, rng.randbytes(4096))
    space.write(addr + 4096 + 17, b"partial write makes page 1 mutable")
    space.write(addr + 2 * 4096 - 3, b"straddle")
    return space.read(addr, BUF)


def _scatter(model, sges, data):
    for offset, length in sges:
        chunk, data = data[:length], data[length:]
        model[offset:offset + len(chunk)] = chunk


class _DropFirstRequest:
    """Minimal ``Network.fault_injector``: lose the first RDMA request."""

    def __init__(self):
        self.dropped = 0

    def intercept(self, message, now):
        if message.protocol == "rdma" and message.payload["kind"] == "req" \
                and not self.dropped:
            self.dropped += 1
            return []
        return None


class _LoseSecondRequest:
    """``Network.fault_injector``: lose the first transmission of ssn 1;
    record which ssns are sent again and how many seq NAKs cross."""

    def __init__(self):
        self.seen = set()
        self.resent = []
        self.seq_naks = 0

    def intercept(self, message, now):
        payload = message.payload
        if message.protocol != "rdma":
            return None
        if payload["kind"] == "nak" and payload["reason"] == "seq":
            self.seq_naks += 1
        elif payload["kind"] == "req":
            ssn = payload["ssn"]
            if ssn in self.seen:
                self.resent.append(ssn)
            self.seen.add(ssn)
            if ssn == 1 and not self.resent:
                return []
        return None


#: ``express-lane`` is the historical ID of the resend variant: that slot
#: used to run the (removed) flow-level express lane.
@pytest.mark.parametrize("resend", [True, False], ids=["express-lane", "packet-path"])
@pytest.mark.parametrize("shape", PAYLOAD_SHAPES, ids=[s[0] for s in PAYLOAD_SHAPES])
class TestPayloadShapes:
    """Whatever shape the payload has — a page run taken by reference or
    joined bytes — and whether it crosses on the first transmission or on
    the resend after that request is lost, the far buffer ends up
    byte-identical to a flat copy."""

    @pytest.fixture
    def world(self, resend):
        tb, a, b = build_pair(buf_len=BUF)
        if resend:
            tb.network.fault_injector = _DropFirstRequest()
        src = _fill(a.process.space, a.buf_addr)
        dst = bytearray(_fill(b.process.space, b.buf_addr))
        return tb, a, b, src, dst

    def _check(self, tb, a, b, src, dst):
        injector = tb.network.fault_injector
        assert injector is None or injector.dropped == 1
        assert a.process.space.read(a.buf_addr, BUF) == src
        assert b.process.space.read(b.buf_addr, BUF) == bytes(dst)

    def test_write(self, world, shape):
        tb, a, b, src, dst = world
        _, sges, remote = shape
        data = b"".join(src[o:o + n] for o, n in sges)
        wr = SendWR(wr_id=1, opcode=Opcode.RDMA_WRITE,
                    sges=[make_sge(a.mr, o, n) for o, n in sges],
                    remote_addr=b.mr.addr + remote, rkey=b.mr.rkey)
        send_wcs, _ = run_op(tb, a, b, wr)
        assert send_wcs[0].status is WCStatus.SUCCESS
        assert send_wcs[0].byte_len == len(data)
        dst[remote:remote + len(data)] = data
        self._check(tb, a, b, src, dst)

    def test_write_with_imm(self, world, shape):
        tb, a, b, src, dst = world
        _, sges, remote = shape
        data = b"".join(src[o:o + n] for o, n in sges)
        wr = SendWR(wr_id=1, opcode=Opcode.RDMA_WRITE_WITH_IMM,
                    sges=[make_sge(a.mr, o, n) for o, n in sges],
                    remote_addr=b.mr.addr + remote, rkey=b.mr.rkey, imm_data=9)
        _, recv_wcs = run_op(tb, a, b, wr, RecvWR(wr_id=2, sges=[]), expect_recv=1)
        assert recv_wcs[0].imm_data == 9
        assert recv_wcs[0].byte_len == len(data)
        dst[remote:remote + len(data)] = data
        self._check(tb, a, b, src, dst)

    def test_send_into_multi_sge_recv(self, world, shape):
        tb, a, b, src, dst = world
        _, sges, _remote = shape
        data = b"".join(src[o:o + n] for o, n in sges)
        # page-aligned, sub-page and unaligned landing buffers
        landing = [(8 * 4096, 4096), (12 * 4096, 2 * 4096), (16 * 4096 + 9, 1000),
                   (20 * 4096, 8 * 4096)]
        wr = SendWR(wr_id=1, opcode=Opcode.SEND,
                    sges=[make_sge(a.mr, o, n) for o, n in sges])
        recv = RecvWR(wr_id=2, sges=[make_sge(b.mr, o, n) for o, n in landing])
        _, recv_wcs = run_op(tb, a, b, wr, recv, expect_recv=1)
        assert recv_wcs[0].status is WCStatus.SUCCESS
        assert recv_wcs[0].byte_len == len(data)
        _scatter(dst, landing, data)
        self._check(tb, a, b, src, dst)

    def test_read(self, world, shape):
        tb, a, b, src, dst = world
        _, sges, remote = shape
        length = sum(n for _o, n in sges)
        wr = SendWR(wr_id=1, opcode=Opcode.RDMA_READ,
                    sges=[make_sge(a.mr, o, n) for o, n in sges],
                    remote_addr=b.mr.addr + remote, rkey=b.mr.rkey)
        send_wcs, _ = run_op(tb, a, b, wr)
        assert send_wcs[0].status is WCStatus.SUCCESS
        assert send_wcs[0].byte_len == length
        landed = bytearray(src)
        _scatter(landed, sges, bytes(dst[remote:remote + length]))
        self._check(tb, a, b, bytes(landed), dst)


def test_dropped_request_is_regathered_on_retransmit():
    """The payload is fixed at gather time, and a retransmission gathers
    again: it carries what the buffer holds *then* (go-back-N as today)."""
    tb, a, b = build_pair(buf_len=BUF)
    first = _fill(a.process.space, a.buf_addr)[:4 * 4096]
    second = bytes(reversed(first))
    injector = tb.network.fault_injector = _DropFirstRequest()

    def driver():
        a.lib.post_send(a.qp, SendWR(
            wr_id=1, opcode=Opcode.RDMA_WRITE, sges=[make_sge(a.mr, 0, 4 * 4096)],
            remote_addr=b.mr.addr, rkey=b.mr.rkey))
        yield tb.sim.timeout(100e-6)  # lost on the wire; RTO still pending
        assert b.process.space.read(b.buf_addr, 4 * 4096) == bytes(4 * 4096)
        a.process.space.write(a.buf_addr, second)
        return (yield from poll_until(tb, a.lib, a.cq, 1))

    wcs = tb.run(driver())
    assert injector.dropped == 1
    assert wcs[0].status is WCStatus.SUCCESS
    assert b.process.space.read(b.buf_addr, 4 * 4096) == second


class _Wire:
    """``Network.fault_injector``: log every RDMA request and reply (with
    its wire size), and lose the first reply for the ssns in ``lose``."""

    def __init__(self, lose=()):
        self.lose = set(lose)
        self.requests = {}  # ssn -> the first transmission's Message
        self.replies = []  # (ssn, size_bytes, payload), in wire order

    def intercept(self, message, now):
        if message.protocol != "rdma":
            return None
        payload = message.payload
        if payload["kind"] == "req":
            self.requests.setdefault(payload["ssn"], message)
            return None
        self.replies.append((payload["ssn"], message.size_bytes, payload))
        if payload["ssn"] in self.lose:
            self.lose.discard(payload["ssn"])
            return []
        return None

    def replay(self, tb, ssn):
        """Deliver the logged request ``ssn`` once more; return the replies
        it draws."""
        message = self.requests[ssn]
        before = len(self.replies)
        tb.network.transmit_raw(message.src, message.dst, message.size_bytes,
                                message.protocol, message.payload)
        tb.sim.run(until=tb.sim.now + 100e-6)
        return self.replies[before:]


def _one_sided(a, b, opcode, wr_id, offset=0):
    """An 8-byte WRITE / READ / FETCH_AND_ADD at ``b``'s buffer + offset."""
    return SendWR(wr_id=wr_id, opcode=opcode, sges=[make_sge(a.mr, 8 * wr_id, 8)],
                  remote_addr=b.mr.addr + offset, rkey=b.mr.rkey, compare_add=1)


class TestReplayWindow:
    """The responder answers a duplicate request the way it answered the
    original, without executing it again: a plain ACK is rebuilt from its
    ssn and only READ / atomic responses are kept, for the last 128 to
    256 executed ssns of each connection."""

    @pytest.mark.parametrize("opcode", [
        Opcode.RDMA_WRITE, Opcode.RDMA_READ, Opcode.ATOMIC_FETCH_AND_ADD],
        ids=["write", "read", "fetch-add"])
    def test_duplicate_in_window_gets_the_original_reply(self, pair, opcode):
        tb, a, b = pair
        wire = tb.network.fault_injector = _Wire()
        b.process.space.write(b.buf_addr, (41).to_bytes(8, "little"))
        send_wcs, _ = run_op(tb, a, b, _one_sided(a, b, opcode, wr_id=0))
        assert send_wcs[0].status is WCStatus.SUCCESS
        # The memory under the request moves on; the duplicate must not see it.
        b.process.space.write(b.buf_addr, (7).to_bytes(8, "little"))
        [original] = wire.replies
        assert wire.replay(tb, 0) == [original]
        assert original[2]["kind"] == ("ack" if opcode is Opcode.RDMA_WRITE else "resp")
        if opcode is not Opcode.RDMA_WRITE:
            assert bytes(original[2]["data"]) == (41).to_bytes(8, "little")
        # Executed once: the atomic did not add twice, the WRITE did not land again.
        assert b.process.space.read(b.buf_addr, 8) == (7).to_bytes(8, "little")

    def test_window_keeps_the_last_128_ssns_after_257_requests(self, pair):
        tb, a, b = pair
        wire = tb.network.fault_injector = _Wire()

        def driver():
            for start in range(0, 257, 64):
                for i in range(start, min(start + 64, 257)):
                    a.lib.post_send(a.qp, _one_sided(a, b, Opcode.RDMA_WRITE, 0, 8 * i))
                yield from poll_until(tb, a.lib, a.cq, min(64, 257 - start))

        tb.run(driver())
        assert [ssn for ssn, _size, _payload in wire.replies] == list(range(257))
        assert wire.replay(tb, 0) == []
        assert wire.replay(tb, 128) == []
        assert wire.replay(tb, 129) == [wire.replies[129]]
        assert wire.replay(tb, 256) == [wire.replies[256]]

    def test_per_connection_state_is_compact(self, pair):
        """WRITEs leave no reply object on the connection, and a QP keeps
        its attributes in slots, not in a per-instance dict."""
        tb, a, b = pair
        for i in range(16):
            run_op(tb, a, b, _one_sided(a, b, Opcode.RDMA_WRITE, i % 8, 8 * i))
        conn = b.server.rnic._conn_state[(a.server.rnic.node.name, a.qp.qpn)]
        assert (conn.expected_ssn, conn.first_ssn, conn.kept) == (16, 0, {})
        assert not hasattr(a.qp, "__dict__")
        assert not hasattr(b.server.rnic.qps[b.qp.qpn], "__dict__")

    def test_resent_read_response_is_charged_its_wire_size(self, pair):
        tb, a, b = pair
        wire = tb.network.fault_injector = _Wire(lose={0})
        b.process.space.write(b.buf_addr, bytes(range(256)) * 16)
        nic = b.server.rnic
        wr = SendWR(wr_id=1, opcode=Opcode.RDMA_READ, sges=[make_sge(a.mr, 0, 4096)],
                    remote_addr=b.mr.addr, rkey=b.mr.rkey)
        tx_bytes = nic.tx_bytes
        send_wcs, _ = run_op(tb, a, b, wr)
        assert send_wcs[0].status is WCStatus.SUCCESS
        assert a.process.space.read(a.buf_addr, 4096) == bytes(range(256)) * 16
        sizes = [size for _ssn, size, _payload in wire.replies]
        assert sizes == [nic._wire_size(4096)] * 2
        assert nic.tx_bytes - tx_bytes == 2 * nic._wire_size(4096)
