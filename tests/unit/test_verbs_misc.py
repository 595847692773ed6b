"""Unit tests for verbs helpers, WR validation, and the cycle charging of
the direct library."""

import pytest

from repro.rnic import Opcode, RecvWR, SendWR
from repro.rnic.wr import SGE, clone_recv_wr, clone_send_wr
from repro.verbs.api import make_sge

from tests.helpers import build_pair


class TestMakeSge:
    def test_within_mr(self):
        tb, a, b = build_pair(qp_count=0)
        sge = make_sge(a.mr, 16, 128)
        assert sge.addr == a.mr.addr + 16
        assert sge.length == 128
        assert sge.lkey == a.mr.lkey

    def test_out_of_bounds_rejected(self):
        tb, a, b = build_pair(qp_count=0)
        with pytest.raises(ValueError):
            make_sge(a.mr, a.mr.length - 8, 16)
        with pytest.raises(ValueError):
            make_sge(a.mr, -1, 8)


class TestWrValidation:
    def test_recv_opcode_rejected_on_send_wr(self):
        with pytest.raises(ValueError):
            SendWR(wr_id=1, opcode=Opcode.RECV)

    def test_atomic_sge_must_be_8_bytes(self):
        with pytest.raises(ValueError):
            SendWR(wr_id=1, opcode=Opcode.ATOMIC_FETCH_AND_ADD,
                   sges=[SGE(0x1000, 16, 1)])

    def test_negative_sge_length_rejected(self):
        with pytest.raises(ValueError):
            SGE(0x1000, -1, 1)

    def test_read_wire_payload_is_zero(self):
        wr = SendWR(wr_id=1, opcode=Opcode.RDMA_READ, sges=[SGE(0x1000, 4096, 1)])
        assert wr.wire_payload_bytes == 0
        assert wr.total_length == 4096

    def test_total_length_tracks_sge_edits(self):
        """Nothing is cached at construction: the guest lib rewrites SGEs
        on clones, and replay re-posts edited WRs."""
        wr = SendWR(wr_id=1, opcode=Opcode.SEND, sges=[SGE(0x1000, 64, 7)])
        assert wr.total_length == 64
        wr.sges[0].length = 100
        wr.sges.append(SGE(0x2000, 28, 7))
        assert wr.total_length == wr.wire_payload_bytes == 128
        copy = clone_send_wr(wr)
        copy.sges[1].length = 0
        assert (copy.total_length, wr.total_length) == (100, 128)
        recv = RecvWR(wr_id=2, sges=[SGE(0x1000, 64, 7)])
        recv.sges.append(SGE(0x3000, 36, 7))
        assert recv.total_length == 100
        assert SendWR(wr_id=3, opcode=Opcode.SEND).total_length == 0

    def test_clone_send_wr_is_deep_for_sges(self):
        wr = SendWR(wr_id=1, opcode=Opcode.SEND, sges=[SGE(0x1000, 64, 7)],
                    signaled=False, imm_data=5, remote_addr=0x2000, rkey=3,
                    compare_add=4, swap=6, remote_node="n", remote_qpn=9,
                    bind_mw=object(), bind_mr=object(), bind_access=object(),
                    inline=True, inline_data=b"x")
        copy = clone_send_wr(wr)
        assert copy == wr  # every field copied
        copy.sges[0].lkey = 99
        assert wr.sges[0].lkey == 7

    def test_clone_recv_wr_is_deep_for_sges(self):
        wr = RecvWR(wr_id=1, sges=[SGE(0x1000, 64, 7)])
        copy = clone_recv_wr(wr)
        copy.sges[0].addr = 0
        assert wr.sges[0].addr == 0x1000


class TestOpcodeProperties:
    def test_classification(self):
        assert Opcode.SEND.is_two_sided and not Opcode.SEND.is_one_sided
        assert Opcode.RDMA_WRITE.is_one_sided and not Opcode.RDMA_WRITE.is_two_sided
        assert Opcode.RDMA_READ.needs_response_payload
        assert Opcode.ATOMIC_CMP_AND_SWP.is_atomic
        assert Opcode.ATOMIC_CMP_AND_SWP.needs_response_payload
        assert Opcode.RDMA_WRITE_WITH_IMM.consumes_recv
        assert not Opcode.RDMA_WRITE.consumes_recv


class TestCycleCharging:
    def test_direct_lib_charges_base_costs(self):
        tb, a, b = build_pair()
        cpu = a.process.cpu
        before = cpu.total_cycles
        a.lib.post_send(a.qp, SendWR(
            wr_id=1, opcode=Opcode.RDMA_WRITE, sges=[make_sge(a.mr, 0, 64)],
            remote_addr=b.mr.addr, rkey=b.mr.rkey))
        charged = cpu.total_cycles - before
        base = cpu.config.base_cycles["write"]
        assert charged == pytest.approx(base, rel=0.1)

    def test_poll_charges(self):
        tb, a, b = build_pair()
        cpu = a.process.cpu
        before = cpu.count_by_op.get("poll", 0)
        a.lib.poll_cq(a.cq, 4)
        assert cpu.count_by_op["poll"] == before + 1
