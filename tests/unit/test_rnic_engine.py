"""The RNIC send engine and rx pipeline as callback state machines.

``destroy_qp`` must stop the engine in whatever wait it is in with the
same schedule traffic a resident engine process paid: one stop dispatch,
the pending timed step cancelled, one dispatch for the ended engine, and a
wake-up already on its way firing into nothing.  The pinned deltas are
what the process-based engine measured.
"""

import gc

import pytest

from repro.beds import PerftestBed
from repro.rnic import NicQoS, Opcode, QPType, RecvWR, SendWR, TenantSpec, WCStatus
from repro.rnic.errors import QPStateError
from repro.sim import Process
from repro.verbs.api import make_sge

from tests.helpers import build_pair, poll_until

#: engine state at destroy_qp -> (events_processed, events_cancelled, CQEs)
#: from the destroy_qp call until 1 ms after it, process-based engine.
#: The RTO timer destroy_qp stops is the one cancellation in the stall;
#: the wire-done of the 64 KiB WRITE fires into the stopped engine.
DESTROY_PINS = {
    "parked": (6, 0, []),
    "wqe_fetch": (7, 1, []),
    "on_the_wire": (10, 0, []),
    "qos_shaped": (8, 1, []),
    "rd_atomic_stall": (15, 1, []),
}


def _write(a, b, wr_id, length=8):
    return SendWR(wr_id=wr_id, opcode=Opcode.RDMA_WRITE,
                  sges=[make_sge(a.mr, 0, length)],
                  remote_addr=b.mr.addr, rkey=b.mr.rkey)


def _read(a, b, wr_id):
    return SendWR(wr_id=wr_id, opcode=Opcode.RDMA_READ, sges=[make_sge(a.mr, 0, 8)],
                  remote_addr=b.mr.addr, rkey=b.mr.rkey)


def _destroy_in(state):
    """Destroy alice's QP while its engine is in ``state``; the schedule
    traffic and the CQEs from the destroy_qp call to 1 ms after it."""
    tb, a, b = build_pair()
    sim, rnic, qp = tb.sim, tb.source.rnic, a.qp
    cfg = rnic.config.rnic
    wqe_s = cfg.doorbell_s + cfg.per_wqe_processing_s
    posts, lead = [], 0.0
    if state == "wqe_fetch":
        posts, lead = [_write(a, b, 1)], wqe_s / 2
    elif state == "on_the_wire":  # 64 KiB serialise for >5 us
        posts, lead = [_write(a, b, 1, 65536)], wqe_s + 1e-6
    elif state == "qos_shaped":  # 8 KiB against a 4 KiB burst at 1 GB/s
        rnic.qos = NicQoS([TenantSpec("t", rate_bps=8e9, burst_bytes=4096)])
        qp.tenant = "t"
        posts, lead = [_write(a, b, 1, 8192)], wqe_s + 1e-6
    elif state == "rd_atomic_stall":  # READ 2 waits on READ 1's response
        qp.max_rd_atomic = 1
        posts, lead = [_read(a, b, 1), _read(a, b, 2)], 2 * wqe_s + 0.5e-6
    processed, cancelled = sim.events_processed, sim.events_cancelled
    sim.spawn(rnic.destroy_qp(qp))
    sim.run(until=sim.now + cfg.destroy_qp_s - lead)
    for wr in posts:
        a.lib.post_send(qp, wr)
    sim.run(until=sim.now + lead + 1e-3)
    assert qp.destroyed and qp.qpn not in rnic.qps
    cqes = [(wc.wr_id, wc.status.name) for wc in a.lib.poll_cq(a.cq, 16)]
    return sim.events_processed - processed, sim.events_cancelled - cancelled, cqes


@pytest.mark.parametrize("state", sorted(DESTROY_PINS))
def test_destroy_qp_matches_the_process_engine(state):
    assert _destroy_in(state) == DESTROY_PINS[state]


def test_malformed_ud_post_raises_and_the_engine_runs_on():
    tb, a, b = build_pair(qp_type=QPType.UD)
    a.process.space.write(a.buf_addr, b"datagram")
    send = dict(sges=[make_sge(a.mr, 0, 8)], remote_node=b.server.name,
                remote_qpn=b.qp.qpn)
    with pytest.raises(QPStateError, match="only support SEND"):
        a.lib.post_send(a.qp, SendWR(wr_id=1, opcode=Opcode.RDMA_WRITE, **send))
    with pytest.raises(QPStateError, match="remote_node and remote_qpn"):
        a.lib.post_send(a.qp, SendWR(wr_id=2, opcode=Opcode.SEND,
                                     sges=[make_sge(a.mr, 0, 8)]))
    assert not a.qp.sq_pending and a.qp.send_inflight == 0

    def driver():
        b.lib.post_recv(b.qp, RecvWR(wr_id=7, sges=[make_sge(b.mr, 0, 64)]))
        a.lib.post_send(a.qp, SendWR(wr_id=3, opcode=Opcode.SEND, **send))
        sent = yield from poll_until(tb, a.lib, a.cq, 1)
        received = yield from poll_until(tb, b.lib, b.cq, 1)
        return sent + received

    sent, received = tb.run(driver())
    assert (sent.wr_id, sent.status) == (3, WCStatus.SUCCESS)
    assert (received.wr_id, received.status) == (7, WCStatus.SUCCESS)
    assert b.process.space.read(b.buf_addr, 8) == b"datagram"


def _live_processes(num_qps: int) -> int:
    bed = PerftestBed(num_qps)
    bed.run(bed.setup())
    gc.collect()
    count = sum(1 for obj in gc.get_objects() if isinstance(obj, Process))
    del bed
    return count


def test_no_process_per_qp():
    assert _live_processes(64) == _live_processes(8)
