"""The verbs API surface and its direct (non-virtualized) implementation.

Conventions
-----------
- Control-path methods are **generators**: callers ``yield from`` them
  inside a simulated process, because they involve firmware commands with
  real latency (the reason RDMA pre-setup matters at all).
- Data-path methods are **plain functions**: posting and polling are
  synchronous userspace operations; their cost is charged to the process's
  CPU cycle ledger.
- Applications must only use what this interface returns (`.qpn`, `.lkey`,
  `.rkey`, completions from ``poll_cq``); the MigrRDMA guest lib returns
  virtualized handles through the very same surface.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cluster import AppProcess
from repro.rnic import (
    CQ,
    MR,
    PD,
    QP,
    RNIC,
    SGE,
    SRQ,
    AccessFlags,
    CompletionChannel,
    DeviceMemory,
    MemoryWindow,
    Opcode,
    QPState,
    QPType,
    RecvWR,
    SendWR,
    WorkCompletion,
)

#: Cycle ledger label per posted opcode (Table 4's four operations), keyed
#: by the opcode's value: a str hashes in C, an Enum member in Python.
_OP_LABEL = {op.value: label for op, label in (
    (Opcode.SEND, "send"),
    (Opcode.SEND_WITH_IMM, "send"),
    (Opcode.RDMA_WRITE, "write"),
    (Opcode.RDMA_WRITE_WITH_IMM, "write"),
    (Opcode.RDMA_READ, "read"),
    (Opcode.ATOMIC_CMP_AND_SWP, "write"),
    (Opcode.ATOMIC_FETCH_AND_ADD, "write"),
    (Opcode.BIND_MW, "send"),
)}


class VerbsAPI:
    """Abstract verbs surface shared by the direct and MigrRDMA libraries."""

    # control path ---------------------------------------------------------
    def alloc_pd(self):
        raise NotImplementedError

    def reg_mr(self, pd, addr: int, length: int, access: AccessFlags):
        raise NotImplementedError

    def dereg_mr(self, mr):
        raise NotImplementedError

    def create_comp_channel(self):
        raise NotImplementedError

    def create_cq(self, depth: int, channel=None):
        raise NotImplementedError

    def create_srq(self, pd, max_wr: int):
        raise NotImplementedError

    def create_qp(self, pd, qp_type: QPType, send_cq, recv_cq,
                  max_send_wr: int, max_recv_wr: int, srq=None,
                  tenant: Optional[str] = None):
        raise NotImplementedError

    def modify_qp_to_init(self, qp):
        raise NotImplementedError

    def modify_qp_to_rtr(self, qp, remote_node: Optional[str] = None,
                         remote_qpn: Optional[int] = None):
        raise NotImplementedError

    def modify_qp_to_rts(self, qp):
        raise NotImplementedError

    def destroy_qp(self, qp):
        raise NotImplementedError

    def alloc_mw(self, pd):
        raise NotImplementedError

    def alloc_dm(self, length: int):
        raise NotImplementedError

    def reg_dm_mr(self, pd, dm, access: AccessFlags):
        raise NotImplementedError

    def connect(self, qp, remote_node: str, remote_qpn: int):
        """Convenience: INIT -> RTR -> RTS."""
        yield from self.modify_qp_to_init(qp)
        yield from self.modify_qp_to_rtr(qp, remote_node, remote_qpn)
        yield from self.modify_qp_to_rts(qp)

    # data path ---------------------------------------------------------------
    def post_send(self, qp, wr: SendWR) -> None:
        raise NotImplementedError

    def post_recv(self, qp, wr: RecvWR) -> None:
        raise NotImplementedError

    def post_srq_recv(self, srq, wr: RecvWR) -> None:
        raise NotImplementedError

    def poll_cq(self, cq, max_entries: int = 1) -> List[WorkCompletion]:
        raise NotImplementedError

    def req_notify_cq(self, cq) -> None:
        raise NotImplementedError

    def get_cq_event(self, channel):
        """Generator: waits for the next completion event on the channel."""
        raise NotImplementedError

    def ack_cq_events(self, channel, count: int = 1) -> None:
        raise NotImplementedError


class DirectVerbs(VerbsAPI):
    """The unmodified RDMA library+driver: straight to the NIC."""

    def __init__(self, process: AppProcess, rnic: RNIC):
        self.process = process
        self.rnic = rnic
        self.sim = rnic.sim

    # -- control path -------------------------------------------------------

    def alloc_pd(self):
        pd = yield from self.rnic.alloc_pd()
        return pd

    def reg_mr(self, pd: PD, addr: int, length: int, access: AccessFlags):
        mr = yield from self.rnic.reg_mr(pd, self.process.space, addr, length, access)
        return mr

    def dereg_mr(self, mr: MR):
        yield from self.rnic.dereg_mr(mr)

    def create_comp_channel(self):
        channel = yield from self.rnic.create_comp_channel()
        return channel

    def create_cq(self, depth: int, channel: Optional[CompletionChannel] = None):
        cq = yield from self.rnic.create_cq(depth, channel)
        return cq

    def create_srq(self, pd: PD, max_wr: int):
        srq = yield from self.rnic.create_srq(pd, max_wr)
        return srq

    def create_qp(self, pd: PD, qp_type: QPType, send_cq: CQ, recv_cq: CQ,
                  max_send_wr: int, max_recv_wr: int, srq: Optional[SRQ] = None,
                  max_rd_atomic: int = 16, max_inline_data: int = 220,
                  tenant: Optional[str] = None):
        qp = yield from self.rnic.create_qp(
            pd, qp_type, send_cq, recv_cq, max_send_wr, max_recv_wr, srq=srq,
            max_rd_atomic=max_rd_atomic, max_inline_data=max_inline_data,
            tenant=tenant)
        return qp

    def modify_qp_to_init(self, qp: QP):
        yield from self.rnic.modify_qp(qp, QPState.INIT)

    def modify_qp_to_rtr(self, qp: QP, remote_node: Optional[str] = None,
                         remote_qpn: Optional[int] = None):
        yield from self.rnic.modify_qp(qp, QPState.RTR, remote_node, remote_qpn)

    def modify_qp_to_rts(self, qp: QP):
        yield from self.rnic.modify_qp(qp, QPState.RTS)

    def destroy_qp(self, qp: QP):
        yield from self.rnic.destroy_qp(qp)

    def alloc_mw(self, pd: PD):
        mw = yield from self.rnic.alloc_mw(pd)
        return mw

    def alloc_dm(self, length: int):
        """Allocate on-chip memory and map it into the process (§3.3)."""
        dm = yield from self.rnic.alloc_dm(length)
        vma = self.process.space.mmap(length, tag="on-chip", name=f"dm{dm.handle}")
        dm.mapped_addr = vma.start
        return dm

    def reg_dm_mr(self, pd: PD, dm: DeviceMemory, access: AccessFlags):
        if dm.mapped_addr is None:
            raise ValueError("device memory is not mapped")
        mr = yield from self.rnic.reg_mr(
            pd, self.process.space, dm.mapped_addr, dm.length, access, on_chip=True)
        return mr

    # -- data path ---------------------------------------------------------------

    def post_send(self, qp: QP, wr: SendWR) -> None:
        label = _OP_LABEL[wr.opcode._value_]
        self.process.cpu.charge_base(label)
        if wr.inline and wr.inline_data is None:
            capture_inline(self.process, qp, wr)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant(tracer.lane(self.rnic.node.name, "verbs"), f"post:{label}",
                           {"qpn": qp.qpn, "bytes": wr.total_length})
        self.rnic.post_send(qp, wr)

    def post_recv(self, qp: QP, wr: RecvWR) -> None:
        self.process.cpu.charge_base("recv")
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant(tracer.lane(self.rnic.node.name, "verbs"),
                           "post:recv", {"qpn": qp.qpn})
        self.rnic.post_recv(qp, wr)

    def post_srq_recv(self, srq: SRQ, wr: RecvWR) -> None:
        self.process.cpu.charge_base("recv")
        self.rnic.post_srq_recv(srq, wr)

    def poll_cq(self, cq: CQ, max_entries: int = 1) -> List[WorkCompletion]:
        self.process.cpu.charge_base("poll")
        wcs = cq.poll(max_entries)
        if wcs:
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.instant(tracer.lane(self.rnic.node.name, "verbs"),
                               "poll", {"cqn": cq.handle, "n": len(wcs)})
        return wcs

    def req_notify_cq(self, cq: CQ) -> None:
        cq.req_notify()

    def get_cq_event(self, channel: CompletionChannel):
        cq = yield channel.get_cq_event()
        return cq

    def ack_cq_events(self, channel: CompletionChannel, count: int = 1) -> None:
        channel.ack_events(count)


def capture_inline(process, qp, wr: SendWR) -> None:
    """Copy an inline WR's payload out of the application buffer at post
    time (IBV_SEND_INLINE semantics: no lkey needed, buffer reusable)."""
    if not (wr.opcode.is_two_sided or wr.opcode in (
            Opcode.RDMA_WRITE, Opcode.RDMA_WRITE_WITH_IMM)):
        raise ValueError("inline is only valid for SEND and RDMA WRITE")
    total = wr.total_length
    limit = getattr(qp, "max_inline_data", None)
    if limit is None:  # virtual QP wrapper: ask the physical QP
        limit = qp._phys.max_inline_data
    if total > limit:
        raise ValueError(f"inline payload {total} exceeds max_inline_data {limit}")
    wr.inline_data = b"".join(
        process.space.read(sge.addr, sge.length) for sge in wr.sges)


def make_sge(mr, offset: int, length: int) -> SGE:
    """An SGE into ``mr`` at ``offset`` — works for direct and virtual MRs."""
    if offset < 0 or offset + length > mr.length:
        raise ValueError(f"SGE [{offset}, {offset + length}) outside MR of length {mr.length}")
    return SGE(addr=mr.addr + offset, length=length, lkey=mr.lkey)
