"""The RNIC: control-path resource management and the RC/UD data engines.

Data path model
---------------
Each QP gets an engine process that drains its send queue.  A work request
is validated (lkey checks), gathered from local memory, and transmitted
through the node's egress port — which meters everything at line rate and
arbitrates between QPs.  RC requests carry a per-QP send sequence number
(SSN); the responder executes strictly in SSN order, acknowledges, and the
requester completes WRs in order.  Loss is handled go-back-N: a NAK or a
retransmission timeout resends everything still inflight.  UD SENDs are
fire-and-forget.

Remote operations (SEND into a RECV buffer, RDMA WRITE/READ, ATOMIC,
WRITE_WITH_IMM) move real bytes between address spaces and enforce
rkey/memory-window authorization, so data corruption, loss or duplication
introduced by a buggy migration layer *will* be observed by the
correctness checks.
"""

from __future__ import annotations

import itertools
import zlib
from typing import Dict, Optional, Tuple

from repro.config import Config, QPN_SPACE
from repro.fabric.message import Message
from repro.fabric.network import Node
from repro.mem import AddressSpace, Payload
from repro.rnic.constants import (
    ACK_BYTES,
    ATOMIC_OPERAND_BYTES,
    OPCODE_BY_VALUE,
    REQUEST_HEADER_BYTES,
    AccessFlags,
    Opcode,
    QPState,
    QPType,
    WCStatus,
)
from repro.rnic.cq import CQ, CompletionChannel, WorkCompletion
from repro.rnic.errors import AccessError, QPStateError, ResourceError
from repro.rnic.mr import MR, PD, DeviceMemory, KeyAllocator, MemoryWindow
from repro.rnic.qp import QP
from repro.rnic.srq import SRQ
from repro.rnic.wr import RecvWR, SendWR
from repro.sim import Interrupt, Queue, Simulator

_nic_ids = itertools.count(1)

#: Each NIC allocates QPNs from its own band of the 24-bit space (band
#: size >= config.rnic.max_qps), so physical QPNs — and therefore the
#: virtual QPNs that equal them at creation time — are unique across a
#: whole testbed.  Uniqueness is what lets two migrated containers share
#: one destination host without their virtual QPN namespaces colliding
#: in the indirection layer's ``vqpn_index``.
QPN_BAND = 0x4000

_qpn_bases = itertools.count(0)


def reset_qpn_bases() -> None:
    """Restart the QPN band allocator (one testbed = one deterministic
    stream, same contract as the cluster's global PID counter)."""
    global _qpn_bases
    _qpn_bases = itertools.count(0)


RDMA_PROTOCOL = "rdma"

#: Retransmission policy.  RNR_RETRY of 7 means infinite per the IB spec —
#: the common configuration, and what lets MigrRDMA's replay tolerate the
#: receiver's RECV replay arriving after the sender's SEND replay.
MAX_RETRIES = 8
RNR_RETRY = 7
RNR_TIMER_S = 100e-6


class _ConnState:
    """Responder-side per-connection state (keyed by src node+QPN)."""

    __slots__ = ("expected_ssn", "replies")

    def __init__(self):
        self.expected_ssn = 0
        self.replies: Dict[int, dict] = {}  # ssn -> last reply payload (for dup re-ack)


class RNIC:
    """One RDMA NIC attached to a fabric node."""

    # Always 0: the frozen benchmarks/perf/scenarios.py reads them until a
    # later benchmark change drops those rows.
    flow_expressed = flow_fallbacks = flow_materialized = 0

    def __init__(self, sim: Simulator, node: Node, config: Config):
        self.sim = sim
        self.node = node
        self.config = config
        self.name = f"rnic:{node.name}:{next(_nic_ids)}"

        self._qpn_iter = itertools.count(
            0x000100 + (next(_qpn_bases) * QPN_BAND) % QPN_SPACE)
        # crc32, not hash(): key values must not depend on the interpreter's
        # string-hash randomization, or parallel sweep workers would diverge
        # from an in-process run of the same seed.
        self._keys = KeyAllocator(salt=zlib.crc32(node.name.encode()) & 0xFFFF)
        self._mw_handles = itertools.count(1)
        self._dm_handles = itertools.count(1)

        self.qps: Dict[int, QP] = {}
        self.mrs_by_lkey: Dict[int, MR] = {}
        self.mrs_by_rkey: Dict[int, MR] = {}
        self.mws_by_rkey: Dict[int, MemoryWindow] = {}
        self.srqs: Dict[int, SRQ] = {}
        self.dm_allocated = 0

        self._engines: Dict[int, object] = {}  # qpn -> engine Process
        self._kicks: Dict[int, Queue] = {}
        self._conn_state: Dict[Tuple[str, int], _ConnState] = {}

        # Control-path activity window: while firmware commands execute,
        # data-path processing pays a contention penalty (Figure 5 brownout).
        self._control_busy_until = -1.0

        # Requests are executed by a serial rx worker so responder-side
        # contention delays are ordered per NIC.  _rx_backlog counts items
        # handed to the worker but not yet executed; while it is zero and no
        # contention applies, requests take a synchronous fast path instead
        # of a queue round-trip (order is trivially preserved).
        self._rx_queue: Queue = Queue(sim)
        self._rx_backlog = 0
        sim.spawn(self._rx_worker(), name=f"{self.name}:rx")

        # CQE delivery coalescing: completions raised back-to-back at the
        # same simulated time share one completion_delivery_s event.
        self._wc_batch: Optional[list] = None
        self._wc_batch_time = -1.0

        # Optional fault hook (repro.chaos): RNR storms and CQ delivery
        # pressure.  None keeps the unfaulted fast path.
        self.chaos = None

        # Optional per-tenant QoS (repro.rnic.qos): QP quotas and
        # token-bucket rate shaping.  None keeps the unmetered fast path
        # bit-identical to a build without QoS.
        self.qos = None

        # Ethtool-style byte counters (Figure 5's measurement source).
        self.tx_bytes = 0
        self.rx_bytes = 0
        self.tx_msgs = 0
        self.rx_msgs = 0

        node.register_handler(RDMA_PROTOCOL, self._on_message)
        node.port.contention_factor = self._tx_contention_factor

    # ------------------------------------------------------------------
    # Control path (generators: they take simulated firmware-command time)
    # ------------------------------------------------------------------

    def alloc_pd(self):
        yield self.sim.timeout(self.config.rnic.alloc_pd_s)
        return PD(nic_name=self.name)

    def reg_mr(self, pd: PD, space: AddressSpace, addr: int, length: int, access: AccessFlags,
               on_chip: bool = False):
        """Register a memory region; cost scales with pinned pages."""
        space.find_range(addr, length)  # must be mapped memory
        npages = (length + 4095) // 4096
        cfg = self.config.rnic
        yield from self._control_cmd(cfg.reg_mr_base_s + npages * cfg.reg_mr_per_page_s)
        mr = MR(
            pd=pd,
            space=space,
            addr=addr,
            length=length,
            access=access,
            lkey=self._keys.allocate(),
            rkey=self._keys.allocate(),
            on_chip=on_chip,
        )
        self.mrs_by_lkey[mr.lkey] = mr
        self.mrs_by_rkey[mr.rkey] = mr
        return mr

    def dereg_mr(self, mr: MR):
        yield self.sim.timeout(self.config.rnic.dereg_mr_s)
        mr.invalidated = True
        self.mrs_by_lkey.pop(mr.lkey, None)
        self.mrs_by_rkey.pop(mr.rkey, None)

    def create_cq(self, depth: int, channel: Optional[CompletionChannel] = None):
        yield from self._control_cmd(self.config.rnic.create_cq_s)
        return CQ(self.sim, depth, channel)

    def create_comp_channel(self):
        yield self.sim.timeout(self.config.rnic.create_comp_channel_s)
        return CompletionChannel(self.sim)

    def create_srq(self, pd: PD, max_wr: int):
        yield from self._control_cmd(self.config.rnic.create_srq_s)
        srq = SRQ(pd, max_wr)
        self.srqs[srq.handle] = srq
        return srq

    def create_qp(self, pd: PD, qp_type: QPType, send_cq: CQ, recv_cq: CQ,
                  max_send_wr: int, max_recv_wr: int, srq: Optional[SRQ] = None,
                  max_rd_atomic: int = 16, max_inline_data: int = 220,
                  tenant: Optional[str] = None):
        if len(self.qps) >= self.config.rnic.max_qps:
            raise ResourceError(f"{self.name}: QP limit {self.config.rnic.max_qps} reached")
        if self.qos is not None:
            # Tenant quota denial is synchronous, like the device-wide cap:
            # no firmware time is spent on a doomed QP.
            self.qos.acquire_qp(tenant)
        yield from self._control_cmd(self.config.rnic.create_qp_s)
        qpn = self._allocate_qpn()
        qp = QP(qpn, qp_type, pd, send_cq, recv_cq, max_send_wr, max_recv_wr, srq=srq,
                max_rd_atomic=max_rd_atomic, max_inline_data=max_inline_data,
                tenant=tenant)
        self.qps[qpn] = qp
        self._kicks[qpn] = Queue(self.sim)
        self._engines[qpn] = self.sim.spawn(self._engine(qp), name=f"{self.name}:qp{qpn:#x}")
        return qp

    def _allocate_qpn(self) -> int:
        while True:
            qpn = next(self._qpn_iter) % QPN_SPACE
            if qpn not in self.qps and qpn != 0:
                return qpn

    def _control_cmd(self, duration: float):
        """Execute one firmware command, marking the NIC control-busy."""
        self._control_busy_until = max(self._control_busy_until, self.sim.now + duration)
        yield self.sim.timeout(duration)

    @property
    def control_busy(self) -> bool:
        return self.sim.now < self._control_busy_until

    def _tx_contention_factor(self) -> float:
        """Egress slowdown while firmware commands execute (Kong et al.)."""
        if self.sim.now >= self._control_busy_until:
            return 1.0
        return 1.0 + self.config.rnic.control_contention_tx_frac

    def modify_qp(self, qp: QP, new_state: QPState,
                  remote_node: Optional[str] = None, remote_qpn: Optional[int] = None):
        """One state-machine transition (one firmware command)."""
        yield from self._control_cmd(self.config.rnic.modify_qp_s)
        if new_state is QPState.RTR and qp.qp_type is QPType.RC:
            if remote_node is None or remote_qpn is None:
                raise QPStateError("RC RTR transition requires the remote node and QPN")
            qp.remote_node = remote_node
            qp.remote_qpn = remote_qpn
        qp.transition(new_state)

    def destroy_qp(self, qp: QP):
        yield from self._control_cmd(self.config.rnic.destroy_qp_s)
        if self.qos is not None and not qp.destroyed:
            self.qos.release_qp(qp.tenant)
        qp.destroyed = True
        engine = self._engines.pop(qp.qpn, None)
        if engine is not None:
            engine.interrupt("destroy_qp")
        self._kicks.pop(qp.qpn, None)
        self.qps.pop(qp.qpn, None)
        for entry in qp.rto_entries.values():
            self.sim.cancel(entry)
        qp.rto_entries.clear()

    def alloc_mw(self, pd: PD):
        yield self.sim.timeout(self.config.rnic.alloc_mw_s)
        return MemoryWindow(pd, next(self._mw_handles))

    def alloc_dm(self, length: int):
        cfg = self.config.rnic
        if self.dm_allocated + length > cfg.device_memory_bytes:
            raise ResourceError(
                f"{self.name}: device memory exhausted "
                f"({self.dm_allocated}+{length} > {cfg.device_memory_bytes})"
            )
        yield self.sim.timeout(cfg.alloc_dm_s)
        self.dm_allocated += length
        return DeviceMemory(next(self._dm_handles), length)

    def free_dm(self, dm: DeviceMemory):
        yield self.sim.timeout(self.config.rnic.alloc_dm_s / 2)
        if not dm.freed:
            dm.freed = True
            self.dm_allocated -= dm.length

    # ------------------------------------------------------------------
    # Data path: posting (synchronous, like real verbs)
    # ------------------------------------------------------------------

    def post_send(self, qp: QP, wr: SendWR) -> None:
        if qp.qpn not in self.qps:
            raise QPStateError(f"QP {qp.qpn:#x} does not belong to {self.name}")
        qp.enqueue_send(wr)
        wr._pays_doorbell = True
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant(tracer.lane(self.node.name, "rnic"), "doorbell",
                           {"qpn": qp.qpn, "wrs": 1})
        self._kicks[qp.qpn].put(True)

    def post_send_wrs(self, qp: QP, wrs) -> None:
        """Post a chain of WRs with one doorbell (ibverbs WR-list semantics).

        Ordering, SSN assignment, and completions are identical to posting
        the WRs one at a time; only the doorbell cost is charged once for
        the whole chain and the engine is woken once.  Mirrors
        ``ibv_post_send``: if enqueueing fails partway, the WRs accepted so
        far are still submitted and the error propagates.
        """
        if qp.qpn not in self.qps:
            raise QPStateError(f"QP {qp.qpn:#x} does not belong to {self.name}")
        posted = 0
        try:
            for wr in wrs:
                qp.enqueue_send(wr)
                wr._pays_doorbell = posted == 0
                posted += 1
        finally:
            if posted:
                tracer = self.sim.tracer
                if tracer is not None:
                    tracer.instant(tracer.lane(self.node.name, "rnic"), "doorbell",
                                   {"qpn": qp.qpn, "wrs": posted})
                self._kicks[qp.qpn].put(True)

    def post_recv(self, qp: QP, wr: RecvWR) -> None:
        qp.enqueue_recv(wr)

    def post_srq_recv(self, srq: SRQ, wr: RecvWR) -> None:
        srq.post(wr)

    # ------------------------------------------------------------------
    # Engine: per-QP send-queue processing
    # ------------------------------------------------------------------

    def _engine(self, qp: QP):
        kick = self._kicks[qp.qpn]
        cfg = self.config.rnic
        doorbell_s = cfg.doorbell_s
        per_wqe_s = cfg.per_wqe_processing_s
        try:
            while True:
                if not qp.sq_pending:
                    yield kick.get()
                    continue
                # Any queued kick tokens are redundant now — we keep draining
                # sq_pending until it is empty regardless.  Dropping them
                # avoids a wasted wakeup event per already-consumed WR.
                kick.clear()
                wr = qp.sq_pending.popleft()
                tracer = self.sim.tracer
                span = None
                if tracer is not None and tracer.enabled:
                    span = tracer.begin_span(
                        tracer.lane(self.node.name, f"qp{qp.qpn:#x}"),
                        wr.opcode.name, {"bytes": wr.total_length})
                if wr._pays_doorbell:
                    yield self.sim.timeout(doorbell_s + per_wqe_s)
                else:
                    yield self.sim.timeout(per_wqe_s)
                if qp.state is not QPState.RTS:
                    self._complete_send(qp, wr, qp.next_ssn(), WCStatus.WR_FLUSH_ERR, force=True)
                    if span is not None:
                        span.end(status="flush")
                    continue
                if wr.opcode is Opcode.BIND_MW:
                    self._execute_bind_mw(qp, wr)
                    if span is not None:
                        span.end()
                    continue
                yield from self._transmit(qp, wr)
                if span is not None:
                    span.end()
        except Interrupt:
            return

    def _execute_bind_mw(self, qp: QP, wr: SendWR) -> None:
        """BIND_MW executes locally on the NIC (no wire traffic)."""
        ssn = qp.next_ssn()
        qp.sq_inflight[ssn] = wr
        try:
            mw: MemoryWindow = wr.bind_mw
            old_rkey = mw.rkey
            mw.bind(wr.bind_mr, wr.remote_addr, wr.sges[0].length if wr.sges else wr.total_length,
                    wr.bind_access, self._keys.allocate())
            if old_rkey is not None:
                self.mws_by_rkey.pop(old_rkey, None)
            self.mws_by_rkey[mw.rkey] = mw
        except AccessError:
            qp.sq_inflight.pop(ssn, None)
            self._complete_send(qp, wr, ssn, WCStatus.LOC_PROT_ERR, force=True)
            qp.force_error()
            return
        self._ack_progress(qp, ssn, WCStatus.SUCCESS)

    def _gather(self, qp: QP, wr: SendWR) -> Payload:
        """DMA the WR's payload out of local memory, enforcing lkeys.

        The payload is fixed here: a single-SGE gather of whole pages is a
        run of the page images themselves (no byte copied), anything else
        is ``bytes``.  READ and ATOMIC requests carry no payload.  Inline
        WRs carry theirs captured at post time — no lkey check, and immune
        to the application reusing the buffer."""
        if wr.opcode is Opcode.RDMA_READ or wr.opcode.is_atomic:
            return b""
        if wr.inline_data is not None:
            return wr.inline_data
        chunks = []
        for sge in wr.sges:
            mr = self.mrs_by_lkey.get(sge.lkey)
            if mr is None:
                raise AccessError(f"unknown lkey {sge.lkey:#x}")
            if mr.pd.handle != qp.pd.handle:
                raise AccessError("SGE MR belongs to a different PD")
            mr.check_local(sge.addr, sge.length, write=False)
            chunks.append(mr.space.read(sge.addr, sge.length, as_run=True))
        if len(chunks) == 1:
            return chunks[0]
        return b"".join(map(bytes, chunks))

    def _wire_size(self, payload_bytes: int) -> int:
        """Payload plus per-MTU header overhead."""
        mtu = self.config.link.mtu
        npackets = (payload_bytes + mtu - 1) // mtu or 1
        return payload_bytes + npackets * REQUEST_HEADER_BYTES

    def _transmit(self, qp: QP, wr: SendWR):
        ssn = qp.next_ssn()
        try:
            if wr.opcode is Opcode.RDMA_READ or wr.opcode.is_atomic:
                self._gather_check_only(qp, wr)  # validate the landing buffer's lkey
            data = self._gather(qp, wr)
        except AccessError:
            self._complete_send(qp, wr, ssn, WCStatus.LOC_PROT_ERR, force=True)
            qp.force_error()
            self._flush_sq(qp)
            return

        if self.qos is not None and qp.tenant is not None:
            # Token-bucket shaping: charge the wire footprint this WR will
            # occupy on the line.  READs are charged their response size
            # (the request is header-only but the data still flows),
            # atomics their 8-byte operand.  Retransmissions are not
            # re-charged — the tenant already paid for the first attempt.
            if wr.opcode is Opcode.RDMA_READ:
                shaped_bytes = self._wire_size(wr.total_length)
            else:
                shaped_bytes = self._wire_size(wr.wire_payload_bytes)
            delay = self.qos.reserve(qp.tenant, shaped_bytes, self.sim.now)
            if delay > 0.0:
                yield self.sim.timeout(delay)
                if qp.destroyed or qp.state is not QPState.RTS:
                    self._complete_send(qp, wr, ssn, WCStatus.WR_FLUSH_ERR, force=True)
                    return

        if wr.opcode is Opcode.RDMA_READ or wr.opcode.is_atomic:
            # IB initiator-depth limit: at most max_rd_atomic outstanding
            # READ/ATOMIC requests; the send queue stalls otherwise.
            while qp.outstanding_rd_atomic >= qp.max_rd_atomic:
                waiter = self.sim.event()
                qp._rd_slot_waiter = waiter
                yield waiter
                if qp.destroyed or qp.state is not QPState.RTS:
                    self._complete_send(qp, wr, ssn, WCStatus.WR_FLUSH_ERR, force=True)
                    return
            qp.outstanding_rd_atomic += 1
        qp.sq_inflight[ssn] = wr
        if qp.qp_type is QPType.UD:
            yield from self._transmit_ud(qp, wr, ssn, data)
        else:
            yield from self._transmit_rc(qp, wr, ssn, data)

    def _gather_check_only(self, qp: QP, wr: SendWR) -> None:
        for sge in wr.sges:
            mr = self.mrs_by_lkey.get(sge.lkey)
            if mr is None:
                raise AccessError(f"unknown lkey {sge.lkey:#x}")
            if mr.pd.handle != qp.pd.handle:
                raise AccessError("SGE MR belongs to a different PD")
            mr.check_local(sge.addr, sge.length, write=True)

    def _transmit_ud(self, qp: QP, wr: SendWR, ssn: int, data: Payload):
        if not wr.opcode.is_two_sided:
            raise QPStateError("UD QPs only support SEND operations")
        if wr.remote_node is None or wr.remote_qpn is None:
            raise QPStateError("UD SEND requires remote_node and remote_qpn in the WR")
        payload = {
            "kind": "req", "opcode": wr.opcode.value, "src_qpn": qp.qpn,
            "dst_qpn": wr.remote_qpn, "ssn": ssn, "data": data,
            "imm": wr.imm_data, "ud": True,
        }
        size = self._wire_size(len(data))
        done = self.node.port.transmit(size)
        yield done
        self.tx_bytes += size
        self.tx_msgs += 1
        self.node.network.transmit_raw(self.node.name, wr.remote_node, size, RDMA_PROTOCOL, payload)
        # UD completes once the datagram is on the wire.
        yield self.sim.timeout(self.config.rnic.completion_delivery_s)
        self._ack_progress(qp, ssn, WCStatus.SUCCESS)

    def _transmit_rc(self, qp: QP, wr: SendWR, ssn: int, data: Payload):
        """Put one RC request on the wire (first transmission and every
        retransmission) and arm its retransmission timer."""
        payload = self._request_payload(qp, wr, ssn, data)
        size = self._wire_size(len(data) or wr.wire_payload_bytes)
        node = self.node
        yield node.port.transmit(size)
        self.tx_bytes += size
        self.tx_msgs += 1
        node.network.transmit_raw(node.name, qp.remote_node, size, RDMA_PROTOCOL, payload)
        self._arm_retransmit(qp, ssn)

    def _request_payload(self, qp: QP, wr: SendWR, ssn: int, data: Payload) -> dict:
        return {
            # _value_ is .value without the descriptor call
            "kind": "req", "opcode": wr.opcode._value_, "src_node": self.node.name,
            "src_qpn": qp.qpn, "dst_qpn": qp.remote_qpn, "ssn": ssn, "data": data,
            "imm": wr.imm_data, "remote_addr": wr.remote_addr, "rkey": wr.rkey,
            "compare_add": wr.compare_add, "swap": wr.swap, "length": wr.total_length,
        }

    # -- retransmission (go-back-N) ------------------------------------------

    def _arm_retransmit(self, qp: QP, ssn: int) -> None:
        # One live ack-timer per request, like hardware: re-arming (each
        # go-back-N resend) cancels the previous timer's heap entry, and the
        # ACK path cancels it outright — so healthy high-QP runs never pay a
        # heap dispatch for a timer whose request already completed.
        entries = qp.rto_entries
        old = entries.get(ssn)
        if old is not None:
            self.sim.cancel(old)
        entries[ssn] = self.sim.schedule(self._rto(qp), self._rto_expired, qp, ssn)

    def _cancel_retransmit(self, qp: QP, ssn: int) -> None:
        entry = qp.rto_entries.pop(ssn, None)
        if entry is not None:
            self.sim.cancel(entry)

    def _rto(self, qp: QP) -> float:
        base = 4 * self.config.link.propagation_delay_s + 500e-6
        return base

    def _rto_expired(self, qp: QP, ssn: int) -> None:
        qp.rto_entries.pop(ssn, None)
        if ssn not in qp.sq_inflight or qp.destroyed or qp.state is QPState.ERR:
            return
        retries = qp.retry_counts.get(ssn, 0) + 1
        if retries > MAX_RETRIES:
            self._fail_connection(qp, ssn, WCStatus.RETRY_EXC_ERR)
            return
        qp.retry_counts[ssn] = retries
        self.sim.spawn(self._retransmit(qp, ssn), name=f"{self.name}:rexmit:{qp.qpn:#x}:{ssn}")

    def _retransmit(self, qp: QP, from_ssn: int):
        """Go-back-N: resend every inflight WR with ssn >= from_ssn."""
        for ssn in sorted(s for s in qp.sq_inflight if s >= from_ssn):
            wr = qp.sq_inflight.get(ssn)
            # destroy_qp cancels the RTO timers but not a pending RNR retry
            if wr is None or qp.destroyed or qp.state is QPState.ERR:
                return
            try:
                data = self._gather(qp, wr)  # re-gathered: memory may have moved on
            except AccessError:
                self._fail_connection(qp, ssn, WCStatus.LOC_PROT_ERR)
                return
            yield from self._transmit_rc(qp, wr, ssn, data)

    def _fail_connection(self, qp: QP, ssn: int, status: WCStatus) -> None:
        wr = qp.sq_inflight.pop(ssn, None)
        if wr is not None:
            self._complete_send(qp, wr, ssn, status, force=True)
        qp.force_error()
        self._flush_sq(qp)

    def _flush_sq(self, qp: QP) -> None:
        """Flush pending+inflight WRs with WR_FLUSH_ERR after an error."""
        qp._acked.clear()
        while qp.sq_pending:
            wr = qp.sq_pending.popleft()
            self._complete_send(qp, wr, qp.next_ssn(), WCStatus.WR_FLUSH_ERR, force=True)
        for ssn in sorted(qp.sq_inflight):
            wr = qp.sq_inflight.pop(ssn)
            self._cancel_retransmit(qp, ssn)
            self._complete_send(qp, wr, ssn, WCStatus.WR_FLUSH_ERR, force=True)
        for entry in qp.rto_entries.values():
            self.sim.cancel(entry)
        qp.rto_entries.clear()
        qp.retry_counts.clear()
        qp.rnr_retries.clear()

    # ------------------------------------------------------------------
    # Ingress
    # ------------------------------------------------------------------

    def _on_message(self, message: Message) -> None:
        payload = message.payload
        kind = payload["kind"]
        if kind == "req":
            if self._rx_backlog == 0 and self.sim.now >= self._control_busy_until:
                # Idle, uncontended pipeline: execute in place.
                self.rx_bytes += message.size_bytes
                self.rx_msgs += 1
                self._handle_request(message.src, payload)
                return
            # Counted when the (possibly contended) rx pipeline delivers it.
            self._rx_backlog += 1
            self._rx_queue.put((message.src, message.size_bytes, payload))
            return
        self.rx_bytes += message.size_bytes
        self.rx_msgs += 1
        if kind == "ack":
            self._handle_ack(payload)
        elif kind == "resp":
            self._handle_response(payload)
        elif kind == "nak":
            self._handle_nak(payload)
        else:
            raise ValueError(f"{self.name}: unknown RDMA message kind {kind!r}")

    def _rx_worker(self):
        """Serially execute incoming requests.

        Normally the pipeline keeps up with the wire; while the NIC is
        control-busy its processing units are shared, so each request pays
        ``(1 + rx_frac)`` of its wire time — a sub-line-rate stretch that
        produces the slight brownout dips of Figure 5 (Kong et al.).
        """
        while True:
            src_node, size_bytes, payload = yield self._rx_queue.get()
            if self.control_busy:
                frac = self.config.rnic.control_contention_rx_frac
                yield self.sim.timeout(
                    (1.0 + frac) * size_bytes * 8.0 / self.node.port.rate_bps)
            self.rx_bytes += size_bytes
            self.rx_msgs += 1
            self._handle_request(src_node, payload)
            self._rx_backlog -= 1

    # -- responder -------------------------------------------------------------

    def _handle_request(self, src_node: str, payload: dict) -> None:
        qp = self.qps.get(payload["dst_qpn"])
        if qp is None or qp.destroyed or not qp.state.can_receive():
            return  # silently dropped, requester will time out
        if payload.get("ud"):
            self._execute_recv_delivery(qp, payload, ud=True)
            return
        if qp.qp_type is QPType.RC and (
            qp.remote_node != src_node or qp.remote_qpn != payload["src_qpn"]
        ):
            return  # stray packet for a different connection epoch

        conn_key = (src_node, payload["src_qpn"])
        conn = self._conn_state.get(conn_key)
        if conn is None:
            conn = self._conn_state[conn_key] = _ConnState()
        ssn = payload["ssn"]
        if ssn < conn.expected_ssn:
            reply = conn.replies.get(ssn)
            if reply is not None:
                self._reply(src_node, reply)  # duplicate: re-ack
            return
        if ssn > conn.expected_ssn:
            self._reply(src_node, {
                "kind": "nak", "reason": "seq", "dst_qpn": payload["src_qpn"],
                "ssn": conn.expected_ssn, "_size": ACK_BYTES,
            })
            return
        reply = self._execute_request(qp, src_node, payload)
        if reply is None:
            return  # RNR: do not advance, requester retries
        conn.expected_ssn += 1
        conn.replies[ssn] = reply
        if len(conn.replies) > 256:
            for old in sorted(conn.replies)[:-128]:
                del conn.replies[old]
        self._reply(src_node, reply)

    def _reply(self, dst: str, reply: dict) -> None:
        size = reply.pop("_size", ACK_BYTES)
        self.node.port.transmit_deferred(size, self._reply_sent, dst, size, reply)

    def _reply_sent(self, dst: str, size: int, reply: dict) -> None:
        """The reply left the wire: book it and hand it to the switch."""
        self.tx_bytes += size
        self.tx_msgs += 1
        node = self.node
        node.network.transmit_raw(node.name, dst, size, RDMA_PROTOCOL, reply)

    def _execute_request(self, qp: QP, src_node: str, payload: dict) -> Optional[dict]:
        """Execute a validated in-order request; return the reply payload."""
        try:
            opcode = OPCODE_BY_VALUE[payload["opcode"]]
        except KeyError:
            opcode = Opcode(payload["opcode"])  # raises ValueError naming it
        ssn = payload["ssn"]
        ack = {"kind": "ack", "dst_qpn": payload["src_qpn"], "ssn": ssn}
        if opcode.is_two_sided:
            if not self._execute_recv_delivery(qp, payload, ud=False):
                self._reply(src_node, {"kind": "nak", "reason": "rnr",
                                       "dst_qpn": payload["src_qpn"], "ssn": ssn})
                return None
            return ack
        if opcode in (Opcode.RDMA_WRITE, Opcode.RDMA_WRITE_WITH_IMM):
            if not self._execute_write(qp, payload, opcode):
                return self._nak_access(payload)
            if opcode is Opcode.RDMA_WRITE_WITH_IMM:
                recv_wr = qp.consume_recv()
                if recv_wr is None:
                    self._reply(src_node, {"kind": "nak", "reason": "rnr",
                                           "dst_qpn": payload["src_qpn"], "ssn": ssn})
                    return None
                self._push_recv_cqe(qp, recv_wr, WCStatus.SUCCESS,
                                    len(payload["data"]), payload.get("imm"))
            return ack
        if opcode is Opcode.RDMA_READ:
            data = self._execute_read(qp, payload)
            if data is None:
                return self._nak_access(payload)
            return {"kind": "resp", "dst_qpn": payload["src_qpn"], "ssn": ssn,
                    "data": data, "_size": self._wire_size(len(data))}
        if opcode.is_atomic:
            orig = self._execute_atomic(qp, payload, opcode)
            if orig is None:
                return self._nak_access(payload)
            return {"kind": "resp", "dst_qpn": payload["src_qpn"], "ssn": ssn,
                    "data": orig, "_size": self._wire_size(ATOMIC_OPERAND_BYTES)}
        raise ValueError(f"responder cannot execute opcode {opcode}")

    def _nak_access(self, payload: dict) -> dict:
        return {"kind": "nak", "reason": "access", "dst_qpn": payload["src_qpn"],
                "ssn": payload["ssn"]}

    def _lookup_remote(self, rkey: int, addr: int, length: int, op: str):
        """Resolve an rkey to (MR, space) honoring memory windows."""
        mw = self.mws_by_rkey.get(rkey)
        if mw is not None:
            mw.check_remote(addr, length, op)
            return mw.mr
        mr = self.mrs_by_rkey.get(rkey)
        if mr is None:
            raise AccessError(f"unknown rkey {rkey:#x}")
        mr.check_remote(addr, length, op)
        return mr

    def _execute_recv_delivery(self, qp: QP, payload: dict, ud: bool) -> bool:
        """Consume a RECV WR for a SEND; False => RNR (no posted RECV)."""
        data = payload["data"]
        if not ud and self.chaos is not None and self.chaos.rnr_suppressed(self.sim.now):
            # Injected RNR storm: pretend no RECV is posted so the RC
            # requester exercises its RNR NAK + retry path.  UD has no
            # retry machinery, so storms never touch it.
            return False
        recv_wr = qp.consume_recv()
        if recv_wr is None:
            return False
        # Scatter the SEND payload into the receive buffers.
        if len(data) > recv_wr.total_length:
            self._push_recv_cqe(qp, recv_wr, WCStatus.LOC_LEN_ERR, 0, payload.get("imm"))
            return True
        remaining = data
        for sge in recv_wr.sges:
            if not remaining:
                break
            chunk, remaining = remaining[:sge.length], remaining[sge.length:]
            mr = self.mrs_by_lkey.get(sge.lkey)
            if mr is None:
                self._push_recv_cqe(qp, recv_wr, WCStatus.LOC_PROT_ERR, 0, payload.get("imm"))
                return True
            try:
                mr.check_local(sge.addr, len(chunk), write=True)
            except AccessError:
                self._push_recv_cqe(qp, recv_wr, WCStatus.LOC_PROT_ERR, 0, payload.get("imm"))
                return True
            mr.space.write(sge.addr, chunk)
        self._push_recv_cqe(qp, recv_wr, WCStatus.SUCCESS, len(data), payload.get("imm"))
        return True

    def _push_recv_cqe(self, qp: QP, recv_wr: RecvWR, status: WCStatus, byte_len: int,
                       imm: Optional[int]) -> None:
        qp.n_recv_completed += 1
        self._deliver_wc(qp.recv_cq, WorkCompletion(
            wr_id=recv_wr.wr_id, status=status, opcode=Opcode.RECV,
            qp_num=qp.qpn, byte_len=byte_len, imm_data=imm,
        ))

    def _deliver_wc(self, cq: CQ, wc: WorkCompletion) -> None:
        """Deliver a CQE after completion_delivery_s, batching back-to-back
        completions raised at the same simulated time into one event."""
        batch = self._wc_batch
        if batch is not None and self._wc_batch_time == self.sim.now:
            batch.append((cq, wc))
            return
        batch = [(cq, wc)]
        self._wc_batch = batch
        self._wc_batch_time = self.sim.now
        delay = self.config.rnic.completion_delivery_s
        if self.chaos is not None:
            delay = self.chaos.completion_delay(self.sim.now, delay)
        self.sim.schedule(delay, self._flush_wc_batch, batch)

    def _flush_wc_batch(self, batch: list) -> None:
        if batch is self._wc_batch:
            self._wc_batch = None
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant(tracer.lane(self.node.name, "rnic"), "cqe-delivery",
                           {"n": len(batch)})
        for cq, wc in batch:
            cq.push(wc)

    def _execute_write(self, qp: QP, payload: dict, opcode: Opcode) -> bool:
        data = payload["data"]
        try:
            mr = self._lookup_remote(payload["rkey"], payload["remote_addr"], len(data), "write")
        except AccessError:
            return False
        mr.space.write(payload["remote_addr"], data)
        return True

    def _execute_read(self, qp: QP, payload: dict) -> Optional[Payload]:
        length = payload["length"]
        try:
            mr = self._lookup_remote(payload["rkey"], payload["remote_addr"], length, "read")
        except AccessError:
            return None
        return mr.space.read(payload["remote_addr"], length, as_run=True)

    def _execute_atomic(self, qp: QP, payload: dict, opcode: Opcode) -> Optional[bytes]:
        addr = payload["remote_addr"]
        if addr % ATOMIC_OPERAND_BYTES != 0:
            return None
        try:
            mr = self._lookup_remote(payload["rkey"], addr, ATOMIC_OPERAND_BYTES, "atomic")
        except AccessError:
            return None
        orig = mr.space.read(addr, ATOMIC_OPERAND_BYTES)
        value = int.from_bytes(orig, "little")
        if opcode is Opcode.ATOMIC_FETCH_AND_ADD:
            new = (value + payload["compare_add"]) % (1 << 64)
        else:  # compare and swap
            new = payload["swap"] if value == payload["compare_add"] else value
        mr.space.write(addr, new.to_bytes(ATOMIC_OPERAND_BYTES, "little"))
        return orig

    # -- requester-side completion ------------------------------------------------

    def _handle_ack(self, payload: dict) -> None:
        qp = self.qps.get(payload["dst_qpn"])
        if qp is None:
            return
        self._ack_progress(qp, payload["ssn"], WCStatus.SUCCESS)

    def _handle_response(self, payload: dict) -> None:
        qp = self.qps.get(payload["dst_qpn"])
        if qp is None:
            return
        ssn = payload["ssn"]
        wr = qp.sq_inflight.get(ssn)
        if wr is None:
            return  # duplicate response
        data = payload["data"]
        # Scatter the READ/ATOMIC result into the landing buffers.
        remaining = data
        status = WCStatus.SUCCESS
        for sge in wr.sges:
            if not remaining:
                break
            chunk, remaining = remaining[:sge.length], remaining[sge.length:]
            mr = self.mrs_by_lkey.get(sge.lkey)
            if mr is None:
                status = WCStatus.LOC_PROT_ERR
                break
            try:
                mr.check_local(sge.addr, len(chunk), write=True)
            except AccessError:
                status = WCStatus.LOC_PROT_ERR
                break
            mr.space.write(sge.addr, chunk)
        self._ack_progress(qp, ssn, status, byte_len=len(data))

    def _handle_nak(self, payload: dict) -> None:
        qp = self.qps.get(payload["dst_qpn"])
        if qp is None:
            return
        reason = payload["reason"]
        ssn = payload["ssn"]
        if reason == "access":
            self._fail_connection(qp, ssn, WCStatus.REM_ACCESS_ERR)
        elif reason == "rnr":
            # The NAK proves the connection is alive: reset the transport
            # retry counters of everything inflight so the RTO path does not
            # exhaust while the responder backs us off.
            self._reset_transport_retries(qp)
            retries = qp.rnr_retries.get(ssn, 0) + 1
            if RNR_RETRY != 7 and retries > RNR_RETRY:
                self._fail_connection(qp, ssn, WCStatus.RNR_RETRY_EXC_ERR)
                return
            qp.rnr_retries[ssn] = retries
            self.sim.schedule(
                RNR_TIMER_S,
                lambda: self.sim.spawn(self._retransmit(qp, ssn)),
            )
        elif reason == "seq":
            self._reset_transport_retries(qp)
            if any(s >= ssn for s in qp.sq_inflight):
                self.sim.spawn(self._retransmit(qp, ssn))
        else:
            raise ValueError(f"unknown NAK reason {reason!r}")

    def _reset_transport_retries(self, qp: QP) -> None:
        qp.retry_counts.clear()

    def _ack_progress(self, qp: QP, ssn: int, status: WCStatus, byte_len: int = 0) -> None:
        """Record an acknowledgement; complete WRs strictly in SSN order."""
        wr = qp.sq_inflight.get(ssn)
        if wr is None:
            return
        acked = qp._acked
        acked[ssn] = (wr, status, byte_len)
        next_ssn = qp.sq_completed
        while next_ssn in acked:
            wr, st, blen = acked.pop(next_ssn)
            qp.sq_inflight.pop(next_ssn, None)
            if qp.retry_counts:
                qp.retry_counts.pop(next_ssn, None)
            if qp.rnr_retries:
                qp.rnr_retries.pop(next_ssn, None)
            self._cancel_retransmit(qp, next_ssn)
            self._complete_send(qp, wr, next_ssn, st, byte_len=blen)
            next_ssn = qp.sq_completed

    def _release_rd_slot(self, qp: QP) -> None:
        """A READ/ATOMIC completed: free its initiator-depth slot."""
        qp.outstanding_rd_atomic = max(0, qp.outstanding_rd_atomic - 1)
        waiter = qp._rd_slot_waiter
        if waiter is not None and not waiter.triggered:
            waiter.succeed()
            qp._rd_slot_waiter = None

    def _complete_send(self, qp: QP, wr: SendWR, ssn: int, status: WCStatus,
                       byte_len: int = 0, force: bool = False) -> None:
        if wr.opcode.needs_response_payload:  # READ or ATOMIC
            self._release_rd_slot(qp)
        qp.sq_completed += 1
        if status is not WCStatus.SUCCESS and status is not WCStatus.WR_FLUSH_ERR:
            qp.force_error()
        if wr.signaled or status is not WCStatus.SUCCESS or force:
            if not byte_len and wr.opcode is not Opcode.RDMA_READ and not wr.opcode.is_atomic:
                byte_len = wr.total_length
            self._deliver_wc(qp.send_cq, WorkCompletion(
                wr_id=wr.wr_id, status=status, opcode=wr.opcode,
                qp_num=qp.qpn, byte_len=byte_len, imm_data=wr.imm_data,
            ))
