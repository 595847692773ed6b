"""The RNIC: control-path resource management and the RC/UD data engines.

Data path model
---------------
Each QP's send engine drains its send queue.  A work request is validated
(lkey checks), gathered from local memory, and transmitted through the
node's egress port — which meters everything at line rate and arbitrates
between QPs.  The engine and the responder's rx pipeline are callback
state machines: every wait (WQE fetch, QoS shaping, the ``max_rd_atomic``
stall, wire-done, UD completion) is one schedule entry carrying the WR,
and a parked engine holds nothing but a flag (DESIGN.md §12.10).  RC
requests carry a per-QP send sequence number (SSN); the responder
executes strictly in SSN order, acknowledges, and the requester completes
WRs in order.  Loss is handled go-back-N: a NAK or a retransmission
timeout resends everything still inflight.  UD SENDs are fire-and-forget.

Remote operations (SEND into a RECV buffer, RDMA WRITE/READ, ATOMIC,
WRITE_WITH_IMM) move real bytes between address spaces and enforce
rkey/memory-window authorization, so data corruption, loss or duplication
introduced by a buggy migration layer *will* be observed by the
correctness checks.
"""

from __future__ import annotations

import itertools
import zlib
from collections import deque
from typing import Deque, Dict, Optional, Tuple

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
from repro.sim import Simulator

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

#: Retransmission policy.  RNR retry is infinite (IB ``rnr_retry = 7``) —
#: the common configuration, and what lets MigrRDMA's replay tolerate the
#: receiver's RECV replay arriving after the sender's SEND replay.
MAX_RETRIES = 8
RNR_TIMER_S = 100e-6


class _ConnState:
    """Responder-side per-connection state (keyed by src node+QPN).

    Executed ssns are contiguous, so duplicates are answered for the
    window ``[first_ssn, expected_ssn)``.  As on an IB responder, a plain
    ACK is rebuilt from its ssn; only READ/atomic responses and access
    NAKs are kept.
    """

    __slots__ = ("expected_ssn", "first_ssn", "kept", "nak_sent")

    def __init__(self):
        self.expected_ssn = 0
        self.first_ssn = 0  # oldest ssn a duplicate is still answered for
        self.kept: Dict[int, dict] = {}  # ssn -> non-ACK reply in the window
        self.nak_sent = False  # NAKed expected_ssn: drop later ssns silently


def _engine_stopped() -> None:
    """The stopped engine's own completion: it wakes nobody."""


#: ``span`` of a go-back-N resend's wire-done (``RNIC._rc_sent``)
_RESEND = object()


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

        self._conn_state: Dict[Tuple[str, int], _ConnState] = {}

        # Control-path activity window: while firmware commands execute,
        # data-path processing pays a contention penalty (Figure 5 brownout).
        self._control_busy_until = -1.0

        # Requests are executed by a serial rx pipeline so responder-side
        # contention delays are ordered per NIC.  _rx_backlog counts items
        # handed to the pipeline but not yet executed; while it is zero and
        # no contention applies, requests take a synchronous fast path
        # instead of a queue round-trip (order is trivially preserved).
        # _rx_idle: the pipeline waits on an empty _rx_items, so the next
        # request is served by its own entry instead of being queued.
        self._rx_items: Deque[tuple] = deque()
        self._rx_idle = False
        self._rx_backlog = 0
        sim.schedule(0.0, self._rx_next)

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
        self._rto_s = 4 * config.link.propagation_delay_s + 500e-6  # RC, no backoff
        # Armed at wire-done and cancelled by the ACK on nearly every WR:
        # a fixed-delay queue keeps the cancelled ones out of the heap.
        self._rto_timers = sim.fixed_delay(self._rto_s)

        node.register_handler(RDMA_PROTOCOL, self._on_message)

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
        self.sim.schedule(0.0, self._engine_next, qp)  # the engine starts
        return qp

    def _allocate_qpn(self) -> int:
        while True:
            qpn = next(self._qpn_iter) % QPN_SPACE
            if qpn not in self.qps and qpn != 0:
                return qpn

    def _control_cmd(self, duration: float):
        """Execute one firmware command, marking the NIC control-busy.
        Meanwhile egress serialization is stretched (Kong et al.): a stretch
        window on the node's port."""
        now = self.sim.now
        end = now + duration
        self._control_busy_until = max(self._control_busy_until, end)
        self.node.port.stretch(now, end, 1.0 + self.config.rnic.control_contention_tx_frac)
        yield self.sim.timeout(duration)

    @property
    def control_busy(self) -> bool:
        return self.sim.now < self._control_busy_until

    def modify_qp(self, qp: QP, new_state: QPState,
                  remote_node: Optional[str] = None, remote_qpn: Optional[int] = None):
        """One state-machine transition (one firmware command)."""
        yield from self._control_cmd(self.config.rnic.modify_qp_s)
        if new_state is QPState.RTR and qp.qp_type is QPType.RC:
            if remote_node is None or remote_qpn is None:
                raise QPStateError("RC RTR transition requires the remote node and QPN")
            if (qp.remote_node, qp.remote_qpn) != (remote_node, remote_qpn):
                self._drop_conn_state(qp)  # re-pointed: the old stream is over
            qp.remote_node = remote_node
            qp.remote_qpn = remote_qpn
        qp.transition(new_state)

    def destroy_qp(self, qp: QP):
        yield from self._control_cmd(self.config.rnic.destroy_qp_s)
        if self.qos is not None and not qp.destroyed:
            self.qos.release_qp(qp.tenant)
        qp.destroyed = True
        if self.qps.pop(qp.qpn, None) is qp:
            self.sim.schedule(0.0, self._engine_stop, qp)
        self._reset_rto(qp)
        self._drop_conn_state(qp)

    def _drop_conn_state(self, qp: QP) -> None:
        """Forget the responder state of ``qp``'s connection once the QP is
        destroyed or re-pointed at another requester.  No ssn stream
        outlives its connection: a migrated requester goes with its source
        QP, and QPNs are not reused (DESIGN.md §12.6)."""
        if qp.qp_type is QPType.RC:
            self._conn_state.pop((qp.remote_node, qp.remote_qpn), None)

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
        if qp.qp_type is QPType.UD:
            # Refused at post time, like ibv_post_send's EINVAL: the engine
            # never sees a WR it cannot put on the wire.
            if not wr.opcode.is_two_sided:
                raise QPStateError("UD QPs only support SEND operations")
            if wr.remote_node is None or wr.remote_qpn is None:
                raise QPStateError("UD SEND requires remote_node and remote_qpn in the WR")
        qp.enqueue_send(wr)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant(tracer.lane(self.node.name, "rnic"), "doorbell",
                           {"qpn": qp.qpn})
        if qp.doorbell:
            qp.doorbell = False
            self.sim.schedule(0.0, self._engine_next, qp)

    def post_recv(self, qp: QP, wr: RecvWR) -> None:
        qp.enqueue_recv(wr)

    def post_srq_recv(self, srq: SRQ, wr: RecvWR) -> None:
        srq.post(wr)

    # ------------------------------------------------------------------
    # Engine: per-QP send-queue processing
    # ------------------------------------------------------------------
    #
    # A callback state machine, one schedule entry per wait; the WR rides
    # in the entry's arguments.  qp.engine_entry is the pending timed step
    # (WQE fetch, QoS shaping, UD completion) that destroy_qp cancels; a
    # wire-done, rd-slot or doorbell entry already on its way fires into
    # the stopped engine and does nothing (DESIGN.md §12.10).

    def _engine_next(self, qp: QP) -> None:
        """Fetch the next WQE, or park on an empty send queue."""
        if not qp.engine_live:
            return
        if not qp.sq_pending:
            qp.doorbell = True
            return
        wr = qp.sq_pending.pop(0)
        tracer = self.sim.tracer
        span = None
        if tracer is not None and tracer.enabled:
            span = tracer.begin_span(
                tracer.lane(self.node.name, f"qp{qp.qpn:#x}"),
                wr.opcode.name, {"bytes": wr.total_length})
        cfg = self.config.rnic
        qp.engine_entry = self.sim.schedule(
            cfg.doorbell_s + cfg.per_wqe_processing_s, self._engine_wqe, qp, wr, span)

    def _engine_wqe(self, qp: QP, wr: SendWR, span) -> None:
        """The WQE is fetched and processed: execute it.  A WR that goes
        on the wire is gathered and issued; a later entry carries it on."""
        qp.engine_entry = None
        if qp.state is not QPState.RTS:
            self._complete_send(qp, wr, qp.next_ssn(), WCStatus.WR_FLUSH_ERR, force=True)
            if span is not None:
                span.end(status="flush")
        elif wr.opcode is Opcode.BIND_MW:
            self._execute_bind_mw(qp, wr)
            if span is not None:
                span.end()
        else:
            ssn = qp.next_ssn()
            try:
                if wr.opcode.needs_response_payload:
                    self._gather_check_only(qp, wr)  # the landing buffer's lkey
                data = self._gather(qp, wr)
            except AccessError:
                self._complete_send(qp, wr, ssn, WCStatus.LOC_PROT_ERR, force=True)
                qp.force_error()
                self._flush_sq(qp)
                if span is not None:
                    span.end()
            else:
                if self.qos is not None and qp.tenant is not None:
                    # Token-bucket shaping: charge the wire footprint this
                    # WR will occupy on the line.  READs are charged their
                    # response size (the request is header-only but the
                    # data still flows), atomics their 8-byte operand.
                    # Retransmissions are not re-charged — the tenant
                    # already paid for the first attempt.
                    if wr.opcode is Opcode.RDMA_READ:
                        shaped_bytes = self._wire_size(wr.total_length)
                    else:
                        shaped_bytes = self._wire_size(wr.wire_payload_bytes)
                    delay = self.qos.reserve(qp.tenant, shaped_bytes, self.sim.now)
                    if delay > 0.0:
                        qp.engine_entry = self.sim.schedule(
                            delay, self._engine_shaped, qp, wr, ssn, data, span)
                        return
                self._issue(qp, wr, ssn, data, span)
                return
        self._engine_next(qp)

    def _engine_stop(self, qp: QP) -> None:
        """destroy_qp's stop, delivered as the engine's next dispatch."""
        qp.engine_live = False
        qp.doorbell = False
        entry = qp.engine_entry
        if entry is not None:
            qp.engine_entry = None
            self.sim.cancel(entry)
        self.sim.schedule(0.0, _engine_stopped)

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
        if wr.opcode.needs_response_payload:
            return b""
        if wr.inline_data is not None:
            return wr.inline_data
        mrs = self.mrs_by_lkey
        first = rest = None
        for sge in wr.sges:
            try:
                mr = mrs[sge.lkey]
            except KeyError:
                raise AccessError(f"unknown lkey {sge.lkey:#x}") from None
            if mr.pd.handle != qp.pd.handle:
                raise AccessError("SGE MR belongs to a different PD")
            mr.check_local(sge.addr, sge.length, write=False)
            chunk = mr.space.read(sge.addr, sge.length, as_run=True)
            if first is None:
                first = chunk
            elif rest is None:
                rest = [first, chunk]
            else:
                rest.append(chunk)
        if rest is not None:
            return b"".join(map(bytes, rest))
        return b"" if first is None else first

    def _wire_size(self, payload_bytes: int) -> int:
        """Payload plus per-MTU header overhead."""
        mtu = self.config.link.mtu
        npackets = (payload_bytes + mtu - 1) // mtu or 1
        return payload_bytes + npackets * REQUEST_HEADER_BYTES

    def _engine_shaped(self, qp: QP, wr: SendWR, ssn: int, data: Payload, span) -> None:
        """The tenant's token bucket admitted the WR."""
        qp.engine_entry = None
        self._engine_resume(qp, wr, ssn, data, span)

    def _engine_rd_slot(self, qp: QP, wr: SendWR, ssn: int, data: Payload, span) -> None:
        """A READ/ATOMIC slot freed up while the WR stalled on it."""
        if qp.engine_live:
            self._engine_resume(qp, wr, ssn, data, span)

    def _engine_resume(self, qp: QP, wr: SendWR, ssn: int, data: Payload, span) -> None:
        """Carry a WR on after a wait, or flush it if its QP left RTS."""
        if not qp.destroyed and qp.state is QPState.RTS:
            self._issue(qp, wr, ssn, data, span)
            return
        self._complete_send(qp, wr, ssn, WCStatus.WR_FLUSH_ERR, force=True)
        if span is not None:
            span.end()
        self._engine_next(qp)

    def _issue(self, qp: QP, wr: SendWR, ssn: int, data: Payload, span) -> None:
        """Hand the WR to the port, or stall it on the initiator depth."""
        if wr.opcode.needs_response_payload:
            # IB initiator-depth limit: at most max_rd_atomic outstanding
            # READ/ATOMIC requests; the send queue stalls otherwise.
            if qp.outstanding_rd_atomic >= qp.max_rd_atomic:
                qp._rd_slot_waiter = (wr, ssn, data, span)
                return
            qp.outstanding_rd_atomic += 1
        qp.sq_inflight[ssn] = wr
        if qp.qp_type is QPType.UD:
            payload = {
                "kind": "req", "opcode": wr.opcode.value, "src_qpn": qp.qpn,
                "dst_qpn": wr.remote_qpn, "ssn": ssn, "data": data,
                "imm": wr.imm_data, "ud": True,
            }
            size = self._wire_size(len(data))
            self.node.port.transmit_deferred(
                size, self._engine_ud_sent, qp, wr, ssn, size, payload, span)
        else:
            size, payload = self._rc_request(qp, wr, ssn, data)
            self.node.port.transmit_deferred(
                size, self._rc_sent, qp, ssn, size, payload, span)

    def _gather_check_only(self, qp: QP, wr: SendWR) -> None:
        for sge in wr.sges:
            mr = self.mrs_by_lkey.get(sge.lkey)
            if mr is None:
                raise AccessError(f"unknown lkey {sge.lkey:#x}")
            if mr.pd.handle != qp.pd.handle:
                raise AccessError("SGE MR belongs to a different PD")
            mr.check_local(sge.addr, sge.length, write=True)

    def _engine_ud_sent(self, qp: QP, wr: SendWR, ssn: int, size: int, payload: dict,
                        span) -> None:
        """A UD datagram left the port; it completes once delivered."""
        if not qp.engine_live:
            return
        self.tx_bytes += size
        self.tx_msgs += 1
        self.node.network.transmit_raw(self.node.name, wr.remote_node, size, RDMA_PROTOCOL,
                                       payload)
        qp.engine_entry = self.sim.schedule(
            self.config.rnic.completion_delivery_s, self._engine_ud_done, qp, ssn, span)

    def _engine_ud_done(self, qp: QP, ssn: int, span) -> None:
        qp.engine_entry = None
        self._ack_progress(qp, ssn, WCStatus.SUCCESS)
        if span is not None:
            span.end()
        self._engine_next(qp)

    def _rc_sent(self, qp: QP, ssn: int, size: int, payload: dict, span) -> None:
        """Wire-done of an RC request: book it, hand it to the switch, and
        start the QP's idle RTO timer unless every WR that has left the
        port is acked (a resend can trail its ACK).  A first transmission
        (``span``: its WR's span or None) then carries the engine on; it
        is dropped if destroy_qp stopped the engine meanwhile.  A go-back-N
        resend passes ``_RESEND``."""
        if not qp.engine_live and span is not _RESEND:
            return
        self.tx_bytes += size
        self.tx_msgs += 1
        node = self.node
        node.network.transmit_raw(node.name, qp.remote_node, size, RDMA_PROTOCOL, payload)
        if ssn > qp.wire_ssn:
            qp.wire_ssn = ssn
        if qp.rto_entry is None and qp.wire_ssn >= qp.sq_completed:
            qp.rto_entry = self._rto_timers.schedule(self._rto_expired, qp)
        if span is _RESEND:
            return
        if span is not None:
            span.end()
        self._engine_next(qp)

    def _rc_request(self, qp: QP, wr: SendWR, ssn: int, data: Payload) -> Tuple[int, dict]:
        """Wire size and payload of one RC request (first send or resend).
        ``data`` is the WR's data when the request carries it, so its
        length is the WR's."""
        opcode = wr.opcode
        length = wr.total_length
        fixed = opcode.request_bytes
        return self._wire_size(length if fixed is None else fixed), {
            # _value_ is .value without the descriptor call
            "kind": "req", "opcode": opcode._value_, "src_node": self.node.name,
            "src_qpn": qp.qpn, "dst_qpn": qp.remote_qpn, "ssn": ssn, "data": data,
            "imm": wr.imm_data, "remote_addr": wr.remote_addr, "rkey": wr.rkey,
            "compare_add": wr.compare_add, "swap": wr.swap, "length": length,
        }

    # -- retransmission (go-back-N) ------------------------------------------

    def _reset_rto(self, qp: QP) -> None:
        """Stop the QP's RTO timer and restore its retry budget."""
        qp.retries = 0
        if qp.rto_entry is not None:
            self.sim.cancel(qp.rto_entry)
            qp.rto_entry = None

    def _rto_expired(self, qp: QP) -> None:
        """No ACK progress for one RTO: go back to the oldest unacked WR."""
        qp.rto_entry = None
        if qp.destroyed or qp.state is QPState.ERR:
            return
        qp.retries += 1
        if qp.retries > MAX_RETRIES:
            self._fail_connection(qp, qp.sq_completed, WCStatus.RETRY_EXC_ERR)
            return
        self._go_back(qp, qp.sq_completed, 0.0)

    def _go_back(self, qp: QP, from_ssn: int, delay: float) -> None:
        """Start a go-back-N resend from ``from_ssn`` after ``delay``,
        unless one is already pending or running."""
        if qp.going_back:
            return
        qp.going_back = True
        resend = self._retransmit(qp, from_ssn)
        if delay:
            self.sim.schedule(delay, self.sim.spawn, resend)
        else:
            self.sim.spawn(resend)

    def _retransmit(self, qp: QP, from_ssn: int):
        """Go-back-N: resend every inflight WR with ssn >= from_ssn."""
        try:
            for ssn in sorted(s for s in qp.sq_inflight if s >= from_ssn):
                wr = qp.sq_inflight.get(ssn)
                # destroy_qp stops the RTO timer but not a pending RNR retry
                if wr is None or qp.destroyed or qp.state is QPState.ERR:
                    return
                try:
                    data = self._gather(qp, wr)  # re-gathered: memory may have moved on
                except AccessError:
                    self._fail_connection(qp, ssn, WCStatus.LOC_PROT_ERR)
                    return
                size, payload = self._rc_request(qp, wr, ssn, data)
                yield self.node.port.transmit(size)
                self._rc_sent(qp, ssn, size, payload, _RESEND)
        finally:
            qp.going_back = False

    def _fail_connection(self, qp: QP, ssn: int, status: WCStatus) -> None:
        wr = qp.sq_inflight.pop(ssn, None)
        if wr is not None:
            self._complete_send(qp, wr, ssn, status, force=True)
        qp.force_error()
        self._flush_sq(qp)

    def _flush_sq(self, qp: QP) -> None:
        """Flush inflight then pending WRs with WR_FLUSH_ERR after an
        error: in posting order, as IBA requires.  The WR the engine holds
        (WQE fetch, shaping, rd-slot stall) flushes when its entry fires."""
        qp._acked.clear()
        for ssn in sorted(qp.sq_inflight):
            wr = qp.sq_inflight.pop(ssn)
            self._complete_send(qp, wr, ssn, WCStatus.WR_FLUSH_ERR, force=True)
        pending, qp.sq_pending = qp.sq_pending, []
        for wr in pending:
            self._complete_send(qp, wr, qp.next_ssn(), WCStatus.WR_FLUSH_ERR, force=True)
        self._reset_rto(qp)

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
            if self._rx_idle:
                self._rx_idle = False
                self.sim.hand_off(self._rx_execute,
                                  (message.src, message.size_bytes, payload))
            else:
                self._rx_items.append((message.src, message.size_bytes, payload))
            return
        self.rx_bytes += message.size_bytes
        self.rx_msgs += 1
        if kind == "ack":
            try:
                qp = self.qps[payload["dst_qpn"]]
            except KeyError:
                return
            self._ack_progress(qp, payload["ssn"], WCStatus.SUCCESS)
        elif kind == "resp":
            self._handle_response(payload)
        elif kind == "nak":
            self._handle_nak(payload)
        else:
            raise ValueError(f"{self.name}: unknown RDMA message kind {kind!r}")

    def _rx_next(self) -> None:
        """Serve the next queued request in its own entry, or go idle."""
        if self._rx_items:
            self.sim.hand_off(self._rx_execute, self._rx_items.popleft())
        else:
            self._rx_idle = True

    def _rx_execute(self, src_node: str, size_bytes: int, payload: dict,
                    stretched: bool = False) -> None:
        """Execute one request, serially.

        Normally the pipeline keeps up with the wire; while the NIC is
        control-busy its processing units are shared, so each request pays
        ``(1 + rx_frac)`` of its wire time — a sub-line-rate stretch that
        produces the slight brownout dips of Figure 5 (Kong et al.).
        """
        if not stretched and self.control_busy:
            frac = self.config.rnic.control_contention_rx_frac
            self.sim.schedule((1.0 + frac) * size_bytes * 8.0 / self.node.port.rate_bps,
                              self._rx_execute, src_node, size_bytes, payload, True)
            return
        self.rx_bytes += size_bytes
        self.rx_msgs += 1
        self._handle_request(src_node, payload)
        self._rx_backlog -= 1
        self._rx_next()

    # -- responder -------------------------------------------------------------

    def _handle_request(self, src_node: str, payload: dict) -> None:
        """Check a request against its connection's ssn window and execute
        it in order; answer it (ACK, response, NAK) or drop it."""
        try:
            qp = self.qps[payload["dst_qpn"]]
        except KeyError:
            return  # silently dropped, requester will time out
        if qp.destroyed or not qp.state.can_receive:
            return
        if "ud" in payload:
            self._execute_recv_delivery(qp, payload, ud=True)
            return
        src_qpn = payload["src_qpn"]
        if qp.qp_type is QPType.RC and (
            qp.remote_node != src_node or qp.remote_qpn != src_qpn
        ):
            return  # stray packet for a different connection epoch

        conn_key = (src_node, src_qpn)
        try:
            conn = self._conn_state[conn_key]
        except KeyError:
            conn = self._conn_state[conn_key] = _ConnState()
        ssn = payload["ssn"]
        if ssn < conn.expected_ssn:
            if ssn >= conn.first_ssn:  # duplicate: answer it again
                reply = conn.kept.get(ssn)
                if reply is None:
                    reply = {"kind": "ack", "dst_qpn": src_qpn, "ssn": ssn}
                self._reply(src_node, reply)
            return
        if ssn > conn.expected_ssn:
            if not conn.nak_sent:  # one NAK per sequence error
                conn.nak_sent = True
                self._reply(src_node, {
                    "kind": "nak", "reason": "seq", "dst_qpn": src_qpn,
                    "ssn": conn.expected_ssn,
                })
            return

        # In order: execute it.
        try:
            opcode = OPCODE_BY_VALUE[payload["opcode"]]
        except KeyError:
            opcode = Opcode(payload["opcode"])  # raises ValueError naming it
        if opcode.is_two_sided:
            if not self._execute_recv_delivery(qp, payload, ud=False):
                self._reply_rnr(src_node, conn, src_qpn, ssn)
                return
            reply = {"kind": "ack", "dst_qpn": src_qpn, "ssn": ssn}
        elif opcode is Opcode.RDMA_WRITE or opcode is Opcode.RDMA_WRITE_WITH_IMM:
            addr = payload["remote_addr"]
            try:
                mr = self._lookup_remote(payload["rkey"], addr, payload["length"], "write")
            except AccessError:
                reply = self._nak_access(payload)
            else:
                mr.space.write(addr, payload["data"])
                if opcode is Opcode.RDMA_WRITE_WITH_IMM:
                    recv_wr = qp.consume_recv()
                    if recv_wr is None:
                        self._reply_rnr(src_node, conn, src_qpn, ssn)
                        return
                    self._push_recv_cqe(qp, recv_wr, WCStatus.SUCCESS,
                                        len(payload["data"]), payload.get("imm"))
                reply = {"kind": "ack", "dst_qpn": src_qpn, "ssn": ssn}
        elif opcode is Opcode.RDMA_READ:
            data = self._execute_read(qp, payload)
            if data is None:
                reply = self._nak_access(payload)
            else:
                reply = {"kind": "resp", "dst_qpn": src_qpn, "ssn": ssn, "data": data}
        elif opcode.is_atomic:
            orig = self._execute_atomic(qp, payload, opcode)
            if orig is None:
                reply = self._nak_access(payload)
            else:
                reply = {"kind": "resp", "dst_qpn": src_qpn, "ssn": ssn, "data": orig}
        else:
            raise ValueError(f"responder cannot execute opcode {opcode}")
        conn.nak_sent = False
        conn.expected_ssn += 1
        if reply["kind"] != "ack":
            conn.kept[ssn] = reply
        if conn.expected_ssn - conn.first_ssn > 256:
            first = conn.first_ssn = conn.expected_ssn - 128
            conn.kept = {s: r for s, r in conn.kept.items() if s >= first}
        self._reply(src_node, reply)

    def _reply_rnr(self, dst: str, conn: _ConnState, src_qpn: int, ssn: int) -> None:
        """No RECV posted: NAK, and do not advance; the requester retries."""
        self._reply(dst, {"kind": "nak", "reason": "rnr", "dst_qpn": src_qpn, "ssn": ssn})
        conn.nak_sent = True

    def _reply(self, dst: str, reply: dict) -> None:
        # A stored reply may be sent again, so it is read, never changed.
        if reply["kind"] == "resp":
            size = self._wire_size(len(reply["data"]))
        else:
            size = ACK_BYTES
        self.node.port.transmit_deferred(size, self._reply_sent, dst, size, reply)

    def _reply_sent(self, dst: str, size: int, reply: dict) -> None:
        """The reply left the wire: book it and hand it to the switch."""
        self.tx_bytes += size
        self.tx_msgs += 1
        node = self.node
        node.network.transmit_raw(node.name, dst, size, RDMA_PROTOCOL, reply)

    def _nak_access(self, payload: dict) -> dict:
        return {"kind": "nak", "reason": "access", "dst_qpn": payload["src_qpn"],
                "ssn": payload["ssn"]}

    def _lookup_remote(self, rkey: int, addr: int, length: int, op: str):
        """Resolve an rkey to (MR, space) honoring memory windows."""
        mws = self.mws_by_rkey
        if rkey in mws:
            mw = mws[rkey]
            mw.check_remote(addr, length, op)
            return mw.mr
        try:
            mr = self.mrs_by_rkey[rkey]
        except KeyError:
            raise AccessError(f"unknown rkey {rkey:#x}") from None
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
        elif self._scatter(recv_wr.sges, data):
            self._push_recv_cqe(qp, recv_wr, WCStatus.SUCCESS, len(data), payload.get("imm"))
        else:
            self._push_recv_cqe(qp, recv_wr, WCStatus.LOC_PROT_ERR, 0, payload.get("imm"))
        return True

    def _scatter(self, sges, data: Payload) -> bool:
        """DMA ``data`` into local SGEs in order, enforcing lkeys.  False on
        a local protection error; the SGEs before it keep what they got."""
        remaining = data
        for sge in sges:
            if not remaining:
                break
            chunk, remaining = remaining[:sge.length], remaining[sge.length:]
            mr = self.mrs_by_lkey.get(sge.lkey)
            if mr is None:
                return False
            try:
                mr.check_local(sge.addr, len(chunk), write=True)
            except AccessError:
                return False
            mr.space.write(sge.addr, chunk)
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
        status = WCStatus.SUCCESS if self._scatter(wr.sges, data) else WCStatus.LOC_PROT_ERR
        self._ack_progress(qp, ssn, status, byte_len=len(data))

    def _handle_nak(self, payload: dict) -> None:
        qp = self.qps.get(payload["dst_qpn"])
        if qp is None:
            return
        reason = payload["reason"]
        ssn = payload["ssn"]
        if reason == "access":
            self._fail_connection(qp, ssn, WCStatus.REM_ACCESS_ERR)
            return
        if reason != "rnr" and reason != "seq":
            raise ValueError(f"unknown NAK reason {reason!r}")
        # The NAK proves the peer alive: the RTO timer waits for the resend
        # while the responder backs us off (RNR) or awaits the gap (seq).
        self._reset_rto(qp)
        self._go_back(qp, ssn, RNR_TIMER_S if reason == "rnr" else 0.0)

    def _ack_progress(self, qp: QP, ssn: int, status: WCStatus, byte_len: int = 0) -> None:
        """Record an acknowledgement; complete WRs strictly in SSN order."""
        inflight = qp.sq_inflight
        if ssn not in inflight:
            return
        wr = inflight[ssn]
        acked = qp._acked
        next_ssn = qp.sq_completed
        if ssn != next_ssn:
            acked[ssn] = (wr, status, byte_len)
            if next_ssn not in acked:
                return  # out of order: no progress, the RTO timer runs on
            wr, status, byte_len = acked.pop(next_ssn)
        elif acked:
            acked.pop(ssn, None)
        while True:
            if next_ssn in inflight:
                del inflight[next_ssn]
            self._complete_send(qp, wr, next_ssn, status, byte_len=byte_len)
            next_ssn = qp.sq_completed
            if next_ssn not in acked:
                break
            wr, status, byte_len = acked.pop(next_ssn)
        # Progress: restart the RTO timer while a WR that has left the port
        # is unacked (a WR queued at the port is already in sq_inflight).
        self._reset_rto(qp)
        if qp.wire_ssn >= next_ssn:
            qp.rto_entry = self._rto_timers.schedule(self._rto_expired, qp)

    def _release_rd_slot(self, qp: QP) -> None:
        """A READ/ATOMIC completed: free its initiator-depth slot."""
        qp.outstanding_rd_atomic = max(0, qp.outstanding_rd_atomic - 1)
        stalled = qp._rd_slot_waiter
        if stalled is not None:
            qp._rd_slot_waiter = None
            self.sim.schedule(0.0, self._engine_rd_slot, qp, *stalled)

    def _complete_send(self, qp: QP, wr: SendWR, ssn: int, status: WCStatus,
                       byte_len: int = 0, force: bool = False) -> None:
        if wr.opcode.needs_response_payload:  # READ or ATOMIC
            self._release_rd_slot(qp)
        qp.sq_completed += 1
        if status is not WCStatus.SUCCESS and status is not WCStatus.WR_FLUSH_ERR:
            qp.force_error()
        if wr.signaled or status is not WCStatus.SUCCESS or force:
            if not byte_len and not wr.opcode.needs_response_payload:
                byte_len = wr.total_length
            self._deliver_wc(qp.send_cq, WorkCompletion(
                wr_id=wr.wr_id, status=status, opcode=wr.opcode,
                qp_num=qp.qpn, byte_len=byte_len, imm_data=wr.imm_data,
            ))
