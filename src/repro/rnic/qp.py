"""Queue pairs.

The QP object holds the state a real RNIC keeps on-chip: ring contents,
head/tail (posted/completed) counters, the connection tuple, and per-QP
counters.  The processing logic lives in :mod:`repro.rnic.nic`.

The ``sq_posted``/``sq_completed`` pair is the "window capped by the head
and tail pointers of the SQ" that §3.4 uses to define inflight WRs, and
``n_sent_two_sided``/``n_recv_completed`` are the fields MigrRDMA adds to
the QP metadata for the receive-side wait-before-stop termination check.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.rnic.constants import QP_TRANSITIONS, QPState, QPType
from repro.rnic.cq import CQ
from repro.rnic.errors import QPStateError, ResourceError
from repro.rnic.mr import PD
from repro.rnic.srq import SRQ
from repro.rnic.wr import RecvWR, SendWR


class QP:
    """A queue pair on a specific NIC."""

    # Slots, not a per-instance dict: at 30 attributes CPython stops
    # sharing dict keys between instances, and fan-out runs hold thousands.
    __slots__ = (
        "qpn", "tenant", "qp_type", "pd", "send_cq", "recv_cq", "max_send_wr",
        "max_recv_wr", "srq", "max_rd_atomic", "outstanding_rd_atomic",
        "max_inline_data", "state", "remote_node", "remote_qpn", "sq_pending",
        "sq_inflight", "sq_posted", "sq_completed", "_next_ssn", "rq",
        "n_sent_two_sided", "n_recv_completed", "rto_entry", "retries",
        "wire_ssn", "going_back", "_acked", "_rd_slot_waiter", "doorbell",
        "engine_entry", "engine_live", "destroyed",
    )

    def __init__(
        self,
        qpn: int,
        qp_type: QPType,
        pd: PD,
        send_cq: CQ,
        recv_cq: CQ,
        max_send_wr: int,
        max_recv_wr: int,
        srq: Optional[SRQ] = None,
        max_rd_atomic: int = 16,
        max_inline_data: int = 220,
        tenant: Optional[str] = None,
    ):
        if max_send_wr <= 0 or (srq is None and max_recv_wr <= 0):
            raise ResourceError("queue depths must be positive")
        if max_rd_atomic <= 0:
            raise ResourceError("max_rd_atomic must be positive")
        self.qpn = qpn
        #: QoS identity (repro.rnic.qos); None = infrastructure / unmetered.
        self.tenant = tenant
        self.qp_type = qp_type
        self.pd = pd
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        self.max_send_wr = max_send_wr
        self.max_recv_wr = max_recv_wr
        self.srq = srq
        #: IB responder-resources limit: outstanding READ/ATOMIC requests
        self.max_rd_atomic = max_rd_atomic
        self.outstanding_rd_atomic = 0
        #: inline-send capacity (bytes copied into the WQE at post time)
        self.max_inline_data = max_inline_data

        self.state = QPState.RESET
        self.remote_node: Optional[str] = None
        self.remote_qpn: Optional[int] = None

        # Send queue: WRs not yet picked up by the NIC engine, then inflight
        # (transmitted, awaiting completion) keyed by send sequence number.
        # Plain lists: both rings are bounded by their max_*_wr, and an
        # empty list costs 56 bytes where an empty deque costs 760.
        self.sq_pending: List[SendWR] = []
        self.sq_inflight: Dict[int, SendWR] = {}
        self.sq_posted = 0  # head pointer
        self.sq_completed = 0  # tail pointer
        self._next_ssn = 0

        # Receive queue (unused when attached to an SRQ).
        self.rq: List[RecvWR] = []

        # MigrRDMA §3.4 bookkeeping: two-sided verbs posted / RECVs completed
        # since QP creation.
        self.n_sent_two_sided = 0
        self.n_recv_completed = 0

        # Requester retransmission state, one of each per QP as in IB: the
        # RTO timer's heap entry, the retry count, the highest ssn handed to
        # the wire, and whether a go-back-N resend is pending or running.
        self.rto_entry: Optional[list] = None
        self.retries = 0
        self.wire_ssn = -1
        self.going_back = False
        #: acknowledged out of order, waiting for in-SSN-order completion:
        #: ssn -> (wr, status, byte_len)
        self._acked: Dict[int, tuple] = {}
        # Send-engine state (repro.rnic.nic): nothing but these slots while
        # the engine is parked.
        #: (wr, ssn, data, span) of the WR stalled on the max_rd_atomic limit
        self._rd_slot_waiter = None
        #: True while the engine is parked on an empty send queue; the next
        #: post rings it once (posts while the engine is busy find False
        #: and cost nothing)
        self.doorbell = False
        #: heap entry of the engine's pending timed step (WQE fetch, QoS
        #: shaping, UD completion): what destroy_qp cancels
        self.engine_entry: Optional[list] = None
        #: False once destroy_qp has stopped the engine
        self.engine_live = True

        self.destroyed = False

    # -- state machine --------------------------------------------------------

    def transition(self, new_state: QPState) -> None:
        if self.destroyed:
            raise QPStateError(f"QP {self.qpn:#x} is destroyed")
        if new_state not in QP_TRANSITIONS[self.state]:
            raise QPStateError(
                f"QP {self.qpn:#x}: illegal transition {self.state.value} -> {new_state.value}"
            )
        self.state = new_state

    def force_error(self) -> None:
        """NIC-initiated transition to ERR (completion errors, retry exhaustion)."""
        if not self.destroyed and self.state is not QPState.ERR:
            self.state = QPState.ERR

    # -- posting ---------------------------------------------------------------

    def next_ssn(self) -> int:
        ssn = self._next_ssn
        self._next_ssn += 1
        return ssn

    def enqueue_send(self, wr: SendWR) -> None:
        if self.destroyed:
            raise QPStateError(f"QP {self.qpn:#x} is destroyed")
        if not self.state.can_post_send:
            raise QPStateError(f"QP {self.qpn:#x}: post_send in state {self.state.value}")
        if self.sq_posted - self.sq_completed >= self.max_send_wr:
            raise ResourceError(f"QP {self.qpn:#x}: send queue full (depth {self.max_send_wr})")
        self.sq_pending.append(wr)
        self.sq_posted += 1
        if wr.opcode.is_two_sided:
            self.n_sent_two_sided += 1

    def enqueue_recv(self, wr: RecvWR) -> None:
        if self.destroyed:
            raise QPStateError(f"QP {self.qpn:#x} is destroyed")
        if self.srq is not None:
            raise QPStateError(f"QP {self.qpn:#x} uses an SRQ; post to the SRQ instead")
        if not self.state.can_post_recv:
            raise QPStateError(f"QP {self.qpn:#x}: post_recv in state {self.state.value}")
        if len(self.rq) >= self.max_recv_wr:
            raise ResourceError(f"QP {self.qpn:#x}: receive queue full (depth {self.max_recv_wr})")
        self.rq.append(wr)

    def consume_recv(self) -> Optional[RecvWR]:
        if self.srq is not None:
            return self.srq.consume()
        if self.rq:
            return self.rq.pop(0)
        return None

    # -- inflight accounting -----------------------------------------------------

    @property
    def send_inflight(self) -> int:
        """WRs posted but not yet completed (pending + on the wire)."""
        return self.sq_posted - self.sq_completed

    def __repr__(self) -> str:
        return (
            f"<QP {self.qpn:#x} {self.qp_type.value} {self.state.value} "
            f"inflight={self.send_inflight}>"
        )
