"""Work requests and scatter/gather elements."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.rnic.constants import ATOMIC_OPERAND_BYTES, Opcode


@dataclass(slots=True)
class SGE:
    """A scatter/gather element: local buffer described by an lkey."""

    addr: int
    length: int
    lkey: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError(f"negative SGE length: {self.length}")


@dataclass(slots=True)
class SendWR:
    """A send-queue work request (SEND / WRITE / READ / ATOMIC / BIND_MW)."""

    wr_id: int
    opcode: Opcode
    sges: List[SGE] = field(default_factory=list)
    signaled: bool = True
    imm_data: Optional[int] = None
    # One-sided target.
    remote_addr: int = 0
    rkey: int = 0
    # Atomics.
    compare_add: int = 0
    swap: int = 0
    # UD addressing.
    remote_node: Optional[str] = None
    remote_qpn: Optional[int] = None
    # Memory-window bind.
    bind_mw: Optional[object] = None
    bind_mr: Optional[object] = None
    bind_access: Optional[object] = None
    # Inline send: the payload is copied out of the application buffer at
    # post time (no lkey check, buffer immediately reusable).
    inline: bool = False
    inline_data: Optional[bytes] = None

    def __post_init__(self) -> None:
        if self.opcode is Opcode.RECV:
            raise ValueError("RECV is not a send-queue opcode; use RecvWR")
        if self.opcode.is_atomic and self.total_length not in (0, ATOMIC_OPERAND_BYTES):
            raise ValueError("atomic WRs carry exactly one 8-byte SGE")

    @property
    def total_length(self) -> int:
        # Recomputed per read (SGEs are edited on clones); a plain loop,
        # because this runs on the data path.
        total = 0
        for sge in self.sges:
            total += sge.length
        return total

    @property
    def wire_payload_bytes(self) -> int:
        """Bytes the request carries on the wire toward the responder."""
        fixed = self.opcode.request_bytes  # READ: header-only; atomic: operand
        return self.total_length if fixed is None else fixed


@dataclass(slots=True)
class RecvWR:
    """A receive-queue work request."""

    wr_id: int
    sges: List[SGE] = field(default_factory=list)

    @property
    def total_length(self) -> int:
        total = 0
        for sge in self.sges:
            total += sge.length
        return total


def clone_send_wr(wr: SendWR) -> SendWR:
    """A shallow-ish copy safe to re-post (used by WR replay after restore).

    Built via ``__new__`` + field copies: the source WR was validated at
    construction, so re-running ``__init__``/``__post_init__`` on this hot
    path (every intercepted/translated WR) would be pure overhead.
    """
    new = SendWR.__new__(SendWR)
    new.wr_id = wr.wr_id
    new.opcode = wr.opcode
    new.signaled = wr.signaled
    new.imm_data = wr.imm_data
    new.remote_addr = wr.remote_addr
    new.rkey = wr.rkey
    new.compare_add = wr.compare_add
    new.swap = wr.swap
    new.remote_node = wr.remote_node
    new.remote_qpn = wr.remote_qpn
    new.bind_mw = wr.bind_mw
    new.bind_mr = wr.bind_mr
    new.bind_access = wr.bind_access
    new.inline = wr.inline
    new.inline_data = wr.inline_data
    sges = []
    for s in wr.sges:
        c = SGE.__new__(SGE)
        c.addr = s.addr
        c.length = s.length
        c.lkey = s.lkey
        sges.append(c)
    new.sges = sges
    return new


def clone_recv_wr(wr: RecvWR) -> RecvWR:
    return RecvWR(wr_id=wr.wr_id, sges=[SGE(s.addr, s.length, s.lkey) for s in wr.sges])
