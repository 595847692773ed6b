"""Enumerations mirroring the ibverbs constants the model needs."""

from __future__ import annotations

import enum

ATOMIC_OPERAND_BYTES = 8


class QPType(enum.Enum):
    """Transport service types (the paper covers RC and UD semantics)."""

    RC = "RC"  # reliable connection
    UD = "UD"  # unreliable datagram


class QPState(enum.Enum):
    """The InfiniBand QP state machine."""

    RESET = "RESET"
    INIT = "INIT"
    RTR = "RTR"  # ready to receive
    RTS = "RTS"  # ready to send
    SQD = "SQD"  # send queue drained
    ERR = "ERR"

    # What a state allows (can_post_send, can_post_recv, can_receive) is
    # precomputed as plain member attributes below, as for Opcode.


for _state in QPState:
    # IBA: a WR posted to a QP in Error is accepted and completes flushed;
    # the app may post before it polls the CQE of the failure.
    _state.can_post_send = _state in (QPState.RTS, QPState.ERR)
    _state.can_post_recv = _state in (QPState.INIT, QPState.RTR, QPState.RTS, QPState.SQD)
    _state.can_receive = _state in (QPState.RTR, QPState.RTS, QPState.SQD)
del _state


#: Legal forward transitions of the QP state machine.
QP_TRANSITIONS = {
    QPState.RESET: {QPState.INIT, QPState.ERR},
    QPState.INIT: {QPState.RTR, QPState.ERR, QPState.RESET},
    QPState.RTR: {QPState.RTS, QPState.ERR, QPState.RESET},
    QPState.RTS: {QPState.SQD, QPState.ERR, QPState.RESET},
    QPState.SQD: {QPState.RTS, QPState.ERR, QPState.RESET},
    QPState.ERR: {QPState.RESET},
}


class Opcode(enum.Enum):
    """Work-request opcodes."""

    SEND = "SEND"
    SEND_WITH_IMM = "SEND_WITH_IMM"
    RDMA_WRITE = "RDMA_WRITE"
    RDMA_WRITE_WITH_IMM = "RDMA_WRITE_WITH_IMM"
    RDMA_READ = "RDMA_READ"
    ATOMIC_CMP_AND_SWP = "ATOMIC_CMP_AND_SWP"
    ATOMIC_FETCH_AND_ADD = "ATOMIC_FETCH_AND_ADD"
    RECV = "RECV"
    BIND_MW = "BIND_MW"

    # Predicate flags (is_one_sided, is_atomic, ...) are precomputed as
    # plain member attributes below: the data path reads them several times
    # per WR, where property-call overhead adds up.


for _op in Opcode:
    _op.is_one_sided = _op in (
        Opcode.RDMA_WRITE,
        Opcode.RDMA_WRITE_WITH_IMM,
        Opcode.RDMA_READ,
        Opcode.ATOMIC_CMP_AND_SWP,
        Opcode.ATOMIC_FETCH_AND_ADD,
    )
    _op.is_two_sided = _op in (Opcode.SEND, Opcode.SEND_WITH_IMM)
    #: Does this opcode consume a RECV WR at the responder?
    _op.consumes_recv = _op in (
        Opcode.SEND,
        Opcode.SEND_WITH_IMM,
        Opcode.RDMA_WRITE_WITH_IMM,
    )
    _op.is_atomic = _op in (Opcode.ATOMIC_CMP_AND_SWP, Opcode.ATOMIC_FETCH_AND_ADD)
    #: READ and ATOMIC carry data back to the requester.
    _op.needs_response_payload = _op.is_atomic or _op is Opcode.RDMA_READ
    #: Payload bytes of the request on the wire when fixed by the opcode
    #: (a READ request is header-only, an atomic carries its operand);
    #: None when it carries the WR's data.
    _op.request_bytes = (0 if _op is Opcode.RDMA_READ
                         else ATOMIC_OPERAND_BYTES if _op.is_atomic else None)
del _op

#: Wire value -> member, for re-hydrating the opcode a request carries
#: without going through ``Enum.__call__``.
OPCODE_BY_VALUE = {op.value: op for op in Opcode}


class WCStatus(enum.Enum):
    """Work-completion status codes."""

    SUCCESS = "SUCCESS"
    LOC_LEN_ERR = "LOC_LEN_ERR"
    LOC_PROT_ERR = "LOC_PROT_ERR"
    REM_ACCESS_ERR = "REM_ACCESS_ERR"
    REM_OP_ERR = "REM_OP_ERR"
    RETRY_EXC_ERR = "RETRY_EXC_ERR"
    RNR_RETRY_EXC_ERR = "RNR_RETRY_EXC_ERR"
    WR_FLUSH_ERR = "WR_FLUSH_ERR"


class AccessFlags(enum.Flag):
    """Memory-region access permissions."""

    NONE = 0
    LOCAL_WRITE = enum.auto()
    REMOTE_WRITE = enum.auto()
    REMOTE_READ = enum.auto()
    REMOTE_ATOMIC = enum.auto()
    MW_BIND = enum.auto()

    @classmethod
    def all_remote(cls) -> "AccessFlags":
        return (
            cls.LOCAL_WRITE | cls.REMOTE_WRITE | cls.REMOTE_READ | cls.REMOTE_ATOMIC | cls.MW_BIND
        )


ACK_BYTES = 46  # RoCEv2 ACK frame
REQUEST_HEADER_BYTES = 58  # Eth + IP + UDP + BTH (+RETH)
