"""Connection manager: the librdmacm analogue.

Real RDMA applications rarely hand-roll their out-of-band exchange; they
use rdma_cm: a passive side listens on an address/port, an active side
connects, and the CM carries QPNs (plus application ``private_data``,
typically buffer addresses and rkeys) over a TCP-like channel and drives
the QP state transitions.

This CM works over any :class:`~repro.verbs.api.VerbsAPI` implementation.
Under the MigrRDMA guest library the exchange naturally carries *virtual*
QPNs and *virtual* rkeys — exactly the out-of-band channel §3.3 says the
RDMA stack is unaware of — so CM-established connections are migratable
with no application changes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.cluster import Testbed
from repro.fabric import TcpChannel
from repro.rnic import QPType
from repro.verbs.api import VerbsAPI

_conn_tokens = itertools.count(1)

CM_REQ_BYTES = 256  # MAD-sized request carrying QPN + private data
CM_POLL_S = 50e-6


class CmError(Exception):
    """Connection-manager failures (no listener, rejected, timeout)."""


@dataclass
class CmConnection:
    """One established connection as seen by either side."""

    qp: object
    local_node: str
    remote_node: str
    port: int
    remote_qpn: int
    #: application payload from the peer's connect/accept call
    remote_private_data: Any = None


@dataclass
class _Listener:
    lib: VerbsAPI
    pd: object
    cq: object
    max_send_wr: int
    max_recv_wr: int
    #: called with the new CmConnection once established (optional)
    on_connect: Optional[Callable[[CmConnection], None]] = None
    #: returns the private data to send back to the connecting side
    private_data_factory: Optional[Callable[[], Any]] = None
    accepted: list = field(default_factory=list)


class ConnectionManager:
    """Testbed-wide CM service: listeners, connect/accept rendezvous.

    One instance serves every server; it keeps its own TCP channels (a
    fresh channel per pair, so it never collides with the MigrRDMA control
    plane or the migration transfers sharing the fabric).
    """

    def __init__(self, tb: Testbed):
        self.tb = tb
        self.sim = tb.sim
        self._listeners: Dict[Tuple[str, int], _Listener] = {}
        self._pending: Dict[int, dict] = {}  # token -> accept outcome
        self._channels: Dict[Tuple[str, str], TcpChannel] = {}

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------

    def _channel(self, a: str, b: str) -> TcpChannel:
        key = (min(a, b), max(a, b))
        channel = self._channels.get(key)
        if channel is None:
            channel = TcpChannel(self.tb.network, key[0], key[1])
            channel.set_rpc_handler(self._dispatch)
            self._channels[key] = channel
        return channel

    def _dispatch(self, request: dict):
        op = request["op"]
        if op == "connect":
            return self._handle_connect(request), CM_REQ_BYTES
        if op == "status":
            return self._pending.get(request["token"], {"state": "unknown"}), CM_REQ_BYTES
        raise ValueError(f"unknown CM op {op!r}")

    # ------------------------------------------------------------------
    # passive side
    # ------------------------------------------------------------------

    def listen(self, node: str, port: int, lib: VerbsAPI, pd, cq,
               max_send_wr: int = 64, max_recv_wr: int = 64,
               on_connect: Optional[Callable[[CmConnection], None]] = None,
               private_data_factory: Optional[Callable[[], Any]] = None) -> _Listener:
        """Bind a listener; incoming connects create+connect a QP on it."""
        key = (node, port)
        if key in self._listeners:
            raise CmError(f"port {port} already bound on {node}")
        listener = _Listener(lib=lib, pd=pd, cq=cq, max_send_wr=max_send_wr,
                             max_recv_wr=max_recv_wr, on_connect=on_connect,
                             private_data_factory=private_data_factory)
        self._listeners[key] = listener
        return listener

    def _handle_connect(self, request: dict) -> dict:
        key = (request["dst"], request["port"])
        listener = self._listeners.get(key)
        if listener is None:
            return {"state": "rejected", "reason": f"no listener on {key}"}
        token = next(_conn_tokens)
        self._pending[token] = {"state": "pending"}
        self.sim.spawn(
            self._accept(listener, token, request),
            name=f"cm-accept:{request['dst']}:{request['port']}")
        return {"state": "accepting", "token": token}

    def _accept(self, listener: _Listener, token: int, request: dict):
        lib = listener.lib
        try:
            qp = yield from lib.create_qp(
                listener.pd, QPType.RC, listener.cq, listener.cq,
                listener.max_send_wr, listener.max_recv_wr)
            yield from lib.connect(qp, request["src"], request["qpn"])
        except Exception as error:  # surface as a rejection, not a crash
            self._pending[token] = {"state": "rejected", "reason": str(error)}
            return
        private = (listener.private_data_factory()
                   if listener.private_data_factory is not None else None)
        connection = CmConnection(
            qp=qp, local_node=request["dst"], remote_node=request["src"],
            port=request["port"], remote_qpn=request["qpn"],
            remote_private_data=request.get("private_data"))
        listener.accepted.append(connection)
        if listener.on_connect is not None:
            listener.on_connect(connection)
        self._pending[token] = {"state": "established", "qpn": qp.qpn,
                                "private_data": private}

    # ------------------------------------------------------------------
    # active side
    # ------------------------------------------------------------------

    def connect(self, node: str, remote_node: str, port: int, lib: VerbsAPI,
                pd, cq, max_send_wr: int = 64, max_recv_wr: int = 64,
                private_data: Any = None, timeout_s: float = 1.0):
        """Generator: establish a connection; returns a :class:`CmConnection`.

        Creates the local QP first (so its QPN travels in the request),
        waits for the passive side to accept, then transitions to RTS.
        """
        qp = yield from lib.create_qp(pd, QPType.RC, cq, cq,
                                      max_send_wr, max_recv_wr)
        channel = self._channel(node, remote_node)
        response = yield from channel.rpc(
            {"op": "connect", "src": node, "dst": remote_node, "port": port,
             "qpn": qp.qpn, "private_data": private_data},
            req_size=CM_REQ_BYTES, src=node)
        if response["state"] == "rejected":
            raise CmError(f"connect to {remote_node}:{port} rejected: "
                          f"{response.get('reason')}")
        token = response["token"]
        deadline = self.sim.now + timeout_s
        while True:
            status = yield from channel.rpc(
                {"op": "status", "token": token}, req_size=64, src=node)
            if status["state"] == "established":
                break
            if status["state"] == "rejected":
                raise CmError(f"connect to {remote_node}:{port} rejected: "
                              f"{status.get('reason')}")
            if self.sim.now > deadline:
                raise CmError(f"connect to {remote_node}:{port} timed out")
            yield self.sim.timeout(CM_POLL_S)
        yield from lib.connect(qp, remote_node, status["qpn"])
        return CmConnection(
            qp=qp, local_node=node, remote_node=remote_node, port=port,
            remote_qpn=status["qpn"], remote_private_data=status["private_data"])
