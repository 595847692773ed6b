"""The fabric: nodes, a one-hop switch, and the fault-injection hook.

Topology matches the paper's testbed — six servers behind one Arista
switch — generalised to any number of nodes.  Delivery = egress
serialization (the sender's :class:`~repro.fabric.port.Port`) + a fixed
propagation/switching delay.  An installed fault injector
(:mod:`repro.chaos.plan`) may drop, duplicate or delay messages in flight;
reliability is the job of the protocol layers (the RC engine retransmits,
the TCP channel retransmits).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.config import Config, default_config
from repro.fabric.message import Message
from repro.fabric.port import Port
from repro.sim import Simulator

Handler = Callable[[Message], None]

#: the extra delays of an unfaulted message: one delivery, on time
_UNFAULTED = (0.0,)


class Node:
    """A server attached to the fabric: one egress port, protocol handlers."""

    def __init__(self, network: "Network", name: str, rate_bps: float):
        self.network = network
        self.name = name
        self.port = Port(network.sim, rate_bps, name=name)
        self._handlers: Dict[str, Handler] = {}

    def register_handler(self, protocol: str, handler: Handler) -> None:
        if protocol in self._handlers:
            raise ValueError(f"{self.name}: handler for protocol {protocol!r} already registered")
        self._handlers[protocol] = handler

    def unregister_handler(self, protocol: str, missing_ok: bool = False) -> None:
        """Remove a protocol handler.

        Mirrors :meth:`register_handler`'s strictness: unregistering a
        protocol that was never registered raises :class:`LookupError`
        (it usually means a typo or a double-close), unless the caller
        passes ``missing_ok=True`` for idempotent teardown paths.
        """
        if protocol not in self._handlers:
            if missing_ok:
                return
            raise LookupError(
                f"{self.name}: no handler registered for protocol {protocol!r}")
        del self._handlers[protocol]

    def deliver(self, message: Message) -> None:
        try:
            handler = self._handlers[message.protocol]
        except KeyError:
            raise LookupError(
                f"{self.name}: no handler for protocol {message.protocol!r} "
                f"(message {message!r})"
            ) from None
        handler(message)

    def send(self, message: Message) -> None:
        """Queue a message for transmission through this node's port."""
        if message.src != self.name:
            raise ValueError(f"message src {message.src!r} does not match node {self.name!r}")
        self.network.transmit(message)

    def __repr__(self) -> str:
        return f"<Node {self.name}>"


class Network:
    """All nodes plus the switch's propagation and fault-injection hook."""

    def __init__(self, sim: Simulator, config: Optional[Config] = None):
        self.sim = sim
        self.config = config or default_config()
        self.nodes: Dict[str, Node] = {}
        self.messages_sent = 0
        self.messages_dropped = 0
        #: scoped fault hook (see :mod:`repro.chaos.plan`): consulted per
        #: in-flight message; ``None`` keeps the unfaulted fast path.
        self.fault_injector = None
        #: optional multi-hop routing (see :mod:`repro.fabric.topology`);
        #: ``None`` keeps the flat one-hop switch, byte-identical to the
        #: paper's testbed.  Installed via ``FatTreeTopology.attach``.
        self.topology = None

    def add_node(self, name: str, rate_bps: Optional[float] = None) -> Node:
        if name in self.nodes:
            raise ValueError(f"duplicate node name {name!r}")
        node = Node(self, name, rate_bps or self.config.link.rate_bps)
        self.nodes[name] = node
        return node

    def node(self, name: str) -> Node:
        try:
            return self.nodes[name]
        except KeyError:
            raise LookupError(f"unknown node {name!r}") from None

    def transmit(self, message: Message) -> None:
        """Queue ``message`` on its source node's port; at wire-done it
        takes the switch step, :meth:`transmit_raw`.  Both ends are
        validated now, at send."""
        src = self.node(message.src)
        self.node(message.dst)  # validate early
        src.port.transmit_cb(message.size_bytes, self.transmit_raw, message.src,
                             message.dst, message.size_bytes, message.protocol,
                             message.payload)

    def transmit_raw(self, src: str, dst: str, size_bytes: int, protocol: str, payload) -> None:
        """The switch: carry a message whose serialization is over to its
        destination node.

        The one propagation step of every message: the RNIC calls it from
        its wire-done callbacks, :meth:`transmit` from its port
        completion.  It counts the message, lets an installed fault
        injector drop, duplicate or delay it, and delivers it one
        propagation delay later (:meth:`Node.deliver`), or along the
        attached topology's path.
        """
        nodes = self.nodes
        if src in nodes and dst in nodes:
            node = nodes[dst]
        else:
            self.node(src)  # raises LookupError naming the unknown one
            self.node(dst)
        self.messages_sent += 1
        message = Message(src, dst, protocol, size_bytes, payload)
        delays = _UNFAULTED
        injector = self.fault_injector
        if injector is not None:
            verdict = injector.intercept(message, self.sim.now)
            if verdict is not None:
                # A fault rule matched: [] = drop, one entry per delivery
                # (several = duplication), each an extra delay on top of
                # propagation.  Unmatched messages fall through unchanged.
                if not verdict:
                    self.messages_dropped += 1
                    return
                delays = verdict
        topology = self.topology
        if topology is None:
            base = self.config.link.propagation_delay_s
            for extra in delays:
                self.sim.schedule(base + extra, node.deliver, message)
        else:
            for extra in delays:
                topology.route(message, node, extra)
