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
        handler = self._handlers.get(message.protocol)
        if handler is None:
            raise LookupError(
                f"{self.name}: no handler for protocol {message.protocol!r} "
                f"(message {message!r})"
            )
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
        #: master switch for the RNIC express lane (flow-level aggregation
        #: of clean-window bulk traffic); any fault source disables it at
        #: the per-WR gate independently of this flag.
        self.flow_aggregation = getattr(self.config, "flow_aggregation", True)
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

    def flow_invalidate_all(self) -> None:
        """De-aggregation hook: turn every pending express-lane reservation
        back into packet-level events.  Called whenever a fault source is
        armed (or disarmed) network-wide, so chaos and torture runs observe
        packet-for-packet identical traffic."""
        for node in self.nodes.values():
            lane = node.port.flow_lane
            if lane is not None:
                lane.materialize("fault-window")

    def reset_faults(self) -> None:
        """Uninstall the fault injector.  Scenario teardown calls this so
        chaos state cannot leak between tests."""
        self.fault_injector = None

    def transmit(self, message: Message) -> None:
        src = self.node(message.src)
        self.node(message.dst)  # validate early
        self.messages_sent += 1
        src.port.transmit_cb(message.size_bytes, self._propagate, message)

    def transmit_raw(self, src: str, dst: str, size_bytes: int, protocol: str, payload) -> None:
        """Inject a message whose serialization was already metered.

        Protocol engines (the RNIC) that explicitly wait on their port use
        this to hand the fully-serialized message to the switch without
        paying serialization twice.
        """
        nodes = self.nodes
        if src not in nodes or dst not in nodes:
            self.node(src)  # raises LookupError naming the unknown one
            self.node(dst)
        self.messages_sent += 1
        self._propagate(Message(src, dst, protocol, size_bytes, payload))

    def _propagate(self, message: Message) -> None:
        # The one per-message resolution of the destination; the topology
        # and the delivery event carry the node forward.
        try:
            dst = self.nodes[message.dst]
        except KeyError:
            dst = self.node(message.dst)  # raises LookupError
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
                if self.topology is not None:
                    for extra in verdict:
                        self.topology.route(message, dst, extra)
                    return
                base = self.config.link.propagation_delay_s
                for extra in verdict:
                    self.sim.schedule(base + extra, dst.deliver, message)
                return
        if self.topology is not None:
            self.topology.route(message, dst)
            return
        self.sim.schedule(self.config.link.propagation_delay_s, dst.deliver, message)
