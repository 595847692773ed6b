"""Multi-host fat-tree topology: racks of hosts behind oversubscribed trunks.

The flat :class:`~repro.fabric.network.Network` models every host on one
non-blocking switch: a message serializes on the sender's NIC port and is
delivered one propagation delay later.  That is the right model for the
paper's two-node testbed, but fleet-scale migration is a *bandwidth
scheduling* problem — concurrent migrations out of one rack share that
rack's ToR uplink, and the uplink is slower than the sum of the host NICs
(oversubscription).  This module adds exactly that contention and nothing
else.

Model
-----
Each rack gets a pair of :class:`~repro.fabric.port.Port` objects — an
uplink (ToR → spine) and a downlink (spine → ToR) — whose rate is::

    hosts_per_rack * link.rate_bps / oversubscription

The spine itself is non-blocking (a fat tree's core is, by construction;
the oversubscription lives at the ToR).  Routing is then:

* **same rack** (or an unmapped node, e.g. a test double): identical to
  the flat network — one propagation delay, no extra serialization.
* **cross rack**: propagation to the ToR, serialization on the source
  rack's uplink, propagation across the spine, serialization on the
  destination rack's downlink, propagation to the host.  Three hops, two
  oversubscribed trunk serializations, all FIFO per trunk.

:meth:`FatTreeTopology.attach` hooks the topology into a ``Network``;
``Network._propagate`` then routes every message (including raw RNIC
traffic) through :meth:`route`.

The per-trunk ``Port``s expose byte counters and backlog, which is what
fleet reporting (``FleetReport`` per-link utilisation) and the chaos
uplink-degrade fault build on — degrading a ToR uplink is just installing
a ``contention_factor`` on its ``Port``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from .port import Port

__all__ = ["FatTreeTopology"]


class FatTreeTopology:
    """Racks of hosts joined by oversubscribed ToR trunk ports.

    ``racks`` maps rack name to the ordered list of host (node) names in
    that rack.  Hosts not listed route exactly like the flat network, so
    a topology can be attached to a network that also carries unmapped
    utility nodes.
    """

    def __init__(self, sim, config, racks: Mapping[str, Sequence[str]],
                 oversubscription: float = 4.0):
        if not racks:
            raise ValueError("topology needs at least one rack")
        if oversubscription <= 0:
            raise ValueError(
                f"oversubscription must be > 0, got {oversubscription}")
        self.sim = sim
        self.config = config
        self.oversubscription = float(oversubscription)
        self.prop_s = config.link.propagation_delay_s
        self.racks: Dict[str, List[str]] = {}
        self.rack_of: Dict[str, str] = {}
        for rack, hosts in racks.items():
            hosts = list(hosts)
            if not hosts:
                raise ValueError(f"rack {rack!r} has no hosts")
            self.racks[rack] = hosts
            for host in hosts:
                if host in self.rack_of:
                    raise ValueError(f"host {host!r} appears in rack "
                                     f"{self.rack_of[host]!r} and {rack!r}")
                self.rack_of[host] = rack
        #: ToR trunk ports, one pair per rack.  Rate scales with rack size
        #: so the oversubscription ratio means the same thing at any size.
        self.uplinks: Dict[str, Port] = {}
        self.downlinks: Dict[str, Port] = {}
        for rack, hosts in self.racks.items():
            trunk_bps = len(hosts) * config.link.rate_bps / self.oversubscription
            self.uplinks[rack] = Port(sim, trunk_bps, name=f"{rack}:up")
            self.downlinks[rack] = Port(sim, trunk_bps, name=f"{rack}:down")
        self.network = None
        #: Routing counters (not digested; reporting reads link_stats()).
        self.local_messages = 0
        self.cross_rack_messages = 0
        self._attached_at = 0.0

    # ------------------------------------------------------------------
    # Wiring

    def attach(self, network) -> "FatTreeTopology":
        """Install this topology on ``network``; all subsequent deliveries
        route through it.  One topology per network, attach-once."""
        if network.topology is not None:
            raise RuntimeError("network already has a topology attached")
        if self.network is not None:
            raise RuntimeError("topology already attached to a network")
        network.topology = self
        self.network = network
        self._attached_at = self.sim.now
        return self

    # ------------------------------------------------------------------
    # Routing (called from Network._propagate for every delivery)

    def route(self, message, dst, extra_delay_s: float = 0.0) -> None:
        """Deliver ``message`` to its destination node ``dst`` along its
        topology path.  ``extra_delay_s`` carries any fault-injector delay
        and is applied on the first hop, matching the flat network's
        behaviour."""
        src_rack = self.rack_of.get(message.src)
        dst_rack = self.rack_of.get(message.dst)
        if src_rack is None or dst_rack is None or src_rack == dst_rack:
            # Same switch: byte-identical to the flat network.
            self.local_messages += 1
            self.sim.schedule(self.prop_s + extra_delay_s, dst.deliver, message)
            return
        self.cross_rack_messages += 1
        self.sim.schedule(self.prop_s + extra_delay_s,
                          self.uplinks[src_rack].transmit_cb, message.size_bytes,
                          self._cross_spine, self.downlinks[dst_rack], dst, message)

    # The hop chain threads state through Port.transmit_cb cb_args /
    # schedule args instead of closures — same no-allocation discipline as
    # the RNIC — and enters each trunk by scheduling its transmit_cb
    # directly.  The trunks' wire-done instants have no listener.

    def _cross_spine(self, down: Port, dst, message) -> None:
        self.sim.schedule(self.prop_s, down.transmit_cb, message.size_bytes,
                          self._last_hop, dst, message)

    def _last_hop(self, dst, message) -> None:
        self.sim.schedule(self.prop_s, dst.deliver, message)

    # ------------------------------------------------------------------
    # Accounting (fleet reporting + chaos faults)

    def uplink(self, rack: str) -> Port:
        return self.uplinks[rack]

    def downlink(self, rack: str) -> Port:
        return self.downlinks[rack]

    def trunk_ports(self) -> Dict[str, Port]:
        """All trunk ports keyed ``"<rack>:up"`` / ``"<rack>:down"``."""
        out: Dict[str, Port] = {}
        for rack in self.racks:
            out[f"{rack}:up"] = self.uplinks[rack]
            out[f"{rack}:down"] = self.downlinks[rack]
        return out

    def link_stats(self, now: Optional[float] = None) -> Dict[str, dict]:
        """Per-trunk bytes and mean utilisation since attach."""
        if now is None:
            now = self.sim.now
        elapsed = max(now - self._attached_at, 1e-12)
        stats: Dict[str, dict] = {}
        for name, port in self.trunk_ports().items():
            stats[name] = {
                "rate_bps": port.rate_bps,
                "bytes": port.bytes_sent,
                "utilization": (port.bytes_sent * 8.0) / (port.rate_bps * elapsed),
            }
        return stats

    def __repr__(self) -> str:
        return (f"<FatTreeTopology racks={len(self.racks)} "
                f"hosts={len(self.rack_of)} "
                f"oversub={self.oversubscription:g}>")
