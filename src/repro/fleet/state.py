"""Fleet state store: hosts, containers, placements, capacity.

The authoritative "where does everything live" map the migration
scheduler plans against.  It is deliberately *not* the simulation — the
live truth is which :class:`~repro.cluster.Server` actually holds each
:class:`~repro.cluster.Container` — and the ``fleet-placement`` invariant
(:mod:`repro.chaos.invariants`) checks the two views agree after every
drain: every tracked container has exactly one live placement, and it is
the one the store believes.

Capacity is tracked per host as a QP quota and a memory budget; placement
policies only consider hosts where the candidate container ``fits()``.
All iteration orders are insertion order (hosts) or sorted (container
queries), so scheduling decisions are bit-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set

from .lease import LeaseTable

__all__ = ["ContainerInfo", "FleetState", "HostInfo"]


@dataclass
class HostInfo:
    """Capacity record for one host."""

    name: str
    rack: str
    qp_quota: int = 256
    memory_bytes: int = 4 * 1024 ** 3


@dataclass
class ContainerInfo:
    """One container's demand on its host (QPs, memory)."""

    name: str
    qps: int = 1
    memory_bytes: int = 0


class FleetState:
    """Hosts + containers + the placement map, with capacity accounting."""

    def __init__(self):
        self.hosts: Dict[str, HostInfo] = {}
        self.containers: Dict[str, ContainerInfo] = {}
        self.placements: Dict[str, str] = {}
        self.draining: Set[str] = set()
        #: placement leases with fencing epochs (DESIGN.md §15): every
        #: tracked container's placement is backed by a lease here, and
        #: migrations hand placements over via fenced epoch transfers
        self.leases = LeaseTable()

    # ------------------------------------------------------------------
    # registration

    def add_host(self, name: str, rack: str, qp_quota: int = 256,
                 memory_bytes: int = 4 * 1024 ** 3) -> HostInfo:
        if name in self.hosts:
            raise ValueError(f"duplicate host {name!r}")
        info = HostInfo(name=name, rack=rack, qp_quota=qp_quota,
                        memory_bytes=memory_bytes)
        self.hosts[name] = info
        return info

    def add_container(self, name: str, host: str, qps: int = 1,
                      memory_bytes: int = 0) -> ContainerInfo:
        if name in self.containers:
            raise ValueError(f"duplicate container {name!r}")
        self._require_host(host)
        info = ContainerInfo(name=name, qps=qps, memory_bytes=memory_bytes)
        self.containers[name] = info
        self.placements[name] = host
        # Initial placements are leased at epoch 1 from t=0 (registration
        # happens before the simulation runs; pure bookkeeping, no events).
        self.leases.grant(name, host, now=0.0)
        return info

    def _require_host(self, name: str) -> HostInfo:
        try:
            return self.hosts[name]
        except KeyError:
            raise LookupError(f"unknown host {name!r}") from None

    # ------------------------------------------------------------------
    # queries

    def host_of(self, container: str) -> str:
        try:
            return self.placements[container]
        except KeyError:
            raise LookupError(f"unknown container {container!r}") from None

    def containers_on(self, host: str) -> List[str]:
        self._require_host(host)
        return sorted(name for name, h in self.placements.items() if h == host)

    def load(self, host: str) -> int:
        """Containers currently placed on ``host``."""
        self._require_host(host)
        return sum(1 for h in self.placements.values() if h == host)

    def qp_usage(self, host: str) -> int:
        return sum(self.containers[name].qps
                   for name in self.containers
                   if self.placements.get(name) == host)

    def memory_usage(self, host: str) -> int:
        return sum(self.containers[name].memory_bytes
                   for name in self.containers
                   if self.placements.get(name) == host)

    def racks(self) -> List[str]:
        """Rack names in host-registration order."""
        seen: List[str] = []
        for info in self.hosts.values():
            if info.rack not in seen:
                seen.append(info.rack)
        return seen

    def hosts_in(self, rack: str) -> List[str]:
        out = [name for name, info in self.hosts.items() if info.rack == rack]
        if not out:
            raise LookupError(f"unknown rack {rack!r}")
        return out

    def rack_of(self, host: str) -> str:
        return self._require_host(host).rack

    # ------------------------------------------------------------------
    # drains + admission support

    def mark_draining(self, host: str) -> None:
        self._require_host(host)
        self.draining.add(host)

    def fits(self, host: str, container: str) -> bool:
        """Would placing ``container`` on ``host`` respect its quotas?
        Draining hosts accept nothing."""
        info = self._require_host(host)
        if host in self.draining:
            return False
        demand = self.containers[container]
        if self.placements.get(container) == host:
            return True  # already there
        if self.qp_usage(host) + demand.qps > info.qp_quota:
            return False
        if self.memory_usage(host) + demand.memory_bytes > info.memory_bytes:
            return False
        return True

    def candidates(self, container: str, exclude: Iterable[str] = ()) -> List[str]:
        """Placement candidates for ``container`` in registration order:
        not excluded, not draining, and with quota headroom."""
        excluded = set(exclude)
        return [name for name in self.hosts
                if name not in excluded and self.fits(name, container)]

    # ------------------------------------------------------------------
    # mutation

    def place(self, container: str, host: str) -> None:
        """Record a completed move (the scheduler calls this after the
        supervisor reports success)."""
        if container not in self.containers:
            raise LookupError(f"unknown container {container!r}")
        self._require_host(host)
        self.placements[container] = host

    def __repr__(self) -> str:
        return (f"<FleetState hosts={len(self.hosts)} "
                f"containers={len(self.containers)} "
                f"draining={sorted(self.draining)}>")
