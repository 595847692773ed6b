"""Placement leases with fencing epochs — the fleet's split-brain guard.

Every tracked container's placement is backed by a **lease** in the
:class:`~repro.fleet.state.FleetState` store: ``(holder host, epoch,
granted_s, expires_s)``.  The epoch is a classic fencing token — it only
ever increases, and it increases exactly once per handover — so at any
simulated instant the history of a container's leases forms a chain of
non-overlapping windows with strictly increasing epochs.  That chain is
what the ``lease-fencing`` invariant (:mod:`repro.chaos.invariants`)
replays after a run to prove no split-brain was reachable: two hosts
serving the same container at once would need two overlapping windows or
a reused epoch, and the store can produce neither.

Three rules, enforced mechanically:

- a **destination only goes live after acquiring the lease** — the
  orchestrator's resume gate calls :meth:`LeaseGuard.acquire`, which
  performs the fenced :meth:`LeaseTable.transfer` (close the source's
  window, open the destination's at epoch+1);
- a **source that loses the lease must stop serving** — once the
  transfer lands, the source host is *fenced* for that container:
  :meth:`LeaseTable.fenced` answers True until a reservation re-admits
  it, and the scheduler refuses fenced hosts as destinations (stale
  partial state);
- a **rerouted attempt releases its old reservation** — the supervisor
  rotating to an alternate destination drops the previous destination's
  pending reservation, so no epoch is ever promised to two hosts.
  Fencing is reserved for hosts where real state divergence exists: the
  old *holder* after a transfer (its memory image is stale the instant
  the destination goes live), or an explicit operator
  :meth:`LeaseTable.fence`.  A merely-abandoned reservation left nothing
  behind — the destination never went live — so the host stays eligible
  (the supervisor may well rotate back to it next attempt).

Leases are pure bookkeeping on the store: no timers, no scheduled
events, no RNG.  TTLs are evaluated lazily against the caller-provided
``now``, so installing the lease machinery leaves every fault-free
simulated timestamp bit-identical (same discipline as the failure
detector's zero-cost probes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

__all__ = ["Lease", "LeaseError", "LeaseGuard", "LeaseTable"]


class LeaseError(Exception):
    """A lease operation that would break the fencing discipline."""


@dataclass
class Lease:
    """One placement lease: ``holder`` may serve ``container`` while the
    lease is valid; ``epoch`` is the fencing token."""

    container: str
    holder: str
    epoch: int
    granted_s: float
    expires_s: float = math.inf
    #: sim time the lease was closed (release/transfer); inf while open
    closed_s: float = math.inf

    def valid(self, now: float) -> bool:
        return self.closed_s == math.inf and now < self.expires_s


class LeaseTable:
    """The FleetState store's lease ledger for every tracked container."""

    def __init__(self):
        self._current: Dict[str, Lease] = {}
        self._epochs: Dict[str, int] = {}
        #: closed leases, in close order (the invariant replays these)
        self.history: List[Lease] = []
        #: container -> (host, reserved epoch): a migration in flight has
        #: promised the next epoch to this destination
        self._reservations: Dict[str, Tuple[str, int]] = {}
        #: container -> hosts that once held (or reserved) the container
        #: and were revoked — not eligible as destinations again until a
        #: reservation re-admits them (stale partial state may linger there)
        self._fenced: Dict[str, Set[str]] = {}

    # ------------------------------------------------------------------
    # grant / release

    def grant(self, container: str, holder: str, now: float,
              ttl_s: float = math.inf) -> Lease:
        """Open a fresh lease at the next epoch.  Refuses while another
        holder's lease is still valid — that is the split-brain."""
        current = self._current.get(container)
        if current is not None and current.valid(now) \
                and current.holder != holder:
            raise LeaseError(
                f"container {container!r} lease is held by "
                f"{current.holder!r} (epoch {current.epoch}) until "
                f"t={current.expires_s:.6f}; {holder!r} may not be granted")
        if current is not None and current.closed_s == math.inf:
            self._close(current, now)
        epoch = self._epochs.get(container, 0) + 1
        self._epochs[container] = epoch
        lease = Lease(container=container, holder=holder, epoch=epoch,
                      granted_s=now, expires_s=now + ttl_s)
        self._current[container] = lease
        return lease

    def release(self, container: str, holder: str, now: float) -> None:
        lease = self._require(container)
        if lease.holder != holder:
            raise LeaseError(f"{holder!r} cannot release {container!r}: "
                             f"lease is held by {lease.holder!r}")
        self._close(lease, now)
        del self._current[container]

    def _close(self, lease: Lease, now: float) -> None:
        lease.closed_s = now
        lease.expires_s = min(lease.expires_s, now)
        self.history.append(lease)

    # ------------------------------------------------------------------
    # the fenced handover

    def reserve(self, container: str, host: str, now: float) -> int:
        """Promise the *next* epoch to ``host`` (the chosen destination).
        A fresh reservation replaces any previous one for a different
        host (the rerouted-job rule) and explicitly re-admits ``host``
        if it had been fenced — reserving is the store saying "this
        destination is clean to receive"."""
        self._require(container)
        previous = self._reservations.get(container)
        if previous is not None and previous[0] != host:
            self.release_reservation(container, previous[0], fence=False)
        self._fenced.get(container, set()).discard(host)
        epoch = self._epochs[container] + 1
        self._reservations[container] = (host, epoch)
        return epoch

    def reservation(self, container: str) -> Optional[str]:
        entry = self._reservations.get(container)
        return entry[0] if entry is not None else None

    def release_reservation(self, container: str, host: str,
                            fence: bool = False) -> None:
        """Drop ``host``'s pending reservation.  ``fence=True`` also bars
        the host (use when partial restore state may linger there)."""
        entry = self._reservations.get(container)
        if entry is None or entry[0] != host:
            return
        del self._reservations[container]
        if fence:
            self._fenced.setdefault(container, set()).add(host)

    def fence(self, container: str, host: str) -> None:
        """Bar ``host`` from serving or receiving ``container`` until a
        :meth:`reserve` re-admits it (operator mark, or a control plane
        that observed stale state there)."""
        self._fenced.setdefault(container, set()).add(host)

    def transfer(self, container: str, dest: str, now: float,
                 ttl_s: float = math.inf) -> Lease:
        """The go-live handover: atomically close the source's window,
        fence the source, and open the destination's lease at the
        reserved (strictly greater) epoch."""
        lease = self._require(container)
        reserved = self._reservations.pop(container, None)
        if reserved is not None and reserved[0] != dest:
            raise LeaseError(
                f"container {container!r} epoch {reserved[1]} is reserved "
                f"for {reserved[0]!r}; {dest!r} cannot acquire it")
        old_holder = lease.holder
        self._close(lease, now)
        self._fenced.setdefault(container, set()).add(old_holder)
        epoch = self._epochs[container] + 1
        self._epochs[container] = epoch
        fresh = Lease(container=container, holder=dest, epoch=epoch,
                      granted_s=now, expires_s=now + ttl_s)
        self._current[container] = fresh
        return fresh

    # ------------------------------------------------------------------
    # queries

    def _require(self, container: str) -> Lease:
        lease = self._current.get(container)
        if lease is None:
            raise LeaseError(f"container {container!r} has no lease")
        return lease

    def holder(self, container: str) -> Optional[str]:
        lease = self._current.get(container)
        return lease.holder if lease is not None else None

    def epoch(self, container: str) -> int:
        return self._epochs.get(container, 0)

    def current(self, container: str) -> Optional[Lease]:
        return self._current.get(container)

    def valid(self, container: str, now: float) -> bool:
        lease = self._current.get(container)
        return lease is not None and lease.valid(now)

    def fenced(self, container: str, host: str, now: float) -> bool:
        """May ``host`` serve (or receive) ``container``?  True means NO:
        the host was revoked for this container, or holds a lease that
        has expired (a source cut off by a partition)."""
        if host in self._fenced.get(container, ()):
            return True
        lease = self._current.get(container)
        if lease is not None and lease.holder == host \
                and not lease.valid(now):
            return True
        return False

    def leases(self, container: str) -> List[Lease]:
        """Full window chain for one container, in grant order."""
        chain = [l for l in self.history if l.container == container]
        current = self._current.get(container)
        if current is not None and current.closed_s == math.inf:
            chain.append(current)
        return sorted(chain, key=lambda l: l.epoch)

    def __len__(self) -> int:
        return len(self._current)

    def __repr__(self) -> str:
        return (f"<LeaseTable {len(self._current)} leases "
                f"{len(self._reservations)} reservations "
                f"{len(self.history)} closed>")


class LeaseGuard:
    """One migration attempt's handle on the lease table.

    Built by the scheduler at launch time and threaded through the
    supervisor into :class:`~repro.core.orchestrator.LiveMigration`,
    which calls :meth:`acquire` as its resume gate.  All methods are
    synchronous bookkeeping — no simulated time.
    """

    def __init__(self, table: LeaseTable, container: str, source: str):
        self.table = table
        self.container = container
        self.source = source

    def prepare(self, dest: str, now: float) -> int:
        """Reserve the next epoch for ``dest`` (called per attempt; a
        reroute to a new destination releases + fences the old one)."""
        return self.table.reserve(self.container, dest, now)

    def acquire(self, dest: str, now: float):
        """The destination go-live gate: fenced epoch transfer."""
        return self.table.transfer(self.container, dest, now)

    def abandon(self, now: float) -> None:
        """The attempt is over without a go-live: drop any pending
        reservation.  The destination never served, so it is not fenced
        — a requeued job may legitimately land there later."""
        host = self.table.reservation(self.container)
        if host is not None:
            self.table.release_reservation(self.container, host, fence=False)
