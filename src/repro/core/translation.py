"""Translation tables: the heart of MigrRDMA's state virtualization (§3.3).

Four kinds of state need translating (Table 1); the data structures here
cover the two "not virtualized by the NIC" rows:

- :class:`QpnTable` — physical→virtual QPN.  The paper maintains a 2^24
  array indexed by physical QPN, shared read-only with every process.  A
  Python list of 16M entries would be gratuitous; the class keeps array
  *semantics* (one slot per physical QPN, O(1) lookup) in a dict and the
  benchmarks measure a real list-backed variant
  (:class:`DenseArrayTable`) for the data-structure claim.
- :class:`LkeyTable` — virtual→physical access keys, assigned densely
  ("one by one") so the table is a true array indexed by virtual key.
  Tables are per-process (the process id is part of the key space), which
  is the paper's defence against forged virtual keys.
- :class:`RkeyCache` — the partner-side cache of remote virtual→physical
  rkeys and QPNs, invalidated by the migration source during migration and
  refilled by fetching from the migration destination (§3.3, fourth row).
- :class:`LinkedListTable` — the LubeRDMA-style move-to-front linked list
  (§6), implemented for the comparison benchmarks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.config import QPN_SPACE


class QpnTable:
    """Physical→virtual QPN translation (one table per RNIC/server)."""

    def __init__(self):
        self._table: Dict[int, int] = {}

    def set(self, physical: int, virtual: int) -> None:
        if not 0 <= physical < QPN_SPACE:
            raise ValueError(f"physical QPN {physical:#x} outside 24-bit space")
        self._table[physical] = virtual

    def lookup(self, physical: int) -> int:
        try:
            return self._table[physical]
        except KeyError:
            raise LookupError(f"no virtual QPN for physical {physical:#x}") from None

    def lookup_or_identity(self, physical: int) -> int:
        return self._table.get(physical, physical)

    def delete(self, physical: int) -> None:
        self._table.pop(physical, None)

    def entries(self) -> List[Tuple[int, int]]:
        return list(self._table.items())

    def __len__(self) -> int:
        return len(self._table)


class LkeyTable:
    """Dense virtual→physical key table for one process.

    Virtual keys are assigned sequentially, so the table is an array and a
    lookup is one index operation — the design §3.3 argues beats
    LubeRDMA's linked list.
    """

    def __init__(self):
        self._physical: List[Optional[int]] = []
        # Maintained physical→virtual reverse index + live count, so the
        # WBS unvirtualize path and ``len()`` don't rescan the whole array
        # (per inflight WR / per invariant check at high fan-out).
        self._by_physical: Dict[int, int] = {}
        self._live = 0

    def allocate(self, physical: int) -> int:
        """Assign the next virtual key to ``physical``; returns the vkey."""
        self._physical.append(physical)
        vkey = len(self._physical) - 1
        self._by_physical[physical] = vkey
        self._live += 1
        return vkey

    def lookup(self, vkey: int) -> int:
        try:
            physical = self._physical[vkey]
        except IndexError:
            raise LookupError(f"virtual key {vkey} was never assigned") from None
        if physical is None:
            raise LookupError(f"virtual key {vkey} has been released")
        return physical

    def update(self, vkey: int, new_physical: int) -> None:
        """Point an existing virtual key at the restored physical key."""
        old = self.lookup(vkey)  # validates
        if self._by_physical.get(old) == vkey:
            del self._by_physical[old]
        self._physical[vkey] = new_physical
        self._by_physical[new_physical] = vkey

    def release(self, vkey: int) -> None:
        if 0 <= vkey < len(self._physical):
            physical = self._physical[vkey]
            if physical is not None:
                self._live -= 1
                if self._by_physical.get(physical) == vkey:
                    del self._by_physical[physical]
            self._physical[vkey] = None

    def vkey_for_physical(self, physical: int) -> Optional[int]:
        """Reverse-map a physical key to its (latest) virtual key."""
        vkey = self._by_physical.get(physical)
        if vkey is not None:
            return vkey
        # An update/release may have shadowed an older alias for the same
        # physical key; fall back to a last-wins scan and repair the index.
        for cand in range(len(self._physical) - 1, -1, -1):
            if self._physical[cand] == physical:
                self._by_physical[physical] = cand
                return cand
        return None

    def __len__(self) -> int:
        return self._live


class DenseArrayTable:
    """A genuinely list-backed v→p table for the microbenchmarks."""

    __slots__ = ("_slots",)

    def __init__(self):
        self._slots: List[int] = []

    def insert(self, physical: int) -> int:
        self._slots.append(physical)
        return len(self._slots) - 1

    def lookup(self, vkey: int) -> int:
        return self._slots[vkey]


class LinkedListTable:
    """LubeRDMA-style translation: a linked list searched front to back,
    with the found node moved to the head (§6's description).  Lookup cost
    grows with the working set when the application touches many MRs."""

    __slots__ = ("_head", "nodes_visited")

    class _Node:
        __slots__ = ("vkey", "physical", "next")

        def __init__(self, vkey: int, physical: int, nxt):
            self.vkey = vkey
            self.physical = physical
            self.next = nxt

    def __init__(self):
        self._head = None
        self.nodes_visited = 0  # instrumentation for the cycle model

    def insert(self, vkey: int, physical: int) -> None:
        self._head = self._Node(vkey, physical, self._head)

    def lookup(self, vkey: int) -> int:
        node = self._head
        prev = None
        visited = 0
        while node is not None:
            visited += 1
            if node.vkey == vkey:
                self.nodes_visited += visited
                if prev is not None:  # move to front
                    prev.next = node.next
                    node.next = self._head
                    self._head = node
                return node.physical
            prev, node = node, node.next
        self.nodes_visited += visited
        raise LookupError(f"virtual key {vkey} not in linked list")


class RkeyCache:
    """Partner-side cache of remote virtual→physical translations.

    Keys are ``(service_id, virtual_value)``; a miss requires a network
    fetch from the remote indirection layer (amortized over subsequent
    lookups, §3.3).  The migration source invalidates every partner's
    entries for the migrated service during migration.
    """

    def __init__(self):
        self._cache: Dict[Tuple[str, str, int], int] = {}
        # Maintained (kind, physical)→(service, virtual) reverse index so
        # the WBS unvirtualize path doesn't scan the whole cache per WR.
        self._by_physical: Dict[Tuple[str, int], Tuple[str, int]] = {}
        self.hits = 0
        self.misses = 0

    def get(self, service_id: str, kind: str, virtual: int) -> Optional[int]:
        value = self._cache.get((service_id, kind, virtual))
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, service_id: str, kind: str, virtual: int, physical: int) -> None:
        self._cache[(service_id, kind, virtual)] = physical
        # First-wins, matching the old scan's insertion-order semantics.
        self._by_physical.setdefault((kind, physical), (service_id, virtual))

    def reverse_lookup(self, kind: str, physical: int) -> Optional[Tuple[str, int]]:
        """Map a physical value back to its cached ``(service, virtual)``."""
        entry = self._by_physical.get((kind, physical))
        if entry is not None:
            return entry
        # An invalidation may have shadowed an alias from another service;
        # fall back to the scan and repair the index.
        for (sid, k, virtual), phys in self._cache.items():
            if k == kind and phys == physical:
                self._by_physical[(kind, physical)] = (sid, virtual)
                return (sid, virtual)
        return None

    def invalidate_service(self, service_id: str) -> int:
        """Drop every entry for a migrated service; returns entries removed."""
        return len(self.invalidate_service_keys(service_id))

    def invalidate_service_keys(self, service_id: str):
        """Like :meth:`invalidate_service` but returns the removed
        ``(kind, virtual)`` pairs — the working set a prefetch can re-warm."""
        stale = [k for k in self._cache if k[0] == service_id]
        for key in stale:
            sid, kind, virtual = key
            physical = self._cache.pop(key)
            if self._by_physical.get((kind, physical)) == (sid, virtual):
                del self._by_physical[(kind, physical)]
        return [(kind, virtual) for _sid, kind, virtual in stale]

    def __len__(self) -> int:
        return len(self._cache)
