"""Checkpoint records: the minimal state to rebuild RDMA communication.

Most RDMA state lives in the NIC and cannot be dumped (§3.2), so the
indirection layer intercepts every control-path call and keeps a *roadmap*
of resource creation — each record stores the arguments needed to replay
the call, plus the dependencies between resources (an MR needs its PD, a
QP needs PD and CQs...).  When a resource is destroyed its record is
deleted, so restore never creates-then-destroys (§3.2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Estimated serialized bytes per record (sizing the DumpRDMA transfer).
RECORD_BYTES = 96

_rids = itertools.count(1)


def new_rid() -> int:
    """Allocate a resource id, stable across migrations."""
    return next(_rids)


@dataclass
class ResourceRecord:
    """One logged control-path creation."""

    rid: int
    kind: str  # 'pd' | 'channel' | 'cq' | 'srq' | 'mr' | 'qp' | 'mw' | 'dm'
    pid: int
    args: dict = field(default_factory=dict)
    deps: List[int] = field(default_factory=list)

    def clone(self) -> "ResourceRecord":
        return ResourceRecord(rid=self.rid, kind=self.kind, pid=self.pid,
                              args=dict(self.args), deps=list(self.deps))


@dataclass
class QpConnectionMeta:
    """Connection metadata MigrRDMA adds to connection-oriented QPs (§3.2):
    destination physical QPN and destination network address, so the source
    can tell each partner which QPs to re-establish."""

    remote_node: Optional[str] = None
    remote_pqpn: Optional[int] = None
    #: virtual QPN of the remote QP (what the application knows/exchanged)
    remote_vqpn: Optional[int] = None


class ResourceLog:
    """Ordered creation log with dependency-respecting iteration."""

    def __init__(self):
        self._records: Dict[int, ResourceRecord] = {}
        #: vqpn -> rid of the first-logged live QP record carrying it (a QP
        #: record's ``args["vqpn"]`` is fixed when it is logged).  Later
        #: records with the same vqpn wait in ``_qp_shadowed``, in creation
        #: order: a migrated process can create a QP whose physical QPN
        #: equals one of its old vqpns.
        self._qp_rid: Dict[int, int] = {}
        self._qp_shadowed: Dict[int, List[int]] = {}

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, rid: int) -> bool:
        return rid in self._records

    def add(self, record: ResourceRecord) -> ResourceRecord:
        if record.rid in self._records:
            raise ValueError(f"duplicate record rid {record.rid}")
        missing = [d for d in record.deps if d not in self._records]
        if missing:
            raise ValueError(f"record {record.rid} depends on unknown rids {missing}")
        self._records[record.rid] = record
        vqpn = record.args.get("vqpn") if record.kind == "qp" else None
        if vqpn is not None:
            if vqpn in self._qp_rid:
                self._qp_shadowed.setdefault(vqpn, []).append(record.rid)
            else:
                self._qp_rid[vqpn] = record.rid
        return record

    def remove(self, rid: int) -> None:
        """Deleting a creation record when the resource is destroyed (§3.2)."""
        record = self._records.pop(rid, None)
        vqpn = record.args.get("vqpn") if record is not None and record.kind == "qp" else None
        if vqpn is None:
            return
        shadowed = self._qp_shadowed.get(vqpn, [])
        if self._qp_rid.get(vqpn) == rid:
            if shadowed:
                self._qp_rid[vqpn] = shadowed.pop(0)
            else:
                del self._qp_rid[vqpn]
        elif rid in shadowed:
            shadowed.remove(rid)
        if not shadowed:
            self._qp_shadowed.pop(vqpn, None)

    def get(self, rid: int) -> ResourceRecord:
        return self._records[rid]

    def in_creation_order(self) -> List[ResourceRecord]:
        """Records in insertion order (Python dicts preserve it), which is
        creation order and therefore already dependency-consistent."""
        return list(self._records.values())

    def of_kind(self, kind: str) -> List[ResourceRecord]:
        return [r for r in self._records.values() if r.kind == kind]

    def qp_rid(self, vqpn: int) -> Optional[int]:
        """The first-created live QP record with virtual QPN ``vqpn`` — what
        a scan of ``of_kind("qp")`` finds first — in O(1)."""
        return self._qp_rid.get(vqpn)

    def snapshot(self) -> List[ResourceRecord]:
        return [r.clone() for r in self._records.values()]
