"""The driver-side indirection layer (Figure 2a).

One instance lives in each server's RDMA driver.  It does three jobs:

1. **Bookkeeping** — intercepts every control-path call, wraps the real
   NIC operation, and appends a :class:`~repro.core.records.ResourceRecord`
   to the per-process creation log (deleting it again on destroy).  The log
   is the minimal state needed to replay the control path on the
   migration destination (§3.2).

2. **Virtualization state** — owns the per-server QPN translation table
   (physical→virtual, array semantics over the 24-bit QPN space) and the
   per-process dense lkey/rkey tables, all shared read-only with the
   MigrRDMA guest libs (§3.3).  ``resources[rid]`` is the one level of
   indirection that lets a guest-lib handle survive migration: restore
   swaps the entry, the application's wrapper never changes.

3. **Suspension flags** — raised by the MigrRDMA plugin at stop-and-copy
   start and observed by each process's wait-before-stop thread (§3.4).

It also serves the control-plane resolution requests (virtual→physical
rkey/QPN fetches from partners) and records incoming ``n_sent`` values.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.cluster import AppProcess, Container, Server
from repro.core.control import ControlPlane
from repro.core.records import (
    QpConnectionMeta,
    ResourceLog,
    ResourceRecord,
    new_rid,
)
from repro.core.translation import LkeyTable, QpnTable
from repro.rnic import QP, AccessFlags, QPState, QPType
from repro.sim import Broadcast


class ProcessRdmaState:
    """Everything the indirection layer tracks for one process."""

    def __init__(self, sim, pid: int, service_id: str):
        self.pid = pid
        self.service_id = service_id
        self.log = ResourceLog()
        #: rid -> live NIC-side object (QP/CQ/MR/PD/SRQ/MW/DM/channel).
        #: Shared with the guest lib; restore swaps entries in place.
        self.resources: Dict[int, object] = {}
        self.lkey_table = LkeyTable()
        self.rkey_table = LkeyTable()
        #: vqpn -> suspended?  (the shared suspension flags)
        self.suspended: Dict[int, bool] = {}
        self.suspend_signal = Broadcast(sim)
        #: vqpn -> expected n_sent received from the peer during WBS
        self.expected_n_sent: Dict[int, int] = {}
        #: rids of MRs whose restore was deferred to stop-and-copy (§3.2)
        self.deferred_mr_rids: Set[int] = set()

    def qp_records(self):
        return self.log.of_kind("qp")


class IndirectionLayer:
    """Per-server MigrRDMA driver component."""

    def __init__(self, server: Server, control: ControlPlane):
        self.server = server
        self.sim = server.sim
        self.rnic = server.rnic
        self.control = control
        self.qpn_table = QpnTable()
        self.processes: Dict[int, ProcessRdmaState] = {}
        #: vqpn -> (pid, service_id): who owns each virtual QPN here
        self.vqpn_index: Dict[int, Tuple[int, str]] = {}
        #: vqpn -> destination node for migrated-away services: the source
        #: answers resolution requests with a forwarding pointer, like the
        #: fabric-level forwarding §2.1 describes for virtual networks.
        self.moved_vqpns: Dict[int, str] = {}

        control.register(server.name, "resolve_qpn", self._srv_resolve_qpn)
        control.register(server.name, "resolve_rkey", self._srv_resolve_rkey)
        control.register(server.name, "resolve_rkey_batch", self._srv_resolve_rkey_batch)
        control.register(server.name, "record_n_sent", self._srv_record_n_sent)

    # ------------------------------------------------------------------
    # Process registration
    # ------------------------------------------------------------------

    def register_process(self, process: AppProcess, container: Container) -> ProcessRdmaState:
        if process.pid in self.processes:
            raise ValueError(f"process {process.pid} already registered")
        state = ProcessRdmaState(self.sim, process.pid, container.container_id)
        self.processes[process.pid] = state
        return state

    def adopt_process_state(self, state: ProcessRdmaState) -> None:
        """Install restored per-process state on the destination server."""
        self.processes[state.pid] = state

    def drop_process(self, pid: int, moved_to: Optional[str] = None) -> Optional[ProcessRdmaState]:
        state = self.processes.pop(pid, None)
        if state is not None:
            for vqpn in list(self.vqpn_index):
                if self.vqpn_index[vqpn][0] == pid:
                    del self.vqpn_index[vqpn]
                    if moved_to is not None:
                        self.moved_vqpns[vqpn] = moved_to
        return state

    # ------------------------------------------------------------------
    # Control path: wrapped + logged NIC calls (generators)
    # ------------------------------------------------------------------

    def alloc_pd(self, state: ProcessRdmaState):
        pd = yield from self.rnic.alloc_pd()
        rid = new_rid()
        state.log.add(ResourceRecord(rid=rid, kind="pd", pid=state.pid))
        state.resources[rid] = pd
        return pd, rid

    def create_comp_channel(self, state: ProcessRdmaState):
        channel = yield from self.rnic.create_comp_channel()
        rid = new_rid()
        state.log.add(ResourceRecord(rid=rid, kind="channel", pid=state.pid))
        state.resources[rid] = channel
        return channel, rid

    def create_cq(self, state: ProcessRdmaState, depth: int, channel_rid: Optional[int] = None):
        channel = state.resources[channel_rid] if channel_rid is not None else None
        cq = yield from self.rnic.create_cq(depth, channel)
        rid = new_rid()
        state.log.add(ResourceRecord(
            rid=rid, kind="cq", pid=state.pid,
            args={"depth": depth, "channel_rid": channel_rid},
            deps=[channel_rid] if channel_rid is not None else []))
        state.resources[rid] = cq
        return cq, rid

    def create_srq(self, state: ProcessRdmaState, pd_rid: int, max_wr: int):
        srq = yield from self.rnic.create_srq(state.resources[pd_rid], max_wr)
        rid = new_rid()
        state.log.add(ResourceRecord(
            rid=rid, kind="srq", pid=state.pid,
            args={"pd_rid": pd_rid, "max_wr": max_wr}, deps=[pd_rid]))
        state.resources[rid] = srq
        return srq, rid

    def reg_mr(self, state: ProcessRdmaState, process: AppProcess, pd_rid: int,
               addr: int, length: int, access: AccessFlags, on_chip: bool = False):
        mr = yield from self.rnic.reg_mr(
            state.resources[pd_rid], process.space, addr, length, access, on_chip=on_chip)
        rid = new_rid()
        vlkey = state.lkey_table.allocate(mr.lkey)
        vrkey = state.rkey_table.allocate(mr.rkey)
        state.log.add(ResourceRecord(
            rid=rid, kind="mr", pid=state.pid,
            args={"pd_rid": pd_rid, "addr": addr, "length": length,
                  "access": access, "vlkey": vlkey, "vrkey": vrkey,
                  "on_chip": on_chip},
            deps=[pd_rid]))
        state.resources[rid] = mr
        return mr, rid, vlkey, vrkey

    def alloc_dm(self, state: ProcessRdmaState, process: AppProcess, length: int):
        dm = yield from self.rnic.alloc_dm(length)
        vma = process.space.mmap(length, tag="on-chip", name=f"dm{dm.handle}")
        dm.mapped_addr = vma.start
        rid = new_rid()
        state.log.add(ResourceRecord(
            rid=rid, kind="dm", pid=state.pid,
            args={"length": length, "mapped_addr": vma.start}))
        state.resources[rid] = dm
        return dm, rid

    def alloc_mw(self, state: ProcessRdmaState, pd_rid: int):
        mw = yield from self.rnic.alloc_mw(state.resources[pd_rid])
        rid = new_rid()
        vrkey = state.rkey_table.allocate(0)  # placeholder until bound
        state.log.add(ResourceRecord(
            rid=rid, kind="mw", pid=state.pid,
            args={"pd_rid": pd_rid, "vrkey": vrkey, "bound": False},
            deps=[pd_rid]))
        state.resources[rid] = mw
        return mw, rid, vrkey

    def note_mw_bound(self, state: ProcessRdmaState, rid: int, mr_rid: int,
                      addr: int, length: int, access: AccessFlags, physical_rkey: int) -> None:
        """Record a completed window bind so restore can replay it."""
        record = state.log.get(rid)
        record.args.update({"bound": True, "mr_rid": mr_rid, "addr": addr,
                            "length": length, "bind_access": access})
        if mr_rid not in record.deps:
            record.deps.append(mr_rid)
        vrkey = record.args["vrkey"]
        state.rkey_table.update(vrkey, physical_rkey)

    def create_qp(self, state: ProcessRdmaState, pd_rid: int, qp_type: QPType,
                  send_cq_rid: int, recv_cq_rid: int, max_send_wr: int,
                  max_recv_wr: int, srq_rid: Optional[int] = None,
                  max_rd_atomic: int = 16, max_inline_data: int = 220,
                  tenant: Optional[str] = None):
        srq = state.resources[srq_rid] if srq_rid is not None else None
        qp = yield from self.rnic.create_qp(
            state.resources[pd_rid], qp_type,
            state.resources[send_cq_rid], state.resources[recv_cq_rid],
            max_send_wr, max_recv_wr, srq=srq,
            max_rd_atomic=max_rd_atomic, max_inline_data=max_inline_data,
            tenant=tenant)
        rid = new_rid()
        # "MigrRDMA just sets the virtual QPN the same as the physical
        # value" at creation time (§3.3).
        vqpn = qp.qpn
        self.qpn_table.set(qp.qpn, vqpn)
        self.vqpn_index[vqpn] = (state.pid, state.service_id)
        state.suspended[vqpn] = False
        deps = [pd_rid, send_cq_rid, recv_cq_rid] + ([srq_rid] if srq_rid is not None else [])
        state.log.add(ResourceRecord(
            rid=rid, kind="qp", pid=state.pid,
            args={"pd_rid": pd_rid, "qp_type": qp_type,
                  "send_cq_rid": send_cq_rid, "recv_cq_rid": recv_cq_rid,
                  "srq_rid": srq_rid, "max_send_wr": max_send_wr,
                  "max_recv_wr": max_recv_wr, "vqpn": vqpn,
                  "max_rd_atomic": max_rd_atomic,
                  "max_inline_data": max_inline_data,
                  "tenant": tenant,
                  "conn": QpConnectionMeta(), "state": "RESET"},
            deps=deps))
        state.resources[rid] = qp
        return qp, rid, vqpn

    def modify_qp(self, state: ProcessRdmaState, rid: int, new_state: QPState,
                  remote_node: Optional[str] = None, remote_pqpn: Optional[int] = None,
                  remote_vqpn: Optional[int] = None):
        qp: QP = state.resources[rid]
        yield from self.rnic.modify_qp(qp, new_state, remote_node, remote_pqpn)
        record = state.log.get(rid)
        record.args["state"] = new_state.value
        if new_state is QPState.RTR and remote_node is not None:
            record.args["conn"] = QpConnectionMeta(
                remote_node=remote_node, remote_pqpn=remote_pqpn,
                remote_vqpn=remote_vqpn)

    def destroy_qp(self, state: ProcessRdmaState, rid: int):
        qp: QP = state.resources.pop(rid)
        record = state.log.get(rid)
        vqpn = record.args["vqpn"]
        yield from self.rnic.destroy_qp(qp)
        self.qpn_table.delete(qp.qpn)
        self.vqpn_index.pop(vqpn, None)
        state.suspended.pop(vqpn, None)
        state.log.remove(rid)

    def dereg_mr(self, state: ProcessRdmaState, rid: int):
        mr = state.resources.pop(rid)
        record = state.log.get(rid)
        yield from self.rnic.dereg_mr(mr)
        state.lkey_table.release(record.args["vlkey"])
        state.rkey_table.release(record.args["vrkey"])
        state.log.remove(rid)

    # ------------------------------------------------------------------
    # Suspension (§3.4)
    # ------------------------------------------------------------------

    def raise_suspension(self, pid: int, vqpns: Optional[Set[int]] = None) -> None:
        """Raise suspension flags (all QPs when ``vqpns`` is None) and wake
        the process's wait-before-stop thread."""
        state = self.processes[pid]
        targets = vqpns if vqpns is not None else set(state.suspended)
        for vqpn in targets:
            if vqpn in state.suspended:
                state.suspended[vqpn] = True
        state.suspend_signal.fire(targets)

    def clear_suspension(self, pid: int) -> None:
        state = self.processes[pid]
        for vqpn in state.suspended:
            state.suspended[vqpn] = False
        state.expected_n_sent.clear()

    # ------------------------------------------------------------------
    # Control-plane services
    # ------------------------------------------------------------------

    def _find_service_state(self, service_id: str) -> Optional[ProcessRdmaState]:
        for state in self.processes.values():
            if state.service_id == service_id:
                return state
        return None

    def _srv_resolve_qpn(self, request: dict):
        """vqpn -> current physical QPN (+ owning service id)."""
        vqpn = request["vqpn"]
        owner = self.vqpn_index.get(vqpn)
        if owner is None:
            moved = self.moved_vqpns.get(vqpn)
            if moved is not None:
                return {"found": False, "moved": moved}
            return {"found": False}
        pid, service_id = owner
        state = self.processes[pid]
        rid = state.log.qp_rid(vqpn)
        if rid is None:
            return {"found": False}
        qp: QP = state.resources[rid]
        return {"found": True, "pqpn": qp.qpn, "service_id": service_id}

    def _srv_resolve_rkey(self, request: dict):
        """(service_id, vrkey) -> current physical rkey."""
        state = self._find_service_state(request["service_id"])
        if state is None:
            return {"found": False}
        try:
            physical = state.rkey_table.lookup(request["vrkey"])
        except LookupError:
            return {"found": False}
        return {"found": True, "rkey": physical}

    def _srv_resolve_rkey_batch(self, request: dict):
        """Batch fetch (§3.3 future work): many vrkeys in one round trip."""
        state = self._find_service_state(request["service_id"])
        if state is None:
            return {"found": False}
        mappings = {}
        for vrkey in request["vrkeys"]:
            try:
                mappings[vrkey] = state.rkey_table.lookup(vrkey)
            except LookupError:
                continue
        return {"found": True, "mappings": mappings}

    def _srv_record_n_sent(self, request: dict):
        """Peer WBS thread reports how many two-sided verbs it posted to a
        QP of ours (identified by our virtual QPN)."""
        vqpn = request["vqpn"]
        owner = self.vqpn_index.get(vqpn)
        if owner is None:
            moved = self.moved_vqpns.get(vqpn)
            if moved is not None:
                return {"found": False, "moved": moved}
            return {"found": False}
        state = self.processes[owner[0]]
        state.expected_n_sent[vqpn] = max(
            state.expected_n_sent.get(vqpn, 0), request["n_sent"])
        state.suspend_signal.fire(set())  # re-evaluate WBS conditions
        return {"found": True}
