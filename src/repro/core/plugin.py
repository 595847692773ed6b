"""The MigrRDMA CRIU plugin (Figure 2a).

Bridges the live-migration tool and the indirection layer:

- at pre-copy start it **pre-dumps** the RDMA creation log,
- during partial restore it tells CRIU which memory must be **pinned** at
  the application's original virtual addresses (MR buffers, queue rings,
  on-chip memory) and then drives **RDMA pre-setup** through the Host Lib,
- at stop-and-copy it dumps the **diff** (records created since pre-dump
  plus the virtualization info),
- after full restore it registers deferred/new MRs, applies the staged
  translation-table updates, re-homes the guest libs, and replays
  intercepted and unmatched-RECV WRs (Step 7 of Figure 2b).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Set, Tuple

from repro.cluster import Container, Server
from repro.core.host_lib import HostLib, RestorePlan
from repro.core.indirection import ProcessRdmaState
from repro.core.records import RECORD_BYTES, ResourceRecord
from repro.core.world import MigrRdmaWorld
from repro.mem import AddressSpace, MemoryError_
from repro.migration.criu import CriuPlugin, RestoreSession
from repro.migration.images import ProcessImage

#: Serialized size of the stop-and-copy virtualization info per resource
#: (virtual QPNs, virtual key table rows).
VIRT_INFO_BYTES = 24


def mr_memory_unmapped(space: AddressSpace, record: ResourceRecord) -> bool:
    """Pre-setup defers an MR registration whose memory is not at its
    original address yet.  Only an unmapped range means that; any other
    error is a malformed record and propagates."""
    args = record.args
    try:
        space.find_range(args["addr"], args["length"])
    except MemoryError_:
        return True
    return False


class MigrRdmaPlugin(CriuPlugin):
    """One plugin instance per migration."""

    def __init__(self, world: MigrRdmaWorld, source: Server, dest: Server,
                 presetup: bool = True):
        self.world = world
        self.source = source
        self.dest = dest
        self.presetup = presetup
        self.sim = world.sim
        self.host_lib = HostLib(world.layer(dest.name))
        #: pid -> restore plan (built during pre-setup or RestoreRDMA)
        self.plans: Dict[int, RestorePlan] = {}
        #: pid -> rids known at pre-dump time
        self.predump_rids: Dict[int, Set[int]] = {}
        self.service_id: Optional[str] = None

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _states(self, container: Container) -> List[Tuple[int, ProcessRdmaState]]:
        layer = self.world.layer(self.source.name)
        out = []
        for process in container.processes:
            state = layer.processes.get(process.pid)
            if state is not None:
                out.append((process.pid, state))
        return out

    def partner_map(self, container: Container) -> Dict[str, List[int]]:
        """partner node -> list of the *partner's* physical QPNs connected
        to this service (from the QP metadata fields §3.2 adds).

        A partner may live on the migration source or destination host —
        the paper's testbed never colocates peers, but fleet placements
        do routinely (a drain can land a container next to its peer).
        The control plane short-circuits same-server calls, so those
        partners run the ordinary notify/pre-setup/switchover flow.  Only
        QPs connected to the migrating container *itself* (self-loops:
        both ends move together) are skipped.
        """
        own_pqpns: Set[int] = set()
        for _pid, state in self._states(container):
            for record in state.qp_records():
                phys = state.resources.get(record.rid)
                qpn = getattr(phys, "qpn", None)
                if qpn is not None:
                    own_pqpns.add(qpn)
        partners: Dict[str, List[int]] = {}
        for _pid, state in self._states(container):
            for record in state.qp_records():
                conn = record.args.get("conn")
                if conn is None or conn.remote_node is None:
                    continue
                if (conn.remote_node == self.source.name
                        and conn.remote_pqpn in own_pqpns):
                    continue
                partners.setdefault(conn.remote_node, []).append(conn.remote_pqpn)
        return partners

    # ------------------------------------------------------------------
    # CriuPlugin hooks
    # ------------------------------------------------------------------

    def pre_dump_rdma(self, container: Container):
        """Dump the creation log (first CheckpointRDMA call)."""
        self.service_id = container.container_id
        mig = self.sim
        total_records = 0
        for pid, state in self._states(container):
            self.predump_rids[pid] = {r.rid for r in state.log.in_creation_order()}
            total_records += len(state.log)
        cfg = self.world.tb.config.migration
        yield self.sim.timeout(
            cfg.dump_rdma_base_s + total_records * cfg.dump_rdma_per_resource_s)
        return dict(self.predump_rids), total_records * RECORD_BYTES

    def dump_rdma_diff(self, container: Container):
        """Stop-and-copy dump: records created/destroyed since pre-dump plus
        the virtualization info (virtual QPNs/keys)."""
        changed = 0
        total = 0
        for pid, state in self._states(container):
            known = self.predump_rids.get(pid, set())
            current = {r.rid for r in state.log.in_creation_order()}
            changed += len(current - known) + len(known - current)
            total += len(current)
        cfg = self.world.tb.config.migration
        yield self.sim.timeout(
            cfg.dump_rdma_base_s / 4 + changed * cfg.dump_rdma_per_resource_s)
        nbytes = changed * RECORD_BYTES + total * VIRT_INFO_BYTES
        return {"changed": changed}, nbytes

    def pinned_ranges(self, session: RestoreSession, image: ProcessImage):
        """MR buffers, queue rings and on-chip memory must sit at their
        original virtual addresses before memory restoration starts (§3.2)."""
        if not self.presetup:
            return []
        layer = self.world.layer(self.source.name)
        state = layer.processes.get(image.pid)
        pins: List[Tuple[int, int]] = []
        if state is not None:
            for record in state.log.of_kind("mr"):
                args = record.args
                pins.append((args["addr"], args["addr"] + args["length"]))
            for record in state.log.of_kind("dm"):
                args = record.args
                pins.append((args["mapped_addr"], args["mapped_addr"] + args["length"]))
        for start, length, tag, _name in image.memory.layout:
            if tag in ("rdma-queue", "on-chip"):
                pins.append((start, start + length))
        return pins

    def pre_restore(self, session: RestoreSession):
        """RDMA pre-setup: replay the pre-dumped log on the destination
        (runs during partial restore, concurrent with the live service)."""
        if not self.presetup:
            return
        yield from self._restore_all(session, defer_conflicts=True)

    def _restore_all(self, session: RestoreSession, defer_conflicts: bool):
        agent = self.world.agent(self.dest.name)
        for pid, state in self._states_for_session(session):
            dest_process = session.processes[pid]
            defer = (partial(mr_memory_unmapped, dest_process.space)
                     if defer_conflicts else None)
            plan = yield from self.host_lib.restore_process(state, dest_process, defer)
            self.plans[pid] = plan
            agent.register_plan(state.service_id, plan)

    def _states_for_session(self, session: RestoreSession):
        layer = self.world.layer(self.source.name)
        out = []
        for pid in session.processes:
            state = layer.processes.get(pid)
            if state is not None:
                out.append((pid, state))
        return out

    def post_restore(self, session: RestoreSession):
        """Step 6/7 on the destination (pre-setup path): catch up on
        resources created since pre-dump, register deferred MRs, apply the
        plans, re-home the guest libs, replay WRs."""
        if not self.presetup:
            return
        yield from self.finalize_restore(session)

    # ------------------------------------------------------------------
    # shared finalization (used by both the pre-setup and RestoreRDMA paths)
    # ------------------------------------------------------------------

    def restore_rdma_full(self, session: RestoreSession):
        """The no-pre-setup path: full RDMA restoration during blackout,
        after memory is back at its original addresses."""
        yield from self._restore_all(session, defer_conflicts=False)

    def finalize_restore(self, session: RestoreSession):
        source_layer = self.world.layer(self.source.name)
        dest_layer = self.world.layer(self.dest.name)
        for pid, plan in list(self.plans.items()):
            state = plan.state
            # Resources created on the source after pre-setup began.
            for record in state.log.in_creation_order():
                if not plan.is_restored(record.rid) and record not in plan.deferred:
                    yield from self.host_lib.restore_record(plan, record)
            # Resources destroyed on the source after pre-setup: their log
            # entries are gone, so drop the pre-created destination copies.
            live_rids = {r.rid for r in state.log.in_creation_order()}
            for rid in [r for r in plan.resources if r not in live_rids]:
                obj = plan.resources.pop(rid)
                if hasattr(obj, "qpn"):
                    yield from dest_layer.rnic.destroy_qp(obj)
                elif hasattr(obj, "lkey"):
                    yield from dest_layer.rnic.dereg_mr(obj)
            # Conflicting MRs: now that the restorer memory is released and
            # every VMA is home, register them (§3.2).
            yield from self.host_lib.restore_deferred(plan)
            # Atomic switchover of the shared tables and resource map.
            self.host_lib.apply_plan(plan)
            # Re-home the state and the guest lib; the source keeps
            # forwarding pointers for late resolution requests.
            source_layer.drop_process(pid, moved_to=self.dest.name)
            dest_layer.adopt_process_state(state)
            lib = self.world.lib_for_pid(pid)
            if lib is not None:
                lib.rebind(dest_layer, session.processes[pid])
                self.world.move_lib(lib, self.source.name, self.dest.name)
                dest_layer.clear_suspension(pid)
                lib.wbs.reset()
                for vqp in list(lib.virt_qps.values()):
                    lib.replay_after_restore(vqp)
        # Hand the applications over to the restored container.
        session.container.apps = list(getattr(self._source_container(session), "apps", []))

    def _source_container(self, session: RestoreSession) -> Optional[Container]:
        return self.source.containers.get(session.container.name)

    # ------------------------------------------------------------------
    # abort/rollback (pre-copy only: nothing is committed yet)
    # ------------------------------------------------------------------

    def rollback(self, session: RestoreSession):
        """Generator: tear down everything pre-setup created on the
        destination.  The source was never suspended or frozen, so the
        service keeps running untouched — pre-setup is non-destructive."""
        dest_layer = self.world.layer(self.dest.name)
        agent = self.world.agent(self.dest.name)
        for pid, plan in list(self.plans.items()):
            # The exchange rewired each connected record's ``conn`` to the
            # partner's *new* pQPN (host_lib.connect_restored_qp) — but the
            # record belongs to the still-live source state, and the cancel
            # below destroys those partner QPs.  Point the records back at
            # the original wiring (the exchange_index keys preserve it) so
            # a retry advertises pQPNs that actually exist.
            for (node, old_pqpn), rid in plan.exchange_index.items():
                conn = plan.state.log.get(rid).args.get("conn")
                if conn is not None:
                    conn.remote_node = node
                    conn.remote_pqpn = old_pqpn
            for rid, obj in list(plan.resources.items()):
                if hasattr(obj, "qpn"):
                    dest_layer.qpn_table.delete(obj.qpn)
                    yield from dest_layer.rnic.destroy_qp(obj)
                elif hasattr(obj, "lkey"):
                    if not obj.invalidated:
                        yield from dest_layer.rnic.dereg_mr(obj)
                elif hasattr(obj, "freed"):
                    yield from dest_layer.rnic.free_dm(obj)
            plan.state.deferred_mr_rids.clear()
            for vqpn, owner in list(dest_layer.vqpn_index.items()):
                if owner[0] == pid:
                    del dest_layer.vqpn_index[vqpn]
            del self.plans[pid]
        agent.pending_plans.pop(self.service_id, None)

    # ------------------------------------------------------------------
    # source cleanup (after migration completes)
    # ------------------------------------------------------------------

    def cleanup_source(self, old_resources: Dict[int, Dict[int, object]]):
        """Generator: reclaim the source-side physical resources."""
        rnic = self.source.rnic
        for pid, resources in old_resources.items():
            for obj in resources.values():
                if hasattr(obj, "qpn"):
                    yield from rnic.destroy_qp(obj)
                    self.world.layer(self.source.name).qpn_table.delete(obj.qpn)
                elif hasattr(obj, "lkey"):
                    if not obj.invalidated:
                        yield from rnic.dereg_mr(obj)

    def snapshot_source_resources(self, container: Container) -> Dict[int, Dict[int, object]]:
        """Capture the source's physical objects before plans are applied."""
        out: Dict[int, Dict[int, object]] = {}
        for pid, state in self._states(container):
            out[pid] = dict(state.resources)
        return out
