"""MigrRDMA Guest Lib: the interposed verbs library (Figure 2a).

Applications link against this instead of the plain RDMA library.  It
implements the same :class:`~repro.verbs.api.VerbsAPI` surface, so the
interposition is invisible — which is the whole point.  On the data path
it

- checks the per-QP **suspension flag** shared by the indirection layer;
  suspended send WRs are intercepted and buffered ("pretends they had been
  posted on the wire", §3.4) while RECV WRs pass through (they generate no
  wire traffic and keep the peer's inflight SENDs completable),
- translates virtual→physical **lkeys** (dense array, §3.3) on every SGE,
- translates virtual→physical **rkeys / remote QPNs** through the local
  cache, fetching from the remote indirection layer on first use and
  preserving per-QP ordering while a fetch is outstanding,
- translates physical→virtual **QPNs** in every polled CQ entry, checking
  the fake CQ first after a migration (§3.4),

charging the cycle costs of each action so Table 4's measurement falls out
of the same code path that does the work.
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter
from typing import Deque, Dict, List, Optional, Tuple

from repro.cluster import AppProcess, Container
from repro.core.control import ControlPlane
from repro.core.indirection import IndirectionLayer, ProcessRdmaState
from repro.core.translation import RkeyCache
from repro.core.wbs import WaitBeforeStop
from repro.rnic import (
    CQ,
    Opcode,
    QPType,
    RecvWR,
    SendWR,
    WorkCompletion,
)
from repro.rnic.wr import SGE, clone_recv_wr, clone_send_wr
from repro.verbs.api import _OP_LABEL, VerbsAPI, capture_inline

_lkey_of = attrgetter("lkey")


def _with_qpn(wc: WorkCompletion, vqpn: int) -> WorkCompletion:
    """The CQE as the application sees it: carrying its virtual QPN."""
    if vqpn == wc.qp_num:
        return wc  # identity translation: the CQE goes up as-is
    return WorkCompletion(
        wr_id=wc.wr_id, status=wc.status, opcode=wc.opcode,
        qp_num=vqpn, byte_len=wc.byte_len, imm_data=wc.imm_data)


class VirtPD:
    __slots__ = ("rid",)

    def __init__(self, rid: int):
        self.rid = rid


class VirtChannel:
    __slots__ = ("rid", "lib")

    def __init__(self, rid: int, lib: "MigrRdmaGuestLib"):
        self.rid = rid
        self.lib = lib

    @property
    def _phys(self):
        return self.lib.state.resources[self.rid]


class VirtMR:
    """What the application holds: original address, *virtual* keys."""

    __slots__ = ("rid", "addr", "length", "lkey", "rkey", "lib")

    def __init__(self, rid: int, addr: int, length: int, vlkey: int, vrkey: int,
                 lib: "MigrRdmaGuestLib"):
        self.rid = rid
        self.addr = addr
        self.length = length
        self.lkey = vlkey  # virtual
        self.rkey = vrkey  # virtual
        self.lib = lib


class VirtDM:
    __slots__ = ("rid", "length", "mapped_addr", "lib")

    def __init__(self, rid: int, length: int, mapped_addr: int, lib: "MigrRdmaGuestLib"):
        self.rid = rid
        self.length = length
        self.mapped_addr = mapped_addr
        self.lib = lib


class VirtMW:
    __slots__ = ("rid", "rkey", "lib", "addr", "length")

    def __init__(self, rid: int, vrkey: int, lib: "MigrRdmaGuestLib"):
        self.rid = rid
        self.rkey = vrkey  # virtual
        self.lib = lib
        self.addr = 0
        self.length = 0


class VirtCQ:
    """A CQ handle with its migration-time fake CQ (§3.4)."""

    __slots__ = ("rid", "lib", "fake", "uses_events")

    def __init__(self, rid: int, lib: "MigrRdmaGuestLib", uses_events: bool):
        self.rid = rid
        self.lib = lib
        self.fake: Deque[WorkCompletion] = deque()
        self.uses_events = uses_events

    @property
    def _phys(self) -> CQ:
        return self.lib.state.resources[self.rid]


class VirtSRQ:
    __slots__ = ("rid", "lib", "posted_recvs")

    def __init__(self, rid: int, lib: "MigrRdmaGuestLib"):
        self.rid = rid
        self.lib = lib
        #: application-level RECV WRs posted and not yet consumed
        self.posted_recvs: List[RecvWR] = []

    @property
    def _phys(self):
        return self.lib.state.resources[self.rid]


class VirtQP:
    """The application-visible QP: stable virtual QPN, swap-able backing."""

    __slots__ = (
        "rid", "vqpn", "qp_type", "lib", "send_vcq", "recv_vcq", "vsrq",
        "remote_service", "remote_node", "remote_vqpn", "passthrough",
        "intercepted_sends", "posted_recvs", "pending_fetch", "fetch_active",
        "unacked_for_replay", "backlog", "xlate_cache",
    )

    def __init__(self, rid: int, vqpn: int, qp_type: QPType, lib: "MigrRdmaGuestLib",
                 send_vcq: VirtCQ, recv_vcq: VirtCQ, vsrq: Optional[VirtSRQ]):
        self.rid = rid
        self.vqpn = vqpn
        self.qp_type = qp_type
        self.lib = lib
        self.send_vcq = send_vcq
        self.recv_vcq = recv_vcq
        self.vsrq = vsrq
        self.remote_service: Optional[str] = None
        self.remote_node: Optional[str] = None  # current location of the peer
        self.remote_vqpn: Optional[int] = None
        self.passthrough = False  # peer does not run MigrRDMA (§6 hybrid)
        # The WR queues are plain lists: an empty one costs 56 bytes where
        # an empty deque costs 760, and none holds more than a few queue
        # depths, so popping the head stays cheap.
        self.intercepted_sends: List[SendWR] = []
        self.posted_recvs: List[RecvWR] = []
        self.pending_fetch: List[SendWR] = []
        self.fetch_active = False
        #: WRs posted-but-not-completed when WBS timed out (§3.4 last ¶)
        self.unacked_for_replay: List[SendWR] = []
        #: translated WRs waiting for send-queue space (replay bursts can
        #: exceed the restored QP's depth; they drain as completions arrive)
        self.backlog: List[SendWR] = []
        #: memoized lkey translation: (lib epoch, virtual lkeys, physical
        #: lkeys) of the last WR — applications overwhelmingly re-post the
        #: same SGE shape, so this skips the per-SGE table walk.
        self.xlate_cache: Optional[Tuple[int, Tuple[int, ...], Tuple[int, ...]]] = None

    @property
    def qpn(self) -> int:
        return self.vqpn

    @property
    def _phys(self):
        return self.lib.state.resources[self.rid]

    @property
    def suspended(self) -> bool:
        return self.lib.state.suspended.get(self.vqpn, False)


class MigrRdmaGuestLib(VerbsAPI):
    """The MigrRDMA-modified RDMA library loaded in each process."""

    def __init__(self, process: AppProcess, layer: IndirectionLayer,
                 control: ControlPlane, container: Container):
        self.process = process
        self.layer = layer
        self.control = control
        self.sim = layer.sim
        self.state: ProcessRdmaState = layer.register_process(process, container)
        self.container = container

        self.virt_qps: Dict[int, VirtQP] = {}  # by vqpn
        self.virt_cqs: List[VirtCQ] = []
        self.rkey_cache = RkeyCache()
        #: service_id -> node currently hosting it
        self.service_directory: Dict[str, str] = {}
        self.unfinished_cq_events = 0
        #: control-plane fetch RPCs issued for rkey/remote-QPN resolution
        self.fetch_rpcs = 0
        #: successful demand resolutions (cache fills from fetches)
        self.demand_fetches = 0
        #: send WRs intercepted while suspended (buffered for replay, §3.4)
        self.wrs_intercepted = 0
        #: WRs re-posted by :meth:`replay_after_restore` (sends and recvs)
        self.wrs_replayed = 0
        #: old physical QPN -> vqpn, for fake-CQ translation after restore
        self.temp_qpn_map: Dict[int, int] = {}
        self._pending_binds: Dict[Tuple[int, int], Tuple[VirtMW, VirtMR, int, object]] = {}
        #: bumped whenever lkey translations may change (restore rebind,
        #: MR deregistration) — invalidates every VirtQP.xlate_cache.
        self._xlate_epoch = 0

        self.wbs = WaitBeforeStop(self)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    @property
    def node_name(self) -> str:
        return self.layer.server.name

    def _trace_lane(self, tracer):
        return tracer.lane(self.node_name, f"lib:pid{self.process.pid}")

    def rebind(self, layer: IndirectionLayer, process: AppProcess) -> None:
        """Point the lib at the migration destination after restore."""
        self.layer = layer
        self.process = process
        self.sim = layer.sim
        self._xlate_epoch += 1  # restore re-registers MRs: lkeys changed

    # ------------------------------------------------------------------
    # control path
    # ------------------------------------------------------------------

    def alloc_pd(self):
        _pd, rid = yield from self.layer.alloc_pd(self.state)
        return VirtPD(rid)

    def create_comp_channel(self):
        _channel, rid = yield from self.layer.create_comp_channel(self.state)
        return VirtChannel(rid, self)

    def create_cq(self, depth: int, channel: Optional[VirtChannel] = None):
        channel_rid = channel.rid if channel is not None else None
        _cq, rid = yield from self.layer.create_cq(self.state, depth, channel_rid)
        vcq = VirtCQ(rid, self, uses_events=channel is not None)
        self.virt_cqs.append(vcq)
        return vcq

    def create_srq(self, pd: VirtPD, max_wr: int):
        _srq, rid = yield from self.layer.create_srq(self.state, pd.rid, max_wr)
        return VirtSRQ(rid, self)

    def reg_mr(self, pd: VirtPD, addr: int, length: int, access):
        _mr, rid, vlkey, vrkey = yield from self.layer.reg_mr(
            self.state, self.process, pd.rid, addr, length, access)
        return VirtMR(rid, addr, length, vlkey, vrkey, self)

    def dereg_mr(self, mr: VirtMR):
        yield from self.layer.dereg_mr(self.state, mr.rid)
        self._xlate_epoch += 1  # the vlkey slot may be reused

    def alloc_dm(self, length: int):
        dm, rid = yield from self.layer.alloc_dm(self.state, self.process, length)
        return VirtDM(rid, length, dm.mapped_addr, self)

    def reg_dm_mr(self, pd: VirtPD, dm: VirtDM, access):
        _mr, rid, vlkey, vrkey = yield from self.layer.reg_mr(
            self.state, self.process, pd.rid, dm.mapped_addr, dm.length, access,
            on_chip=True)
        return VirtMR(rid, dm.mapped_addr, dm.length, vlkey, vrkey, self)

    def alloc_mw(self, pd: VirtPD):
        _mw, rid, vrkey = yield from self.layer.alloc_mw(self.state, pd.rid)
        return VirtMW(rid, vrkey, self)

    def create_qp(self, pd: VirtPD, qp_type: QPType, send_cq: VirtCQ, recv_cq: VirtCQ,
                  max_send_wr: int, max_recv_wr: int, srq: Optional[VirtSRQ] = None,
                  max_rd_atomic: int = 16, max_inline_data: int = 220,
                  tenant: Optional[str] = None):
        _qp, rid, vqpn = yield from self.layer.create_qp(
            self.state, pd.rid, qp_type, send_cq.rid, recv_cq.rid,
            max_send_wr, max_recv_wr, srq_rid=srq.rid if srq else None,
            max_rd_atomic=max_rd_atomic, max_inline_data=max_inline_data,
            tenant=tenant)
        # The library mmaps the queue rings into the process — these are the
        # "RDMA-related memory structures" restored at original addresses.
        ring_bytes = (max_send_wr + max_recv_wr) * 64
        self.process.space.mmap(max(ring_bytes, 4096), tag="rdma-queue",
                                name=f"qp-ring-{rid}")
        vqp = VirtQP(rid, vqpn, qp_type, self, send_cq, recv_cq, srq)
        self.virt_qps[vqpn] = vqp
        return vqp

    def modify_qp_to_init(self, qp: VirtQP):
        from repro.rnic import QPState

        yield from self.layer.modify_qp(self.state, qp.rid, QPState.INIT)

    def modify_qp_to_rtr(self, qp: VirtQP, remote_node: Optional[str] = None,
                         remote_qpn: Optional[int] = None):
        """``remote_qpn`` here is the *virtual* QPN the peer application
        exchanged out of band; the lib resolves it to the physical QPN
        (the only time connection-oriented remote QPNs need translating)."""
        from repro.rnic import QPState

        if qp.qp_type is QPType.RC:
            if remote_node is None or remote_qpn is None:
                raise ValueError("RC RTR requires remote_node and remote (virtual) QPN")
            try:
                result = yield from self.control.call_local_or_remote(
                    self.node_name, remote_node, "resolve_qpn", {"vqpn": remote_qpn})
            except LookupError:
                result = None  # peer has no MigrRDMA daemon: hybrid mode (§6)
            if result is None or not result.get("found"):
                qp.passthrough = True
                remote_pqpn = remote_qpn
                qp.remote_service = None
            else:
                remote_pqpn = result["pqpn"]
                qp.remote_service = result["service_id"]
                self.service_directory[result["service_id"]] = remote_node
            qp.remote_node = remote_node
            qp.remote_vqpn = remote_qpn
            yield from self.layer.modify_qp(
                self.state, qp.rid, QPState.RTR,
                remote_node=remote_node, remote_pqpn=remote_pqpn,
                remote_vqpn=remote_qpn)
        else:
            yield from self.layer.modify_qp(self.state, qp.rid, QPState.RTR)

    def modify_qp_to_rts(self, qp: VirtQP):
        from repro.rnic import QPState

        yield from self.layer.modify_qp(self.state, qp.rid, QPState.RTS)

    def destroy_qp(self, qp: VirtQP):
        yield from self.layer.destroy_qp(self.state, qp.rid)
        self.virt_qps.pop(qp.vqpn, None)

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------

    def post_send(self, qp: VirtQP, wr: SendWR) -> None:
        cpu = self.process.cpu
        cfg = cpu.config
        label = _OP_LABEL[wr.opcode._value_]
        cpu.charge_base(label)
        cpu.charge("virt", cfg.suspension_flag_check_cycles)
        tracer = self.sim.tracer
        if tracer is not None:
            # The guest lib *is* the process's verbs surface: application
            # posts land on the same lane DirectVerbs uses.
            tracer.instant(tracer.lane(self.node_name, "verbs"), f"post:{label}",
                           {"vqpn": qp.vqpn, "bytes": wr.total_length})
        if wr.inline and wr.inline_data is None:
            # Capture before any buffering: the inline copy happens at post
            # time even when the WR is intercepted during suspension.
            capture_inline(self.process, qp, wr)
        suspended = self.state.suspended  # VirtQP.suspended, read inline
        if qp.vqpn in suspended and suspended[qp.vqpn]:
            # Intercept: pretend the WR was posted (§3.4).
            cpu.charge("virt", cfg.wr_intercept_buffer_cycles)
            qp.intercepted_sends.append(clone_send_wr(wr))
            self.wrs_intercepted += 1
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.instant(self._trace_lane(tracer), "wr-intercept",
                               {"vqpn": qp.vqpn})
            return
        if qp.pending_fetch:
            qp.pending_fetch.append(clone_send_wr(wr))  # keep per-QP order
            return
        physical = self._translate_send(qp, wr)
        if physical is None:
            qp.pending_fetch.append(clone_send_wr(wr))
            self._start_fetch(qp)
            return
        self._post_physical(qp, physical)

    def _post_physical(self, qp: VirtQP, wr: SendWR) -> None:
        if wr.opcode is Opcode.BIND_MW:
            self._register_pending_bind(qp, wr)
        # Preserve order behind any backlog, and absorb bursts (WR replay
        # after restore) that exceed the physical send queue's depth.
        phys = self.state.resources[qp.rid]  # qp._phys, read inline
        if qp.backlog or phys.sq_posted - phys.sq_completed >= phys.max_send_wr:
            qp.backlog.append(wr)
            return
        self.layer.rnic.post_send(phys, wr)

    def _drain_backlog(self, qp: VirtQP) -> None:
        phys = qp._phys
        while qp.backlog and phys.sq_posted - phys.sq_completed < phys.max_send_wr:
            self.layer.rnic.post_send(phys, qp.backlog.pop(0))

    def _translate_send(self, qp: VirtQP, wr: SendWR) -> Optional[SendWR]:
        """Virtual WR -> physical WR; None when a remote fetch is needed.

        The modeled cycle charges (Table 4) are identical to translating
        from scratch; only the wall-clock work is reduced:

        - the per-SGE lkey table walk is memoized per QP (same virtual lkey
          tuple -> same physical tuple, invalidated by ``_xlate_epoch``),
        - when every translation turns out to be the identity (e.g. hybrid
          passthrough), the original WR is returned without cloning.
        """
        cpu = self.process.cpu
        cfg = cpu.config
        cpu.charge("virt", cfg.virt_dispatch_cycles)
        opcode = wr.opcode
        pkeys = vkeys = None
        if wr.inline_data is None and wr.sges:
            vkeys = tuple(map(_lkey_of, wr.sges))
            cached = qp.xlate_cache
            if cached is not None and cached[0] == self._xlate_epoch and cached[1] == vkeys:
                pkeys = cached[2]
            else:
                lookup = self.state.lkey_table.lookup
                pkeys = tuple(lookup(key) for key in vkeys)
                qp.xlate_cache = (self._xlate_epoch, vkeys, pkeys)
            # One charge per SGE, exactly like the uncached walk: each call
            # draws its own measurement jitter, so the RNG stream (and thus
            # every downstream simulated timestamp) is unchanged.
            per_sge = cfg.lkey_array_lookup_cycles
            for _ in vkeys:
                cpu.charge("virt", per_sge)
        if opcode is Opcode.BIND_MW:
            physical = clone_send_wr(wr)
            if pkeys is not None:
                for sge, pkey in zip(physical.sges, pkeys):
                    sge.lkey = pkey
            physical.bind_mr = self.state.resources[wr.bind_mr.rid]
            physical.bind_mw = self.state.resources[wr.bind_mw.rid]
            return physical
        prkey = None
        if opcode.is_one_sided and not qp.passthrough:
            prkey = self.rkey_cache.get(qp.remote_service, "rkey", wr.rkey)
            if prkey is None:
                return None
            cpu.charge("virt", cfg.rkey_cache_hit_cycles)
        if qp.qp_type is QPType.UD and opcode.is_two_sided:
            physical = clone_send_wr(wr)
            if pkeys is not None:
                for sge, pkey in zip(physical.sges, pkeys):
                    sge.lkey = pkey
            if prkey is not None:
                physical.rkey = prkey
            if self._translate_ud_target(physical) is None:
                return None
            return physical
        if (pkeys is None or pkeys == vkeys) and (prkey is None or prkey == wr.rkey):
            return wr  # identity translation: the WR can go down as-is
        physical = clone_send_wr(wr)
        if pkeys is not None:
            for sge, pkey in zip(physical.sges, pkeys):
                sge.lkey = pkey
        if prkey is not None:
            physical.rkey = prkey
        return physical

    def _translate_ud_target(self, wr: SendWR) -> Optional[SendWR]:
        """Datagram remote QPNs are translated on every request (§3.3)."""
        cpu = self.process.cpu
        key_service = f"ud:{wr.remote_node}"
        cached = self.rkey_cache.get(key_service, "qpn", wr.remote_qpn)
        if cached is None:
            return None
        cpu.charge("virt", cpu.config.rkey_cache_hit_cycles)
        node, pqpn = cached
        wr.remote_node = node
        wr.remote_qpn = pqpn
        return wr

    def _start_fetch(self, qp: VirtQP) -> None:
        if qp.fetch_active:
            return
        qp.fetch_active = True
        self.sim.spawn(self._fetch_and_flush(qp), name=f"rkey-fetch:{qp.vqpn:#x}")

    def _fetch_and_flush(self, qp: VirtQP):
        """Resolve whatever the head WR needs, then flush in order."""
        while qp.pending_fetch:
            if qp.suspended:
                # Migration hit mid-fetch: the queued WRs become intercepted.
                self.wrs_intercepted += len(qp.pending_fetch)
                qp.intercepted_sends += qp.pending_fetch
                qp.pending_fetch = []
                break
            wr = qp.pending_fetch[0]
            physical = self._translate_send(qp, wr)
            if physical is None:
                found = yield from self._fetch_for(qp, wr)
                if not found:
                    # Unresolvable (service mid-migration): retry shortly.
                    yield self.sim.timeout(200e-6)
                    continue
                physical = self._translate_send(qp, wr)
                if physical is None:
                    yield self.sim.timeout(200e-6)
                    continue
            qp.pending_fetch.pop(0)
            self._post_physical(qp, physical)
        qp.fetch_active = False

    def _fetch_for(self, qp: VirtQP, wr: SendWR):
        """One remote fetch: rkey (RC one-sided) or remote QPN (UD).

        Returns True when the value was resolved and cached.
        """
        self.fetch_rpcs += 1
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant(self._trace_lane(tracer), "rkey-fetch",
                           {"vqpn": qp.vqpn})
        if qp.qp_type is QPType.UD and wr.opcode.is_two_sided:
            node = wr.remote_node
            for _hop in range(4):  # follow forwarding pointers
                result = yield from self.control.call_local_or_remote(
                    self.node_name, node, "resolve_qpn", {"vqpn": wr.remote_qpn})
                if result.get("found"):
                    # Cache keyed by what the application addresses (the
                    # original node); the value carries the current one.
                    self.rkey_cache.put(f"ud:{wr.remote_node}", "qpn",
                                        wr.remote_qpn, (node, result["pqpn"]))
                    self.demand_fetches += 1
                    return True
                moved = result.get("moved")
                if moved is None:
                    return False
                node = moved
            return False
        service = qp.remote_service
        node = self.service_directory.get(service, qp.remote_node)
        result = yield from self.control.call_local_or_remote(
            self.node_name, node, "resolve_rkey",
            {"service_id": service, "vrkey": wr.rkey})
        if result.get("found"):
            self.rkey_cache.put(service, "rkey", wr.rkey, result["rkey"])
            self.demand_fetches += 1
            return True
        return False

    def _register_pending_bind(self, qp: VirtQP, physical_wr: SendWR) -> None:
        """Remember the bind so its new rkey can be persisted at completion."""
        self._pending_binds[(qp.vqpn, physical_wr.wr_id)] = physical_wr

    def post_recv(self, qp: VirtQP, wr: RecvWR) -> None:
        # RECVs are never intercepted: they generate no wire traffic and the
        # peer's inflight SENDs need them to complete during WBS (§3.4).
        physical = self._translate_recv(qp, wr)
        self.layer.rnic.post_recv(qp._phys, physical)

    def post_srq_recv(self, srq: VirtSRQ, wr: RecvWR) -> None:
        physical = self._translate_recv(srq, wr)
        self.layer.rnic.post_srq_recv(srq._phys, physical)

    def _translate_recv(self, target, wr: RecvWR) -> RecvWR:
        """Charge and translate one RECV; its virtual copy joins the QP's or
        SRQ's ``posted_recvs`` (the replay set).  Returns the physical WR."""
        cpu = self.process.cpu
        cfg = cpu.config
        cpu.charge_base("recv")
        cpu.charge("virt", cfg.suspension_flag_check_cycles)
        physical = clone_recv_wr(wr)
        for sge in physical.sges:
            sge.lkey = self.state.lkey_table.lookup(sge.lkey)
            cpu.charge("virt", cfg.lkey_array_lookup_cycles)
        target.posted_recvs.append(clone_recv_wr(wr))
        return physical

    # -- polling ----------------------------------------------------------

    def poll_cq(self, cq: VirtCQ, max_entries: int = 1) -> List[WorkCompletion]:
        cpu = self.process.cpu
        cfg = cpu.config
        cpu.charge_base("poll")
        out: List[WorkCompletion] = []
        room = max_entries
        # Fake CQ first (§3.4): entries drained during wait-before-stop.
        while cq.fake and room > 0:
            wc = cq.fake.popleft()
            out.append(self._translate_fake_wc(wc))
            cpu.charge("virt", cfg.qpn_array_lookup_cycles)
            room -= 1
        if room > 0:
            for wc in self.poll_real(cq, room, translate=True):
                out.append(wc)
                cpu.charge("virt", cfg.qpn_array_lookup_cycles)
        if out:
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.instant(tracer.lane(self.node_name, "verbs"),
                               "poll", {"n": len(out)})
        return out

    def poll_real(self, cq: VirtCQ, max_entries: int,
                  translate: bool = False) -> List[WorkCompletion]:
        """Poll the physical CQ, maintaining recv/bind tracking.

        Used by both the application poll path (``translate``: the CQEs
        come back carrying virtual QPNs) and the WBS thread (physical
        CQEs, for the fake CQ), so the bookkeeping happens exactly once
        per CQE regardless of who drains.  Each CQE's QPN is translated
        once, for both.
        """
        wcs = self.state.resources[cq.rid].poll(max_entries)
        lookup = self.layer.qpn_table.lookup_or_identity
        temp_qpn_map = self.temp_qpn_map
        virt_qps = self.virt_qps
        for i, wc in enumerate(wcs):
            qp_num = wc.qp_num
            vqpn = lookup(qp_num)
            opcode = wc.opcode
            if opcode is Opcode.RECV:
                self._note_recv_consumed(vqpn)
            elif opcode is Opcode.BIND_MW:
                self._finalize_bind(wc, vqpn)
            if temp_qpn_map:
                # CQEs from real CQs retire temp-table entries (§3.4):
                # there will be no more completions for the old QP.
                temp_qpn_map.pop(qp_num, None)
            if opcode is not Opcode.RECV and vqpn in virt_qps:
                vqp = virt_qps[vqpn]
                if vqp.backlog and not vqp.suspended:
                    self._drain_backlog(vqp)
            if translate:
                wcs[i] = _with_qpn(wc, vqpn)
        return wcs

    def _note_recv_consumed(self, vqpn: int) -> None:
        vqp = self.virt_qps.get(vqpn)
        if vqp is None:
            return
        if vqp.vsrq is not None:
            if vqp.vsrq.posted_recvs:
                vqp.vsrq.posted_recvs.pop(0)
        elif vqp.posted_recvs:
            vqp.posted_recvs.pop(0)

    def _finalize_bind(self, wc: WorkCompletion, vqpn: int) -> None:
        physical_wr = self._pending_binds.pop((vqpn, wc.wr_id), None)
        if physical_wr is None or not wc.ok:
            return
        mw = physical_wr.bind_mw
        # Locate the records involved to persist the bind for restore.
        mw_rid = next((rid for rid, obj in self.state.resources.items() if obj is mw), None)
        mr_rid = next((rid for rid, obj in self.state.resources.items()
                       if obj is physical_wr.bind_mr), None)
        if mw_rid is not None and mr_rid is not None:
            self.layer.note_mw_bound(
                self.state, mw_rid, mr_rid, mw.addr, mw.length,
                physical_wr.bind_access, mw.rkey)

    def _translate_fake_wc(self, wc: WorkCompletion) -> WorkCompletion:
        """A CQE the WBS thread stashed: its QPN may be a pre-restore one."""
        if wc.qp_num in self.temp_qpn_map:
            return _with_qpn(wc, self.temp_qpn_map[wc.qp_num])
        return _with_qpn(wc, self.layer.qpn_table.lookup_or_identity(wc.qp_num))

    # -- events ------------------------------------------------------------

    def req_notify_cq(self, cq: VirtCQ) -> None:
        cq._phys.req_notify()

    def get_cq_event(self, channel: VirtChannel):
        phys_cq = yield channel._phys.get_cq_event()
        # An event has been delivered but not yet handled: wait-before-stop
        # may not finish until the application acknowledges it (§3.4).
        self.unfinished_cq_events += 1
        for vcq in self.virt_cqs:
            if vcq._phys is phys_cq:
                return vcq
        raise LookupError("completion event for an unknown CQ")

    def ack_cq_events(self, channel: VirtChannel, count: int = 1) -> None:
        channel._phys.ack_events(count)
        self.unfinished_cq_events = max(0, self.unfinished_cq_events - count)
        self.state.suspend_signal.fire(set())  # may unblock WBS

    # ------------------------------------------------------------------
    # migration support (called by the WBS thread and the plugin)
    # ------------------------------------------------------------------

    def suspended_vqps(self) -> List[VirtQP]:
        return [qp for qp in self.virt_qps.values() if qp.suspended]

    def qps_talking_to(self, service_id: str) -> List[VirtQP]:
        return [qp for qp in self.virt_qps.values() if qp.remote_service == service_id]

    def capture_incomplete_for_replay(self) -> None:
        """At the final stop (freeze on the migrated side, switchover on the
        partner side): drain any straggler CQEs into the fake CQs so their
        completions migrate, then snapshot the still-incomplete WRs of every
        suspended QP for post-restore replay (§3.4 last ¶).

        After a clean wait-before-stop this is a no-op; after a timed-out
        one it guarantees each WR yields exactly one application-visible
        completion: either its CQE travels in the fake CQ, or the WR is in
        the replay set — never both.
        """
        self.wbs._poll_all_into_fakes()
        self.build_temp_qpn_map()
        for vqp in self.suspended_vqps():
            phys = vqp._phys
            incomplete = [phys.sq_inflight[ssn] for ssn in sorted(phys.sq_inflight)]
            incomplete += list(phys.sq_pending)
            if incomplete:
                vqp.unacked_for_replay = self.wbs._unvirtualize(vqp, incomplete)

    def build_temp_qpn_map(self) -> None:
        """Snapshot old physical→virtual QPNs before the switch (§3.4)."""
        for vqp in self.suspended_vqps():
            self.temp_qpn_map[vqp._phys.qpn] = vqp.vqpn

    def replay_after_restore(self, vqp: VirtQP) -> None:
        """Step 7 of Figure 2(b): replay RECV WRs that never matched, then
        (buggy-network case) WRs posted-but-not-completed, then the WRs
        intercepted during suspension."""
        tracer = self.sim.tracer
        span = None
        if tracer is not None and tracer.enabled:
            span = tracer.begin_span(self._trace_lane(tracer), "wr-replay",
                                     {"vqpn": vqp.vqpn})
        recvs, vqp.posted_recvs = vqp.posted_recvs, []
        for wr in recvs:
            self.post_recv(vqp, wr)
        replayed = len(recvs)
        if vqp.vsrq is not None:
            pending, vqp.vsrq.posted_recvs = vqp.vsrq.posted_recvs, []
            for wr in pending:
                self.post_srq_recv(vqp.vsrq, wr)
            replayed += len(pending)
        unacked, vqp.unacked_for_replay = vqp.unacked_for_replay, []
        for wr in unacked:
            self.post_send(vqp, wr)
        intercepted, vqp.intercepted_sends = vqp.intercepted_sends, []
        for wr in intercepted:
            self.post_send(vqp, wr)
        replayed += len(unacked) + len(intercepted)
        self.wrs_replayed += replayed
        if span is not None:
            span.end(recvs=len(recvs), unacked=len(unacked),
                     intercepted=len(intercepted))

    def rollback_suspension(self) -> None:
        """The migration rolled back while this process was suspended: the
        old physical QPs never went away, so the replay snapshots are stale
        (those WRs are still live on the NIC and will complete normally)
        and the intercepted sends can simply be posted in place.

        The caller must clear the suspension flags first — the reposts
        would be re-intercepted otherwise.  Idempotent: a second call finds
        every buffer empty.
        """
        self.temp_qpn_map.clear()
        for vqp in self.virt_qps.values():
            vqp.unacked_for_replay = []
            if not vqp.intercepted_sends:
                continue
            intercepted, vqp.intercepted_sends = vqp.intercepted_sends, []
            for wr in intercepted:
                self.post_send(vqp, wr)
            self.wrs_replayed += len(intercepted)
