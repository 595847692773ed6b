"""Deterministic fault injection: the FaultPlan engine.

A :class:`FaultPlan` is a declarative list of faults plus one seeded RNG.
Installing it on a testbed attaches thin hook objects at three layers:

- **fabric** — :attr:`~repro.fabric.network.Network.fault_injector` is
  consulted for every in-flight message and may drop, duplicate, reorder
  (deliver with extra jitter) or delay it, scoped per link
  (``src``/``dst``), per protocol (``"rdma"``, ``"tcp"`` prefix, ...) and
  per simulated-time window, and uninstalled by ``Network.reset_faults``,
- **RNIC** — ``RNIC.chaos`` can suppress RECV consumption during a window
  (an RNR NAK storm: every arriving SEND is NAKed and backed off), stretch
  CQE delivery (CQ pressure, with a monotonic clamp so stretched batches
  never overtake earlier ones), and force QP→ERR transitions at scheduled
  times,
- **migration** — ``LiveMigration.chaos`` is told about every named phase
  boundary (:data:`repro.core.orchestrator.PHASE_BOUNDARIES`) and may
  request an abort there,
- **fleet** — :class:`HostKill` takes a whole host's MigrRDMA daemon
  down at a scheduled sim time (a host dying mid-drain) and
  :class:`UplinkDegrade` slows one rack's ToR trunk for a window
  (requires a :class:`~repro.fabric.FatTreeTopology` on the network).

Determinism contract: all randomness comes from the plan's own
``random.Random(seed)`` — the CPU ledgers' RNG streams are
never touched — and a plan with no faults draws nothing and schedules
nothing, so installing it leaves every simulated timestamp bit-identical
to an uninstrumented run (pinned by
``tests/integration/test_chaos_determinism.py``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional

__all__ = ["FaultRule", "RnrStorm", "CqPressure", "QpErrorEvent",
           "DaemonCrash", "HostKill", "UplinkDegrade", "Partition",
           "SchedulerCrash", "FaultStats", "FaultPlan"]


@dataclass
class FaultRule:
    """One fabric-level fault: match scope + independent fault probabilities.

    ``None`` fields are wildcards.  ``protocol`` matches exactly or as a
    prefix before ``":"`` (so ``"tcp"`` covers every ``"tcp:<id>"``
    channel).  All probabilities are evaluated per matching message; every
    matching rule contributes, so rules compose.
    """

    src: Optional[str] = None
    dst: Optional[str] = None
    protocol: Optional[str] = None
    start_s: float = 0.0
    end_s: float = math.inf
    drop_p: float = 0.0
    dup_p: float = 0.0
    reorder_p: float = 0.0
    #: jitter bound for reordered deliveries and duplicate copies
    reorder_max_delay_s: float = 100e-6
    delay_s: float = 0.0
    #: match only messages whose dict payload ``kind`` equals this value or
    #: starts with ``"<value>_"`` — e.g. ``"rpc"`` scopes a rule to control
    #: RPCs (``rpc_req``/``rpc_resp``) without touching bulk segments/acks.
    payload_kind: Optional[str] = None

    def __post_init__(self):
        for name in ("drop_p", "dup_p", "reorder_p"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.delay_s < 0 or self.reorder_max_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if self.end_s < self.start_s:
            raise ValueError("fault window ends before it starts")

    def matches(self, message, now: float) -> bool:
        if not self.start_s <= now < self.end_s:
            return False
        if self.src is not None and message.src != self.src:
            return False
        if self.dst is not None and message.dst != self.dst:
            return False
        if self.protocol is not None:
            proto = message.protocol
            if proto != self.protocol and not proto.startswith(self.protocol + ":"):
                return False
        if self.payload_kind is not None:
            payload = message.payload
            kind = payload.get("kind") if isinstance(payload, dict) else None
            if kind is None:
                return False
            if kind != self.payload_kind and not kind.startswith(self.payload_kind + "_"):
                return False
        return True


@dataclass
class RnrStorm:
    """While active, the node's RNIC pretends no RECVs are posted: every
    arriving RC SEND is answered with an RNR NAK (§3.4's adversity)."""

    node: str
    start_s: float
    duration_s: float


@dataclass
class CqPressure:
    """While active, CQE delivery on the node is stretched by
    ``extra_delay_s`` — the observable effect of a near-overflow CQ."""

    node: str
    start_s: float
    duration_s: float
    extra_delay_s: float


@dataclass
class QpErrorEvent:
    """At ``at_s``, one RTS RC QP on ``node`` (picked from the plan's RNG)
    transitions to ERR and its send queue is flushed."""

    node: str
    at_s: float


@dataclass
class DaemonCrash:
    """When an armed migration crosses ``boundary``, the MigrRDMA daemon on
    ``node`` crashes for ``down_s`` simulated seconds: every control-plane
    request addressed to it is silently swallowed until it restarts.

    ``node`` may be a server name or one of the aliases ``"dest"`` /
    ``"source"`` (resolved against the armed migration).  Fires at most
    once per plan (torture campaigns run one migration per plan).
    """

    node: str
    boundary: str
    down_s: float

    def __post_init__(self):
        from repro.core.orchestrator import PHASE_BOUNDARIES

        if self.boundary not in PHASE_BOUNDARIES:
            raise ValueError(f"unknown phase boundary {self.boundary!r} "
                             f"(known: {', '.join(PHASE_BOUNDARIES)})")
        if self.down_s <= 0:
            raise ValueError(f"down_s must be positive, got {self.down_s}")


@dataclass
class HostKill:
    """At ``at_s``, the MigrRDMA daemon on ``node`` goes dark for
    ``down_s`` simulated seconds — a *time-scheduled* crash, unlike
    :class:`DaemonCrash` which triggers on a migration phase boundary.
    Fleet drains use this to kill a host mid-drain: every in-flight
    migration touching the host sees its control RPCs time out, and the
    :class:`~repro.resilience.MigrationSupervisor` must roll back and
    retry (possibly to an alternate destination).
    """

    node: str
    at_s: float
    down_s: float

    def __post_init__(self):
        if self.at_s < 0:
            raise ValueError(f"at_s must be non-negative, got {self.at_s}")
        if self.down_s <= 0:
            raise ValueError(f"down_s must be positive, got {self.down_s}")


@dataclass
class UplinkDegrade:
    """While active, the ToR uplink trunk of ``rack`` serializes
    ``factor``× slower — a congested/flapping spine link.  Requires a
    :class:`~repro.fabric.FatTreeTopology` attached to the network; the
    fault is a windowed ``contention_factor`` on the trunk's ``Port``.
    """

    rack: str
    start_s: float
    end_s: float
    factor: float

    def __post_init__(self):
        if self.end_s <= self.start_s:
            raise ValueError("degrade window ends before it starts")
        if self.factor <= 1.0:
            raise ValueError(f"factor must be > 1.0, got {self.factor}")


@dataclass
class Partition:
    """A bidirectional network partition between nodes ``a`` and ``b``:
    for the window every message between the pair — *both* directions,
    *every* protocol (RDMA packets, TCP control segments, RPC traffic) —
    is dropped deterministically.  This is the fault one-sided
    :class:`FaultRule` drops cannot express: a rule drops each message
    independently with probability p on one (src, dst, protocol) scope,
    while a partition is total, symmetric and scope-blind, which is what
    makes split-brain reachable (both sides keep running, neither hears
    the other).  Drops consume no RNG draws, so adding a partition to a
    plan leaves every probabilistic fault's stream untouched.
    """

    a: str
    b: str
    start_s: float
    end_s: float

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError(f"cannot partition {self.a!r} from itself")
        if self.end_s <= self.start_s:
            raise ValueError("partition window ends before it starts")

    def severs(self, src: str, dst: str, now: float) -> bool:
        if not self.start_s <= now < self.end_s:
            return False
        return (src == self.a and dst == self.b) or \
               (src == self.b and dst == self.a)


@dataclass
class SchedulerCrash:
    """At ``at_s`` the fleet's :class:`~repro.fleet.MigrationScheduler`
    process dies mid-drain, losing all in-memory state; ``down_s``
    simulated seconds later a replacement scheduler restarts from the
    :class:`~repro.fleet.SchedulerJournal`.  Unlike the fabric/RNIC
    faults this is not enforced by an installed hook: the scheduler
    itself polls the plan (it already holds ``chaos``) at its existing
    admission cadence, so a crash-free plan costs zero extra events.
    """

    at_s: float
    down_s: float = 20e-3

    def __post_init__(self):
        if self.at_s < 0:
            raise ValueError(f"at_s must be non-negative, got {self.at_s}")
        if self.down_s <= 0:
            raise ValueError(f"down_s must be positive, got {self.down_s}")


@dataclass
class FaultStats:
    """What the plan actually did (scraped into ``chaos.*`` metrics)."""

    fabric_dropped: int = 0
    fabric_duplicated: int = 0
    fabric_reordered: int = 0
    fabric_delayed: int = 0
    rnr_injected: int = 0
    cqe_delayed: int = 0
    qp_errors_fired: int = 0
    aborts_requested: int = 0
    daemon_crashes: int = 0
    host_kills: int = 0
    uplink_slowdowns: int = 0
    partition_dropped: int = 0
    scheduler_crashes: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def total(self) -> int:
        return sum(self.as_dict().values())


class _FabricInjector:
    """The object installed as ``Network.fault_injector``."""

    __slots__ = ("plan",)

    def __init__(self, plan: "FaultPlan"):
        self.plan = plan

    def intercept(self, message, now: float) -> Optional[List[float]]:
        """Verdict for one message: ``None`` = no rule matched (the network
        proceeds unchanged), ``[]`` = drop, else a list of extra delays —
        one delivery per entry (>1 entries = duplication)."""
        plan = self.plan
        stats = plan.stats
        # Partitions first, and deterministically: a severed link drops
        # everything, so the rules (and their RNG draws) never get a say
        # on a partitioned message.
        for partition in plan.partitions:
            if partition.severs(message.src, message.dst, now):
                stats.partition_dropped += 1
                return []
        matched = False
        dropped = False
        delay = 0.0
        copies: List[float] = []
        rng = plan.rng
        for rule in plan.rules:
            if not rule.matches(message, now):
                continue
            matched = True
            if rule.drop_p and rng.random() < rule.drop_p:
                dropped = True
            if rule.delay_s:
                delay += rule.delay_s
                stats.fabric_delayed += 1
            if rule.reorder_p and rng.random() < rule.reorder_p:
                delay += rng.uniform(0.0, rule.reorder_max_delay_s)
                stats.fabric_reordered += 1
            if rule.dup_p and rng.random() < rule.dup_p:
                copies.append(rng.uniform(0.0, rule.reorder_max_delay_s))
                stats.fabric_duplicated += 1
        if not matched:
            return None
        if dropped:
            stats.fabric_dropped += 1
            return []
        return [delay] + [delay + extra for extra in copies]


class _RnicChaos:
    """The per-node object installed as ``RNIC.chaos``.

    Only installed on nodes that actually have RNIC-level faults, so every
    other NIC keeps its ``chaos is None`` fast path.
    """

    __slots__ = ("plan", "node", "storms", "pressures", "_delivery_floor")

    def __init__(self, plan: "FaultPlan", node: str):
        self.plan = plan
        self.node = node
        self.storms = [s for s in plan.rnr_storms if s.node == node]
        self.pressures = [p for p in plan.cq_pressures if p.node == node]
        self._delivery_floor = 0.0

    @property
    def active(self) -> bool:
        return bool(self.storms or self.pressures)

    def rnr_suppressed(self, now: float) -> bool:
        for storm in self.storms:
            if storm.start_s <= now < storm.start_s + storm.duration_s:
                self.plan.stats.rnr_injected += 1
                return True
        return False

    def completion_delay(self, now: float, base_s: float) -> float:
        """CQE-batch delivery delay under pressure, clamped monotonic: a
        stretched batch raises the floor for later batches so injected
        delay can never reorder completions (which would be a false
        ordering violation, not an injected fault)."""
        extra = 0.0
        for pressure in self.pressures:
            if pressure.start_s <= now < pressure.start_s + pressure.duration_s:
                extra = max(extra, pressure.extra_delay_s)
        if extra:
            self.plan.stats.cqe_delayed += 1
        target = max(now + base_s + extra, self._delivery_floor)
        self._delivery_floor = target
        return target - now


class _UplinkChaos:
    """The windowed ``contention_factor`` installed on a degraded trunk
    ``Port``: outside every window it returns 1.0 (no slowdown), inside
    it returns the max factor of the overlapping windows."""

    __slots__ = ("plan", "sim", "degrades")

    def __init__(self, plan: "FaultPlan", sim, degrades: List[UplinkDegrade]):
        self.plan = plan
        self.sim = sim
        self.degrades = degrades

    def __call__(self) -> float:
        now = self.sim.now
        factor = 1.0
        for degrade in self.degrades:
            if degrade.start_s <= now < degrade.end_s:
                factor = max(factor, degrade.factor)
        if factor > 1.0:
            self.plan.stats.uplink_slowdowns += 1
        return factor


class FaultPlan:
    """A seeded, installable, resettable set of faults."""

    def __init__(self, seed: int = 0, name: str = ""):
        self.seed = seed
        self.name = name or f"plan-{seed}"
        self.rng = random.Random(seed)
        self.rules: List[FaultRule] = []
        self.rnr_storms: List[RnrStorm] = []
        self.cq_pressures: List[CqPressure] = []
        self.qp_errors: List[QpErrorEvent] = []
        self.daemon_crashes: List[DaemonCrash] = []
        self.host_kills: List[HostKill] = []
        self.uplink_degrades: List[UplinkDegrade] = []
        self.partitions: List[Partition] = []
        self.scheduler_crashes: List[SchedulerCrash] = []
        self._degraded_ports: List = []
        self._crashes_fired: set = set()
        self._scheduler_crashes_fired: set = set()
        self.abort_boundary: Optional[str] = None
        self.stats = FaultStats()
        #: phase boundaries observed on armed migrations, in order
        self.boundaries_seen: List[str] = []
        self._installed_tb = None

    # -- builders (all chainable) ----------------------------------------

    def rule(self, **kwargs) -> "FaultPlan":
        self.rules.append(FaultRule(**kwargs))
        return self

    def drop(self, p: float, **scope) -> "FaultPlan":
        return self.rule(drop_p=p, **scope)

    def duplicate(self, p: float, **scope) -> "FaultPlan":
        return self.rule(dup_p=p, **scope)

    def reorder(self, p: float, max_delay_s: float = 100e-6, **scope) -> "FaultPlan":
        return self.rule(reorder_p=p, reorder_max_delay_s=max_delay_s, **scope)

    def delay(self, delay_s: float, **scope) -> "FaultPlan":
        return self.rule(delay_s=delay_s, **scope)

    def rnr_storm(self, node: str, start_s: float, duration_s: float) -> "FaultPlan":
        self.rnr_storms.append(RnrStorm(node, start_s, duration_s))
        return self

    def cq_pressure(self, node: str, start_s: float, duration_s: float,
                    extra_delay_s: float) -> "FaultPlan":
        self.cq_pressures.append(CqPressure(node, start_s, duration_s, extra_delay_s))
        return self

    def qp_error(self, node: str, at_s: float) -> "FaultPlan":
        self.qp_errors.append(QpErrorEvent(node, at_s))
        return self

    def daemon_crash(self, node: str, boundary: str, down_s: float) -> "FaultPlan":
        self.daemon_crashes.append(DaemonCrash(node, boundary, down_s))
        return self

    def host_kill(self, node: str, at_s: float, down_s: float) -> "FaultPlan":
        self.host_kills.append(HostKill(node, at_s, down_s))
        return self

    def degrade_uplink(self, rack: str, start_s: float, end_s: float,
                       factor: float) -> "FaultPlan":
        self.uplink_degrades.append(UplinkDegrade(rack, start_s, end_s, factor))
        return self

    def partition(self, a: str, b: str, start_s: float,
                  end_s: float) -> "FaultPlan":
        self.partitions.append(Partition(a, b, start_s, end_s))
        return self

    def scheduler_crash(self, at_s: float, down_s: float = 20e-3) -> "FaultPlan":
        self.scheduler_crashes.append(SchedulerCrash(at_s, down_s))
        return self

    def abort_at(self, boundary: str) -> "FaultPlan":
        from repro.core.orchestrator import PHASE_BOUNDARIES

        if boundary not in PHASE_BOUNDARIES:
            raise ValueError(f"unknown phase boundary {boundary!r} "
                             f"(known: {', '.join(PHASE_BOUNDARIES)})")
        self.abort_boundary = boundary
        return self

    # -- introspection ----------------------------------------------------

    @property
    def testbed(self):
        """The testbed/network this plan is currently installed on."""
        return self._installed_tb

    @property
    def is_noop(self) -> bool:
        return not (self.rules or self.rnr_storms or self.cq_pressures
                    or self.qp_errors or self.daemon_crashes
                    or self.host_kills or self.uplink_degrades
                    or self.partitions or self.scheduler_crashes
                    or self.abort_boundary)

    @property
    def expects_status_errors(self) -> bool:
        """QP→ERR faults legitimately surface as flush/error completions;
        invariant checkers relax the clean-status requirement for them."""
        return bool(self.qp_errors)

    # -- install / uninstall ----------------------------------------------

    def install(self, tb) -> "FaultPlan":
        """Attach to a :class:`~repro.cluster.Testbed` (or a bare
        :class:`~repro.fabric.network.Network` in unit tests)."""
        if self._installed_tb is not None:
            raise RuntimeError(f"fault plan {self.name} is already installed")
        network = tb.network if hasattr(tb, "network") else tb
        if network.fault_injector is not None:
            raise RuntimeError(
                "another fault injector is already installed on this network "
                "(stale chaos state leaking between scenarios?)")
        network.fault_injector = _FabricInjector(self)
        for server in getattr(tb, "servers", []):
            chaos = _RnicChaos(self, server.name)
            if chaos.active:
                server.rnic.chaos = chaos
        sim = network.sim
        if hasattr(tb, "server"):
            for part in self.partitions:
                tb.server(part.a)  # validate early
                tb.server(part.b)
        for event in self.qp_errors:
            tb.server(event.node)  # validate early
            sim.schedule(max(0.0, event.at_s - sim.now),
                         self._fire_qp_error, tb, event.node)
        if self.host_kills:
            world = getattr(tb, "world", None)
            if world is None:
                raise RuntimeError(
                    "host_kill faults need a testbed with an installed "
                    "MigrRdmaWorld (tb.world) for daemon up/down control")
            for kill in self.host_kills:
                tb.server(kill.node)  # validate early
                sim.schedule(max(0.0, kill.at_s - sim.now),
                             self._fire_host_kill, world, kill)
        if self.uplink_degrades:
            topology = getattr(network, "topology", None)
            if topology is None:
                raise RuntimeError(
                    "degrade_uplink faults need a FatTreeTopology attached "
                    "to the network (flat fabrics have no trunks)")
            by_rack: Dict[str, List[UplinkDegrade]] = {}
            for degrade in self.uplink_degrades:
                topology.uplink(degrade.rack)  # validate early
                by_rack.setdefault(degrade.rack, []).append(degrade)
            for rack, degrades in by_rack.items():
                port = topology.uplink(rack)
                if port.contention_factor is not None:
                    raise RuntimeError(
                        f"uplink {rack} already has a contention hook")
                port.contention_factor = _UplinkChaos(self, sim, degrades)
                self._degraded_ports.append(port)
        self._installed_tb = tb
        return self

    def uninstall(self) -> None:
        """Detach every hook this plan installed (idempotent)."""
        tb = self._installed_tb
        if tb is None:
            return
        network = tb.network if hasattr(tb, "network") else tb
        injector = network.fault_injector
        if isinstance(injector, _FabricInjector) and injector.plan is self:
            network.fault_injector = None
        for server in getattr(tb, "servers", []):
            chaos = server.rnic.chaos
            if isinstance(chaos, _RnicChaos) and chaos.plan is self:
                server.rnic.chaos = None
        for port in self._degraded_ports:
            if isinstance(port.contention_factor, _UplinkChaos) \
                    and port.contention_factor.plan is self:
                port.contention_factor = None
        self._degraded_ports.clear()
        self._installed_tb = None

    def arm(self, migration) -> "FaultPlan":
        """Attach to one :class:`~repro.core.orchestrator.LiveMigration`."""
        migration.chaos = self
        return self

    # -- hook callbacks ----------------------------------------------------

    def on_phase_boundary(self, migration, boundary: str) -> None:
        self.boundaries_seen.append(boundary)
        if boundary == self.abort_boundary:
            self.stats.aborts_requested += 1
            migration.abort()
        for index, crash in enumerate(self.daemon_crashes):
            if crash.boundary != boundary or index in self._crashes_fired:
                continue
            self._crashes_fired.add(index)
            node = {"dest": migration.dest.name,
                    "source": migration.source.name}.get(crash.node, crash.node)
            control = migration.world.control
            control.mark_daemon_down(node)
            migration.sim.schedule(crash.down_s, control.mark_daemon_up, node)
            self.stats.daemon_crashes += 1

    def scheduler_crash_due(self, now: float) -> Optional[SchedulerCrash]:
        """The next unfired :class:`SchedulerCrash` whose time has come, or
        ``None``.  Polled by ``MigrationScheduler.execute`` at its existing
        admission cadence (no extra events); each crash fires once."""
        for index, crash in enumerate(self.scheduler_crashes):
            if index in self._scheduler_crashes_fired:
                continue
            if now >= crash.at_s:
                self._scheduler_crashes_fired.add(index)
                self.stats.scheduler_crashes += 1
                return crash
        return None

    def _fire_host_kill(self, world, kill: HostKill) -> None:
        control = world.control
        control.mark_daemon_down(kill.node)
        world.sim.schedule(kill.down_s, control.mark_daemon_up, kill.node)
        self.stats.host_kills += 1

    def _fire_qp_error(self, tb, node: str) -> None:
        from repro.rnic.constants import QPState, QPType

        nic = tb.server(node).rnic
        candidates = [qp for _qpn, qp in sorted(nic.qps.items())
                      if qp.qp_type is QPType.RC and qp.state is QPState.RTS
                      and not qp.destroyed]
        if not candidates:
            return
        victim = candidates[self.rng.randrange(len(candidates))]
        victim.force_error()
        nic._flush_sq(victim)
        self.stats.qp_errors_fired += 1

    def __repr__(self) -> str:
        parts = [f"{len(self.rules)} rules", f"{len(self.rnr_storms)} storms",
                 f"{len(self.cq_pressures)} pressures",
                 f"{len(self.qp_errors)} qp-errors",
                 f"{len(self.daemon_crashes)} daemon-crashes"]
        if self.host_kills:
            parts.append(f"{len(self.host_kills)} host-kills")
        if self.uplink_degrades:
            parts.append(f"{len(self.uplink_degrades)} uplink-degrades")
        if self.partitions:
            parts.append(f"{len(self.partitions)} partitions")
        if self.scheduler_crashes:
            parts.append(f"{len(self.scheduler_crashes)} scheduler-crashes")
        if self.abort_boundary:
            parts.append(f"abort@{self.abort_boundary}")
        return f"<FaultPlan {self.name} seed={self.seed}: {', '.join(parts)}>"
