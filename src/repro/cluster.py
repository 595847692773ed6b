"""Servers, containers and application processes.

A :class:`Server` is a physical machine: a fabric node with an RNIC.  A
:class:`Container` groups application processes (each with its own virtual
address space and CPU cycle ledger) and is the unit of live migration.

A process's cycle ledger is a :class:`CpuContext`: the data path of verbs
(and of MigrRDMA's interposition layer) charges an explicit cycle cost for
every action it performs.  Application traffic loops periodically convert
accrued cycles into simulated time (``yield sim.timeout(cpu.drain_seconds())``),
so CPU-bound workloads (small messages — the 512 B case of Figure 4b) are
CPU-limited in simulated time exactly as on real hardware, while the ledger
doubles as the measurement source for Table 4.

Two assemblers build clusters on top of these parts:

* :class:`ClusterBed` — the generic base: one simulator, one network, any
  set of named servers, cached pairwise TCP channels.  The fleet builder
  (:mod:`repro.fleet`) subclasses it to stand up racks of hosts on a
  fat-tree topology.
* :class:`Testbed` — the paper's evaluation topology (migration source,
  migration destination, N communication partners) as a ``ClusterBed``
  subclass; a two-node fleet is the degenerate case of the same machinery.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional, Tuple

from repro.config import Config, CpuConfig, default_config
from repro.fabric import Network, TcpChannel
from repro.fabric.network import Node
from repro.mem import AddressSpace
from repro.rnic import RNIC
from repro.sim import Process, Simulator

_pids = itertools.count(1000)


@dataclass
class CycleSample:
    """One sampled operation cost (as perftest's cycle sampling records)."""

    op: str
    cycles: float


class CpuContext:
    """Cycle ledger for one application process (or interposition thread)."""

    def __init__(self, cpu_config: CpuConfig, seed: int = 0, record_samples: bool = False):
        self.config = cpu_config
        self._accrued_cycles = 0.0
        self.total_cycles = 0.0
        self.cycles_by_op: Dict[str, float] = defaultdict(float)
        self.count_by_op: Dict[str, int] = defaultdict(int)
        self.record_samples = record_samples
        self.samples: List[CycleSample] = []
        self._rng = random.Random(seed)
        self._pending_op: str = ""
        self._pending_cycles = 0.0
        #: ``wake(tick_first)`` of the poll loop parked on this ledger
        #: (DESIGN.md §12.5): anyone else's charge must first replay the
        #: polls that loop skipped, or the jitter stream would reorder.
        self.idle_waiter: Optional[Callable[[bool], None]] = None

    # -- charging ---------------------------------------------------------

    def charge(self, op: str, cycles: float) -> None:
        """Charge ``cycles`` with small measurement jitter, booked under ``op``."""
        if self.idle_waiter is not None:
            self.idle_waiter(False)
        noise = self.config.measurement_noise_frac
        if noise:
            # Inlined random.uniform(-noise, noise): uniform(a, b) is
            # a + (b - a) * random(), and noise - (-noise) == noise + noise
            # exactly in IEEE arithmetic, so the RNG stream is unchanged.
            cycles *= 1.0 + (-noise + (noise + noise) * self._rng.random())
        self._accrued_cycles += cycles
        self.total_cycles += cycles
        self.cycles_by_op[op] += cycles
        self.count_by_op[op] += 1
        if self._pending_op:
            self._pending_cycles += cycles

    def charge_base(self, op: str) -> None:
        """Charge the base data-path cost of ``op``: :meth:`charge`, inlined."""
        if self.idle_waiter is not None:
            self.idle_waiter(False)
        config = self.config
        cycles = config.base_cycles[op]
        noise = config.measurement_noise_frac
        if noise:
            cycles *= 1.0 + (-noise + (noise + noise) * self._rng.random())
        self._accrued_cycles += cycles
        self.total_cycles += cycles
        self.cycles_by_op[op] += cycles
        self.count_by_op[op] += 1
        if self._pending_op:
            self._pending_cycles += cycles

    def replay_idle_polls(self, op: str, t_next: float, now: float,
                          tick_first: bool, floor_s: float) -> Tuple[int, float]:
        """Book the empty polls a spinning loop would have made while parked:
        one ``charge_base(op)`` + :meth:`drain_seconds` at ``t_next`` and then
        every ``max(poll cost, floor_s)`` until ``now`` (a tick exactly at
        ``now`` counts only when ``tick_first``), draw for draw and addition
        for addition.  The ledger is drained and outside an operation sample:
        a loop parks in that state and any later charge wakes it first.
        Returns ``(ticks replayed, next tick instant)``."""
        config = self.config
        base = config.base_cycles[op]
        noise = config.measurement_noise_frac
        span = noise + noise
        clock_hz = config.clock_hz
        rand = self._rng.random
        total = self.total_cycles
        by_op = self.cycles_by_op[op]
        ticks = 0
        while t_next < now or (tick_first and t_next == now):
            cycles = base * (1.0 + (-noise + span * rand())) if noise else base
            total += cycles
            by_op += cycles
            ticks += 1
            t_next += max(cycles / clock_hz, floor_s)
        self.total_cycles = total
        self.cycles_by_op[op] = by_op
        self.count_by_op[op] += ticks
        return ticks, t_next

    # -- operation-scoped sampling (perftest extension, §5.5.1) -------------

    def begin_op_sample(self, op: str) -> None:
        self._pending_op = op
        self._pending_cycles = 0.0

    def end_op_sample(self) -> None:
        if self._pending_op and self.record_samples:
            self.samples.append(CycleSample(self._pending_op, self._pending_cycles))
        self._pending_op = ""
        self._pending_cycles = 0.0

    def mean_sample_cycles(self, op: str) -> float:
        values = [s.cycles for s in self.samples if s.op == op]
        if not values:
            raise ValueError(f"no samples recorded for op {op!r}")
        return sum(values) / len(values)

    # -- time conversion ------------------------------------------------------

    def drain_seconds(self) -> float:
        """Return accrued CPU time as seconds and reset the accumulator."""
        seconds = self._accrued_cycles / self.config.clock_hz
        self._accrued_cycles = 0.0
        return seconds

    def mean_cycles(self, op: str) -> float:
        count = self.count_by_op.get(op, 0)
        if count == 0:
            raise ValueError(f"no operations charged under {op!r}")
        return self.cycles_by_op[op] / count


class AppProcess:
    """One process of a containerised application."""

    def __init__(self, name: str, config: Config, record_samples: bool = False):
        self.pid = next(_pids)
        self.name = name
        self.config = config
        self.space = AddressSpace(name=f"{name}:{self.pid}")
        self.cpu = CpuContext(config.cpu, seed=config.seed ^ self.pid,
                              record_samples=record_samples)
        self.frozen = False
        self._sim_processes: List[Process] = []
        # Opaque heap model: bulk memory (JVM heaps and the like) whose
        # *contents* do not matter to the experiments but whose size and
        # dirtying rate drive pre-copy transfer volume.  Tracked by bytes so
        # a multi-GiB Hadoop container does not materialise real pages.
        self.synthetic_heap_bytes = 0
        self.synthetic_dirty_rate_bps = 0.0  # bytes/second of redirtying
        self._synthetic_last_snapshot: float = 0.0
        self._synthetic_dumped_once = False

    def set_synthetic_heap(self, heap_bytes: int, dirty_rate_bps: float) -> None:
        """Attach an opaque heap (size + redirtying rate) to the process."""
        self.synthetic_heap_bytes = heap_bytes
        self.synthetic_dirty_rate_bps = dirty_rate_bps

    def synthetic_dirty_estimate(self, now: float) -> int:
        """Bytes the next snapshot would ship, without consuming them."""
        if self.synthetic_heap_bytes == 0:
            return 0
        if not self._synthetic_dumped_once:
            return self.synthetic_heap_bytes
        elapsed = max(0.0, now - self._synthetic_last_snapshot)
        return min(self.synthetic_heap_bytes,
                   int(elapsed * self.synthetic_dirty_rate_bps))

    def synthetic_dirty_bytes(self, now: float, full: bool) -> int:
        """Bytes of opaque heap to ship in this snapshot (and reset clock)."""
        if self.synthetic_heap_bytes == 0:
            return 0
        if full or not self._synthetic_dumped_once:
            self._synthetic_dumped_once = True
            self._synthetic_last_snapshot = now
            return self.synthetic_heap_bytes
        elapsed = max(0.0, now - self._synthetic_last_snapshot)
        self._synthetic_last_snapshot = now
        return min(self.synthetic_heap_bytes,
                   int(elapsed * self.synthetic_dirty_rate_bps))

    def attach(self, process: Process) -> Process:
        """Track a sim process as belonging to this app process."""
        self._sim_processes.append(process)
        return process

    def live_sim_processes(self) -> List[Process]:
        """The still-running execution contexts of this process."""
        self._sim_processes = [p for p in self._sim_processes if p.is_alive]
        return list(self._sim_processes)

    def freeze(self) -> None:
        """Stop all the process's execution contexts (CRIU's final freeze)."""
        self.frozen = True
        for process in self.live_sim_processes():
            process.interrupt("frozen")
        self._sim_processes.clear()

    def unfreeze(self) -> None:
        """Thaw a frozen process in place (migration rollback).  The
        interrupted execution contexts are gone for good; the application's
        ``on_rollback`` hook respawns its loops."""
        self.frozen = False

    def __repr__(self) -> str:
        return f"<AppProcess {self.name} pid={self.pid}>"


class Container:
    """The unit of checkpoint/restore: a set of processes on one server."""

    _ids = itertools.count(1)

    def __init__(self, name: str, server: "Server"):
        self.container_id = f"ct{next(self._ids):04d}"
        self.name = name
        self.server = server
        self.processes: List[AppProcess] = []
        self.apps: List[object] = []  # application objects (perftest, hadoop tasks)
        # CRIU seizes the task tree for the duration of each dump; compute
        # loops cooperate by sleeping through [now, paused_until].
        self.paused_until = 0.0

    def pause_for(self, sim: Simulator, duration_s: float) -> None:
        """CRIU-style seizure: cooperative loops sleep until it ends."""
        self.paused_until = max(self.paused_until, sim.now + duration_s)

    def wait_if_paused(self, sim: Simulator):
        """Generator: sleep until the current dump pause (if any) ends."""
        while sim.now < self.paused_until:
            yield sim.timeout(self.paused_until - sim.now)

    def add_process(self, name: str, record_samples: bool = False) -> AppProcess:
        """Create a process inside this container (initial or exec'd)."""
        process = AppProcess(name, self.server.config, record_samples=record_samples)
        self.processes.append(process)
        return process

    def freeze(self) -> None:
        """Stop every process (the final stop-and-copy seizure)."""
        for process in self.processes:
            process.freeze()

    def unfreeze(self) -> None:
        """Thaw every process in place (migration rollback on the source)."""
        for process in self.processes:
            process.unfreeze()

    def total_mapped_bytes(self) -> int:
        """Mapped virtual memory across all the container's processes."""
        return sum(p.space.total_mapped_bytes() for p in self.processes)

    def __repr__(self) -> str:
        return f"<Container {self.name} ({self.container_id}) on {self.server.name}>"


class Server:
    """A physical machine: fabric node + RNIC + containers."""

    def __init__(self, sim: Simulator, network: Network, name: str, config: Config):
        self.sim = sim
        self.network = network
        self.name = name
        self.config = config
        self.node: Node = network.add_node(name)
        self.rnic = RNIC(sim, self.node, config)
        self.containers: Dict[str, Container] = {}

    def create_container(self, name: str) -> Container:
        if name in self.containers:
            raise ValueError(f"{self.name}: container {name!r} already exists")
        container = Container(name, self)
        self.containers[name] = container
        return container

    def adopt_container(self, container: Container) -> None:
        """Take ownership of a (restored) container."""
        container.server = self
        self.containers[container.name] = container

    def remove_container(self, name: str) -> Container:
        return self.containers.pop(name)

    def __repr__(self) -> str:
        return f"<Server {self.name}>"


class ClusterBed:
    """Generic cluster assembler: simulator + network + named servers.

    Owns the lazily-created pairwise TCP channels used by the migration
    tool (state transfer) and the MigrRDMA control plane (partner
    notification, rkey fetches).  Subclasses decide *which* servers exist:
    :class:`Testbed` stands up the paper's src/dst/partners trio,
    :class:`repro.fleet.Fleet` stands up racks of hosts on a fat-tree.
    """

    def __init__(self, config: Optional[Config] = None):
        # Restart the PID stream per bed: pids name metrics and seed
        # per-process CPU jitter (config.seed ^ pid), so leaking the
        # counter across beds would make the second run of an identical
        # scenario in one interpreter observably different.
        global _pids
        _pids = itertools.count(1000)
        # Same story for the RNIC QPN band stream: bands make QPNs (and
        # so virtual QPNs) testbed-unique, and must restart with the bed.
        from repro.rnic.nic import reset_qpn_bases
        reset_qpn_bases()
        self.config = config or default_config()
        self.sim = Simulator()
        self.network = Network(self.sim, self.config)
        self._server_list: List[Server] = []
        self._servers_by_name: Dict[str, Server] = {}
        self._channels: Dict[Tuple[str, str], TcpChannel] = {}

    def add_server(self, name: str) -> Server:
        """Create and register a server; order of creation is the order
        :attr:`servers` reports (and therefore part of determinism)."""
        if name in self._servers_by_name:
            raise ValueError(f"duplicate server name {name!r}")
        server = Server(self.sim, self.network, name, self.config)
        self._server_list.append(server)
        self._servers_by_name[name] = server
        return server

    @property
    def servers(self) -> List[Server]:
        return list(self._server_list)

    def server(self, name: str) -> Server:
        try:
            return self._servers_by_name[name]
        except KeyError:
            raise LookupError(f"unknown server {name!r}") from None

    def channel(self, a: str, b: str) -> TcpChannel:
        """The (cached) TCP channel between servers ``a`` and ``b``."""
        if a == b:
            raise ValueError("no loopback channels")
        key = (min(a, b), max(a, b))
        channel = self._channels.get(key)
        if channel is None:
            channel = TcpChannel(self.network, key[0], key[1])
            self._channels[key] = channel
        return channel

    def run(self, process_or_gen, limit: float = 300.0):
        """Run a generator/process to completion on the shared simulator."""
        if isinstance(process_or_gen, Generator):
            process_or_gen = self.sim.spawn(process_or_gen)
        return self.sim.run_until_complete(process_or_gen, limit=limit)


class Testbed(ClusterBed):
    """The paper's evaluation topology: source, destination, N partners.

    A :class:`ClusterBed` with the servers every two-node experiment uses,
    created in a fixed order ("src", "dst", "partner0", ...).  That order
    fixes the pid stream, and with it every simtime-equivalence pin.
    """

    def __init__(self, config: Optional[Config] = None, num_partners: int = 1):
        super().__init__(config)
        self.source = self.add_server("src")
        self.destination = self.add_server("dst")
        self.partners: List[Server] = [
            self.add_server(f"partner{i}") for i in range(num_partners)
        ]


def build(config: Optional[Config] = None, num_partners: int = 1) -> Testbed:
    """Convenience constructor used by examples and benchmarks."""
    return Testbed(config=config, num_partners=num_partners)
