"""Fleet assembly: racks of hosts, a fat-tree fabric, a running workload.

:class:`Fleet` is a :class:`~repro.cluster.ClusterBed` — the same
substrate the paper's two-node :class:`~repro.cluster.Testbed` is built
on — that stands up ``racks × hosts_per_rack`` servers behind a
:class:`~repro.fabric.FatTreeTopology`, installs the MigrRDMA world on
every host, registers everything in a :class:`~repro.fleet.state.FleetState`,
and populates the hosts with paired perftest containers (RDMA WRITE
sender → receiver, one QP pair each, paced so hundreds of endpoints stay
tractable).  A two-host, one-rack fleet is the degenerate case: same
wiring as the Testbed, no oversubscribed trunk in the path.

Container naming is positional (``ct000``, ``ct001``, ...) and *names*
are the identity the fleet layers use everywhere — ``container_id``
values depend on interpreter history and never appear in digests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.apps.perftest import PerftestEndpoint, connect_endpoints
from repro.apps.pollloop import quiesce
from repro.chaos.invariants import InvariantContext
from repro.cluster import ClusterBed, Container
from repro.config import Config, MiB, default_config
from repro.core import MigrRdmaWorld
from repro.fabric import FatTreeTopology

from .journal import SchedulerJournal
from .scheduler import AdmissionLimits, MigrationScheduler, drain_with_recovery
from .state import FleetState

__all__ = ["Fleet", "FleetSpec", "build_fleet"]


@dataclass
class FleetSpec:
    """Shape and workload parameters of a fleet."""

    racks: int = 2
    hosts_per_rack: int = 4
    containers: int = 16
    #: ToR trunk oversubscription: trunk rate = hosts * NIC rate / this
    oversubscription: float = 4.0
    #: overrides config.seed when set (the determinism knob sweeps turn)
    seed: Optional[int] = None
    #: per-host capacity the state store enforces at placement time
    qp_quota: int = 64
    host_memory_bytes: int = 64 * MiB
    #: per-container workload: paced RDMA WRITE stream + synthetic heap
    msg_size: int = 8192
    depth: int = 4
    pace_s: float = 200e-6
    heap_bytes: int = 2 * MiB
    heap_dirty_bps: float = 8 * MiB
    verify_content: bool = True
    #: KV workload riding the fleet: server+client container pairs
    #: (0 = perftest-only, the historical fleet — digests unchanged)
    kv_pairs: int = 0
    kv_keyspace: int = 16
    kv_depth: int = 2
    kv_value_len: int = 32

    def __post_init__(self):
        if self.racks < 1:
            raise ValueError(f"racks must be >= 1, got {self.racks}")
        if self.hosts_per_rack < 1:
            raise ValueError(
                f"hosts_per_rack must be >= 1, got {self.hosts_per_rack}")
        if self.racks * self.hosts_per_rack < 2:
            raise ValueError("a fleet needs at least 2 hosts")
        if self.containers < 2:
            raise ValueError(f"containers must be >= 2, got {self.containers}")


class Fleet(ClusterBed):
    """A multi-rack cluster with a live, migratable workload."""

    def __init__(self, spec: Optional[FleetSpec] = None,
                 config: Optional[Config] = None):
        self.spec = spec = spec or FleetSpec()
        config = config or default_config()
        if spec.seed is not None:
            config = config.replace(seed=spec.seed)
        super().__init__(config)
        rack_map: Dict[str, List[str]] = {
            f"rack{r}": [f"r{r}h{h}" for h in range(spec.hosts_per_rack)]
            for r in range(spec.racks)
        }
        for hosts in rack_map.values():
            for name in hosts:
                self.add_server(name)
        self.topology = FatTreeTopology(
            self.sim, config, rack_map,
            oversubscription=spec.oversubscription).attach(self.network)
        self.world = MigrRdmaWorld(self)
        self.state = FleetState()
        for rack, hosts in rack_map.items():
            for name in hosts:
                self.state.add_host(name, rack, qp_quota=spec.qp_quota,
                                    memory_bytes=spec.host_memory_bytes)
        self.endpoints: List[PerftestEndpoint] = []
        self.pairs: List[Tuple[PerftestEndpoint, PerftestEndpoint]] = []
        self.kv_servers: list = []
        self.kv_clients: list = []
        #: the last :meth:`run_policy`'s journal
        self.journal: Optional[SchedulerJournal] = None
        if spec.kv_pairs:
            from repro.rnic import TenantSpec, install_qos

            install_qos(self.servers,
                        [TenantSpec("kv", max_qps=2 * spec.kv_pairs + 4)])
        self._build_workload()

    # ------------------------------------------------------------------
    # workload

    def _build_workload(self) -> None:
        """Paired endpoints: sender ``ct{2k}`` on host ``k mod n``,
        receiver ``ct{2k+1}`` offset a rack away (or one host over in a
        single-rack fleet) so steady-state traffic crosses the trunks."""
        spec = self.spec
        hosts = list(self.state.hosts)
        offset = spec.hosts_per_rack if spec.racks > 1 else 1
        for i in range(spec.containers):
            pair = i // 2
            if i % 2 == 0:
                host = hosts[pair % len(hosts)]
            else:
                host = hosts[(pair + offset) % len(hosts)]
            name = f"ct{i:03d}"
            server = self.server(host)
            container = server.create_container(name)
            endpoint = PerftestEndpoint(
                server, name=name, world=self.world, container=container,
                msg_size=spec.msg_size, depth=spec.depth, mode="write",
                verify_content=spec.verify_content, pace_s=spec.pace_s)
            endpoint.process.set_synthetic_heap(spec.heap_bytes,
                                                spec.heap_dirty_bps)
            self.endpoints.append(endpoint)
            self.state.add_container(
                name, host, qps=1,
                memory_bytes=spec.heap_bytes
                + endpoint.buffer_bytes_per_qp())
        for k in range(spec.containers // 2):
            self.pairs.append((self.endpoints[2 * k], self.endpoints[2 * k + 1]))
        if spec.kv_pairs:
            self._build_kv_workload()

    def _build_kv_workload(self) -> None:
        """KV server/client container pairs under tenant ``"kv"``: the
        server exports its hash table a rack away from its client, so KV
        GET READs cross the trunks like the perftest streams do — and
        both containers are registered in the state store, so drains and
        rebalances migrate live KV tables and their clients."""
        from repro.apps.kvstore import KvClient, KvServer

        spec = self.spec
        hosts = list(self.state.hosts)
        offset = spec.hosts_per_rack if spec.racks > 1 else 1
        for j in range(spec.kv_pairs):
            shost = hosts[(2 * j + 1) % len(hosts)]
            chost = hosts[(2 * j + 1 + offset) % len(hosts)]
            sname, cname = f"kv{j:03d}s", f"kv{j:03d}c"
            server = self.server(shost)
            kv = KvServer(server, name=sname, world=self.world,
                          container=server.create_container(sname),
                          n_buckets=64, value_cap=max(64, spec.kv_value_len),
                          depth=8, tenant="kv")
            cserver = self.server(chost)
            client = KvClient(cserver, kv, name=cname, world=self.world,
                              container=cserver.create_container(cname),
                              keyspace=[f"kv{j}-{i:03d}"
                                        for i in range(spec.kv_keyspace)],
                              value_len=spec.kv_value_len, depth=spec.kv_depth,
                              seed=self.config.seed, tenant="kv",
                              pace_s=spec.pace_s)
            self.kv_servers.append(kv)
            self.kv_clients.append(client)
            self.state.add_container(sname, shost, qps=1,
                                     memory_bytes=kv.layout.table_bytes)
            self.state.add_container(cname, chost, qps=1,
                                     memory_bytes=client._buf_bytes())
        self.endpoints.extend(self.kv_servers)
        self.endpoints.extend(self.kv_clients)

    def setup(self):
        """Generator: verbs resources + QP connections for every pair."""
        from repro.apps.kvstore import connect_kv

        for tx, rx in self.pairs:
            yield from tx.setup(qp_budget=1)
            yield from rx.setup(qp_budget=1)
            yield from connect_endpoints(tx, rx, qp_count=1)
        # An odd trailing container carries no RDMA traffic but still has
        # a process + heap, so it migrates like any other.
        if len(self.pairs) * 2 < self.spec.containers:
            yield from self.endpoints[len(self.pairs) * 2].setup(qp_budget=1)
        for kv, client in zip(self.kv_servers, self.kv_clients):
            yield from kv.setup(client_budget=1)
            kv.preload(client.keyspace, self.spec.kv_value_len)
            yield from client.setup()
            yield from connect_kv(kv, client)

    def start_traffic(self) -> None:
        """WRITE mode: only senders run loops (one-sided, no receiver)."""
        for tx, _rx in self.pairs:
            tx.start_as_sender()
        for kv in self.kv_servers:
            kv.start()
        for client in self.kv_clients:
            client.start()

    def quiesce(self):
        """Generator: stop senders, drain in-flight completions."""
        return (yield from quiesce(self, self.endpoints))

    def run_policy(self, policy: str, target: str, concurrency: int,
                   placement: str = "least-loaded", chaos=None):
        """Plan ``policy`` over ``target`` and run it to completion, across
        scheduler crashes, with every admission cap at ``concurrency`` (so
        the fleet-wide one binds); then let the streams settle and quiesce.
        Returns ``(FleetReport, jobs)``; :attr:`journal` keeps the
        transition log and every per-migration report."""
        limits = AdmissionLimits(fleet=concurrency, per_host=concurrency,
                                 per_rack=concurrency, per_uplink=concurrency)
        scheduler = MigrationScheduler(self, limits=limits,
                                       placement=placement, chaos=chaos)
        jobs = scheduler.plan(policy, target)
        self.journal = SchedulerJournal()

        def flow():
            report = yield from drain_with_recovery(scheduler, jobs,
                                                    journal=self.journal)
            yield self.sim.timeout(3e-3)
            yield from self.quiesce()
            return report

        return self.run(flow(), limit=1200.0), jobs

    def context(self, plan=None, **extra) -> InvariantContext:
        """Everything the invariant checkers may inspect about the last
        :meth:`run_policy` (same surface as the workload beds')."""
        return InvariantContext(self, world=self.world,
                                endpoints=self.endpoints, pairs=self.pairs,
                                reports=self.journal.migration_reports,
                                plan=plan, fleet=self, **extra)

    # ------------------------------------------------------------------
    # lookups

    def container(self, name: str) -> Container:
        """The live container object, wherever it currently lives."""
        return self.server(self.state.host_of(name)).containers[name]

    def __repr__(self) -> str:
        return (f"<Fleet racks={self.spec.racks} "
                f"hosts={len(self.state.hosts)} "
                f"containers={len(self.state.containers)}>")


def build_fleet(**kwargs) -> Fleet:
    """Convenience constructor: ``build_fleet(racks=2, containers=16)``."""
    return Fleet(FleetSpec(**kwargs))
