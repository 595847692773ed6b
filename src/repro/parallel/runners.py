"""Picklable sweep runners: one module-level function per sweep point.

These are the only entry points the parallel engine dispatches to.  They
must stay importable from a spawn worker (no closures, no lambdas), take
plain-data kwargs, and return plain data (dicts, or dataclasses made of
plain fields) so the results pickle back to the parent.

Each runner builds its own :class:`~repro.cluster.Testbed` or
:class:`~repro.cluster.ClusterBed` (fleet runners build whole racks) —
whose constructor restarts the global PID stream and the per-NIC QPN
band stream — so a point's result depends
only on the runner's arguments, never on which process or in which order
it ran.  That property is what makes ``--jobs N`` digests bit-identical
to ``--jobs 1`` (pinned by ``tests/integration/test_parallel_determinism``).
"""

from __future__ import annotations

import time
from typing import Dict, Optional


def _setup_migration(num_qps: int, migrate: str, msg_size: int, depth: int,
                     verify_content: bool = False):
    """Build the testbed + connected endpoints for one migration point."""
    from repro import cluster
    from repro.apps.perftest import PerftestEndpoint, connect_endpoints
    from repro.core import MigrRdmaWorld

    tb = cluster.build(num_partners=1)
    world = MigrRdmaWorld(tb)
    kwargs = dict(world=world, mode="write", msg_size=msg_size, depth=depth,
                  verify_content=verify_content)
    sender = PerftestEndpoint(tb.source if migrate == "sender" else tb.partners[0],
                              name="tx", **kwargs)
    receiver = PerftestEndpoint(tb.partners[0] if migrate == "sender" else tb.source,
                                name="rx", **kwargs)
    mover = sender if migrate == "sender" else receiver

    def setup():
        yield from sender.setup(qp_budget=num_qps)
        yield from receiver.setup(qp_budget=num_qps)
        yield from connect_endpoints(sender, receiver, qp_count=num_qps)

    tb.run(setup())
    return tb, world, sender, receiver, mover


def _run_migration_flow(tb, world, sender, receiver, mover, presetup: bool,
                        sample_partner: bool = False):
    """Start traffic, migrate the mover mid-stream, settle, stop."""
    from repro.core import LiveMigration
    from repro.metrics import ThroughputSampler

    sampler = None
    if sample_partner:
        sampler = ThroughputSampler.for_nic(tb.sim, tb.partners[0].rnic, 5e-3)
        sampler.start()
    sender.start_as_sender()
    reports = []

    def flow():
        yield tb.sim.timeout(0.25 if sample_partner else 2e-3)
        migration = LiveMigration(world, mover.container, tb.destination,
                                  presetup=presetup)
        reports.append((yield from migration.run()))
        yield tb.sim.timeout(0.3 if sample_partner else 2e-3)
        sender.stop()
        receiver.stop()
        yield tb.sim.timeout(2e-3)

    tb.run(flow(), limit=1200.0)
    if sampler is not None:
        sampler.stop()
    assert sender.stats.clean, sender.stats.status_errors[:2]
    return reports[0], sampler


def _report_fields(report) -> Dict[str, object]:
    return {
        "phases": dict(report.breakdown.ordered()),
        "blackout_s": report.blackout_s,
        "wbs_elapsed_s": report.wbs_elapsed_s,
        "t_suspend": report.t_suspend,
        "t_resume": report.t_resume,
    }


def migration_run(num_qps: int, migrate: str, presetup: bool,
                  msg_size: int = 65536, depth: int = 8,
                  sample_partner: bool = False) -> Dict[str, object]:
    """One migration point of Figs. 3/4/5: plain-data report summary."""
    tb, world, sender, receiver, mover = _setup_migration(
        num_qps, migrate, msg_size, depth)
    report, sampler = _run_migration_flow(tb, world, sender, receiver, mover,
                                          presetup, sample_partner)
    out = {"num_qps": num_qps, "migrate": migrate, "presetup": presetup,
           "sim_now": tb.sim.now,
           "events_processed": tb.sim.events_processed}
    out.update(_report_fields(report))
    if sampler is not None:
        direction = "rx" if migrate == "sender" else "tx"
        out["sample_direction"] = direction
        out["samples"] = [getattr(s, f"{direction}_gbps")
                          for s in sampler.samples]
    return out


def migros_run(num_qps: int) -> Dict[str, object]:
    """One row of the §6 MigrRDMA-vs-MigrOS comparison table."""
    from repro.baselines import MigrOsModel
    from repro.config import default_config

    tb, world, sender, receiver, mover = _setup_migration(
        num_qps, "sender", msg_size=65536, depth=8)
    report, _sampler = _run_migration_flow(tb, world, sender, receiver, mover,
                                           presetup=True)
    row = MigrOsModel(default_config()).compare(report, num_qps)
    row["sim_now"] = tb.sim.now
    row["events_processed"] = tb.sim.events_processed
    return row


def table4_run(mode: str, virtualized: bool, iters: int = 1024,
               msg_size: int = 64, depth: int = 16) -> Dict[str, object]:
    """One cell of Table 4: mean data-path cycles for one verb mode."""
    from repro import cluster
    from repro.apps.perftest import PerftestEndpoint, connect_endpoints
    from repro.core import MigrRdmaWorld

    tb = cluster.build(num_partners=1)
    world = MigrRdmaWorld(tb) if virtualized else None
    tx = PerftestEndpoint(tb.source, world=world, mode=mode, msg_size=msg_size,
                          depth=depth, sample_cycles=True)
    rx = PerftestEndpoint(tb.partners[0], world=world, mode=mode,
                          msg_size=msg_size, depth=depth)

    def flow():
        yield from tx.setup(qp_budget=1)
        yield from rx.setup(qp_budget=1)
        yield from connect_endpoints(tx, rx, qp_count=1)
        if mode == "send":
            rx.start_as_receiver()
        tx.start_as_sender(iters=iters)
        while tx.running:
            yield tb.sim.timeout(50e-6)

    tb.run(flow(), limit=60.0)
    assert tx.stats.clean, tx.stats
    return {"mode": mode, "virtualized": virtualized,
            "mean_cycles": tx.process.cpu.mean_sample_cycles(mode),
            "sim_now": tb.sim.now}


def fig6_run(task: str, scenario: str, fast: bool,
             event_after_s: float) -> Dict[str, object]:
    """One Hadoop maintenance strategy of Fig. 6."""
    from repro.apps.hadoop_scenarios import fast_test_config, run_scenario

    config = fast_test_config() if fast else None
    outcome = run_scenario(task, scenario, config=config,
                           event_after_s=event_after_s)
    out = {"task": task, "scenario": scenario, "jct_s": outcome.jct_s,
           "tput_gbps": outcome.tput_gbps() if task == "dfsio" else None}
    report = outcome.migration_report
    if report is not None:
        out.update(_report_fields(report))
    return out


def wbs_timeout_run(wbs_timeout_s: float, msg_size: int = 256 * 1024,
                    depth: int = 64) -> Dict[str, object]:
    """One wait-before-stop point under a bounded drain (spotty network)."""
    from repro import cluster
    from repro.apps.perftest import PerftestEndpoint, connect_endpoints
    from repro.config import default_config
    from repro.core import LiveMigration, MigrRdmaWorld

    config = default_config()
    config.migration.wbs_timeout_s = wbs_timeout_s
    tb = cluster.build(config=config, num_partners=1)
    world = MigrRdmaWorld(tb)
    sender = PerftestEndpoint(tb.source, world=world, mode="write",
                              msg_size=msg_size, depth=depth)
    receiver = PerftestEndpoint(tb.partners[0], world=world, mode="write",
                                msg_size=msg_size, depth=depth)

    def setup():
        yield from sender.setup(qp_budget=1)
        yield from receiver.setup(qp_budget=1)
        yield from connect_endpoints(sender, receiver, qp_count=1)

    tb.run(setup())
    sender.start_as_sender()

    def scenario():
        yield tb.sim.timeout(5e-3)
        migration = LiveMigration(world, sender.container, tb.destination)
        reports.append((yield from migration.run()))
        yield tb.sim.timeout(30e-3)
        sender.stop()
        yield tb.sim.timeout(20e-3)

    reports = []
    tb.run(scenario(), limit=300.0)
    report = reports[0]
    conn = sender.connections[0]
    return {
        "wbs_timeout_s": wbs_timeout_s,
        "inflight_bytes": depth * msg_size,
        "link_rate_bps": tb.config.link.rate_bps,
        "wbs_elapsed_s": report.wbs_elapsed_s,
        "wbs_timed_out": report.wbs_timed_out,
        "blackout_s": report.blackout_s,
        "completed": sender.stats.completed,
        "order_errors": len(sender.stats.order_errors),
        "status_errors": len(sender.stats.status_errors),
        "clean": sender.stats.clean,
        "exactly_once": conn.completed == conn.next_seq - conn.outstanding,
    }


def torture_run(seed: int, index: int, scenarios: str = "all",
                rpc_loss: Optional[float] = None,
                kill_dest_at: Optional[str] = None,
                partition: Optional[float] = None,
                kill_scheduler_at: Optional[str] = None):
    """One torture case; returns the (picklable) TortureOutcome."""
    from repro.chaos.torture import run_case, sample_case

    return run_case(sample_case(seed, index, scenarios,
                                rpc_loss=rpc_loss,
                                kill_dest_at=kill_dest_at,
                                partition=partition,
                                kill_scheduler_at=kill_scheduler_at))


def recovery_run(seed: int = 0, rpc_loss: float = 0.05,
                 kill_dest_at: str = "precopy-dumped", down_s: float = 18e-3,
                 budget: int = 3, num_qps: int = 2, msg_size: int = 65536,
                 depth: int = 8) -> Dict[str, object]:
    """One supervised-recovery point: crash the destination daemon at a
    phase boundary, watch the failure detector force a rollback, and let
    the :class:`~repro.resilience.MigrationSupervisor` retry until the
    migration lands (BENCH-style recovery cell).

    Control-plane RPCs are additionally dropped with probability
    ``rpc_loss`` for the whole run, exercising the retry/backoff layer on
    every attempt.  All chaos invariants (including ``service-continuity``)
    run afterwards, and the digest pins ``--jobs N`` determinism.
    """
    from repro import cluster
    from repro.apps.perftest import PerftestEndpoint, connect_endpoints
    from repro.chaos import FaultPlan
    from repro.chaos.invariants import DEFAULT_REGISTRY, InvariantContext, run_digest
    from repro.chaos.torture import quiesce
    from repro.core import MigrRdmaWorld
    from repro.resilience import MigrationSupervisor

    wall_start = time.perf_counter()
    tb = cluster.build(num_partners=1)
    world = MigrRdmaWorld(tb)
    kwargs = dict(world=world, mode="write", msg_size=msg_size, depth=depth,
                  verify_content=True)
    sender = PerftestEndpoint(tb.source, name="tx", **kwargs)
    receiver = PerftestEndpoint(tb.partners[0], name="rx", **kwargs)

    def setup():
        yield from sender.setup(qp_budget=num_qps)
        yield from receiver.setup(qp_budget=num_qps)
        yield from connect_endpoints(sender, receiver, qp_count=num_qps)

    tb.run(setup())
    plan = FaultPlan(seed=seed, name=f"recovery-{seed}")
    if rpc_loss:
        plan.drop(rpc_loss, protocol="tcp", payload_kind="rpc",
                  start_s=0.0, end_s=30.0)
    plan.daemon_crash("dest", kill_dest_at, down_s)
    plan.install(tb)
    sender.start_as_sender()
    reports = []

    def flow():
        yield tb.sim.timeout(2e-3)
        supervisor = MigrationSupervisor(world, sender.container,
                                         tb.destination, budget=budget,
                                         chaos=plan)
        reports.append((yield from supervisor.run()))
        yield tb.sim.timeout(3e-3)
        yield from quiesce(tb, [sender, receiver])

    tb.run(flow(), limit=1200.0)
    ctx = InvariantContext(tb, world=world, endpoints=[sender, receiver],
                           pairs=[(sender, receiver)], reports=reports,
                           plan=plan)
    inv = DEFAULT_REGISTRY.run(ctx)
    wall_s = time.perf_counter() - wall_start
    report = reports[0]
    stats = world.control.stats
    return {
        "seed": seed,
        "rpc_loss": rpc_loss,
        "kill_dest_at": kill_dest_at,
        "down_s": down_s,
        "attempts": report.attempts,
        "completed": not report.aborted,
        "rolled_back_attempts": sum(1 for a in report.attempts
                                    if a["rolled_back"]),
        "rolled_forward": report.rolled_forward,
        "blackout_ms": None if report.blackout_s is None
        else report.blackout_s * 1e3,
        "resilience": stats.as_dict(),
        "sim_now": tb.sim.now,
        "events_processed": tb.sim.events_processed,
        "wall_s": wall_s,
        "invariants_ok": inv.ok,
        "violations": [f"{name}: {message}" for name, message in inv.violations],
        "digest": run_digest(ctx, inv),
    }


def scale_run(num_qps: int, msg_size: int = 65536, depth: int = 8,
              mode: str = "write", trigger_s: float = 2e-3,
              presetup: bool = True) -> Dict[str, object]:
    """Large-fanout migration with full invariant checking (BENCH_scale).

    Mirrors the torture harness's perftest case — including the post-run
    quiesce drain and every registered chaos invariant — but fault-free and at
    datacenter fan-out (256/1024 QPs), so the result certifies that the
    indirection tables, WBS drain and go-back-N machinery stay *correct*
    at scale while the wall-clock figures say whether they stay *fast*.
    """
    from repro import cluster
    from repro.apps.perftest import PerftestEndpoint, connect_endpoints
    from repro.chaos.invariants import DEFAULT_REGISTRY, InvariantContext, run_digest
    from repro.chaos.torture import quiesce
    from repro.config import default_config
    from repro.core import LiveMigration, MigrRdmaWorld

    wall_start = time.perf_counter()
    config = default_config()
    # Partner pre-setup is serial firmware work, ~1.4 ms per QP (5.6 s at
    # 4096 QPs): under the default 2 s deadline that migration rolls back
    # with PresetupFailed.  A deadline only acts when it expires, so up to
    # ~1300 QPs nothing changes.
    config.migration.presetup_deadline_s = max(
        config.migration.presetup_deadline_s, 1.5e-3 * num_qps)
    tb = cluster.build(config=config, num_partners=1)
    world = MigrRdmaWorld(tb)
    kwargs = dict(world=world, mode=mode, msg_size=msg_size, depth=depth,
                  verify_content=mode in ("write", "send"))
    sender = PerftestEndpoint(tb.source, name="tx", **kwargs)
    receiver = PerftestEndpoint(tb.partners[0], name="rx", **kwargs)

    def setup():
        yield from sender.setup(qp_budget=num_qps)
        yield from receiver.setup(qp_budget=num_qps)
        yield from connect_endpoints(sender, receiver, qp_count=num_qps)

    tb.run(setup())
    if mode == "send":
        receiver.start_as_receiver()
    sender.start_as_sender()
    reports = []

    def flow():
        yield tb.sim.timeout(trigger_s)
        migration = LiveMigration(world, sender.container, tb.destination,
                                  presetup=presetup)
        reports.append((yield from migration.run()))
        yield tb.sim.timeout(3e-3)
        yield from quiesce(tb, [sender, receiver])

    tb.run(flow(), limit=1200.0)
    ctx = InvariantContext(tb, world=world, endpoints=[sender, receiver],
                           pairs=[(sender, receiver)], reports=reports)
    inv = DEFAULT_REGISTRY.run(ctx)
    wall_s = time.perf_counter() - wall_start
    report = reports[0]
    return {
        "num_qps": num_qps,
        "msg_size": msg_size,
        "depth": depth,
        "sim_now": tb.sim.now,
        "events_processed": tb.sim.events_processed,
        "events_cancelled": tb.sim.events_cancelled,
        "wall_s": wall_s,
        "events_per_sec": tb.sim.events_processed / wall_s if wall_s else 0.0,
        "blackout_ms": report.blackout_s * 1e3,
        "wbs_elapsed_us": report.wbs_elapsed_s * 1e6,
        "invariants_checked": list(inv.checked),
        "invariants_ok": inv.ok,
        "violations": [f"{name}: {message}" for name, message in inv.violations],
        "digest": run_digest(ctx, inv),
        # Speed-path accounting (never digested): how many events the
        # express lane absorbed.
        "events_credited": tb.sim.events_credited,
        "flow_expressed": sum(s.rnic.flow_expressed for s in tb.servers),
        "flow_fallbacks": sum(s.rnic.flow_fallbacks for s in tb.servers),
        "flow_materialized": sum(s.rnic.flow_materialized for s in tb.servers),
    }


def fleet_run(racks: int = 2, hosts_per_rack: int = 4, containers: int = 16,
              policy: str = "drain", target: str = "rack0", seed: int = 7,
              concurrency: int = 4, placement: str = "least-loaded",
              oversubscription: float = 4.0,
              kill_host: Optional[str] = None, kill_at: float = 0.05,
              kill_down_s: float = 0.05,
              degrade_rack: Optional[str] = None,
              degrade_start_s: float = 0.0, degrade_end_s: float = 0.5,
              degrade_factor: float = 4.0,
              kv_pairs: int = 0,
              partition_hosts: Optional[str] = None,
              partition_start_s: float = 5e-3,
              partition_dur_s: float = 2e-3,
              kill_scheduler_at: Optional[float] = None,
              scheduler_down_s: float = 20e-3) -> Dict[str, object]:
    """One fleet point: build a fleet, run a scheduling policy under
    admission control, check every invariant (including
    ``fleet-placement`` and ``lease-fencing``), and return the digested
    outcome.

    ``concurrency`` sets every :class:`~repro.fleet.AdmissionLimits` cap,
    so the fleet-wide limit is the binding one — that's the knob the
    experiments CLI sweeps to show trunk contention.  ``kill_host``
    schedules a :class:`~repro.chaos.HostKill` at ``kill_at`` (the
    torture overlay: a host dies mid-drain and the supervisors reroute);
    ``degrade_rack`` slows that rack's ToR trunk by ``degrade_factor``.
    ``partition_hosts`` (``"hostA:hostB"``) severs both directions of
    that pair — control RPCs and RDMA alike — for ``partition_dur_s``
    starting ``partition_start_s`` after traffic starts;
    ``kill_scheduler_at`` crashes the scheduler that long into the drain
    and lets :func:`~repro.fleet.drain_with_recovery` resume it from the
    journal after ``scheduler_down_s``.
    """
    from repro.chaos import FaultPlan
    from repro.chaos.invariants import DEFAULT_REGISTRY, InvariantContext, run_digest
    from repro.fleet import (AdmissionLimits, MigrationScheduler,
                             SchedulerJournal, build_fleet,
                             drain_with_recovery)

    wall_start = time.perf_counter()
    fleet = build_fleet(racks=racks, hosts_per_rack=hosts_per_rack,
                        containers=containers,
                        oversubscription=oversubscription, seed=seed,
                        kv_pairs=kv_pairs)
    fleet.run(fleet.setup())
    plan = FaultPlan(seed=seed, name=f"fleet-{seed}")
    if kill_host is not None:
        plan.host_kill(kill_host, at_s=fleet.sim.now + kill_at,
                       down_s=kill_down_s)
    if degrade_rack is not None:
        plan.degrade_uplink(degrade_rack,
                            start_s=fleet.sim.now + degrade_start_s,
                            end_s=fleet.sim.now + degrade_end_s,
                            factor=degrade_factor)
    if partition_hosts is not None:
        host_a, _, host_b = partition_hosts.partition(":")
        plan.partition(host_a, host_b,
                       start_s=fleet.sim.now + partition_start_s,
                       end_s=fleet.sim.now + partition_start_s
                       + partition_dur_s)
    if kill_scheduler_at is not None:
        plan.scheduler_crash(fleet.sim.now + kill_scheduler_at,
                             down_s=scheduler_down_s)
    chaos = None
    if not plan.is_noop:
        plan.install(fleet)
        chaos = plan
    fleet.start_traffic()
    limits = AdmissionLimits(fleet=concurrency, per_host=concurrency,
                             per_rack=concurrency, per_uplink=concurrency)
    scheduler = MigrationScheduler(fleet, limits=limits, placement=placement,
                                   chaos=chaos)
    jobs = scheduler.plan(policy, target)
    journal = SchedulerJournal()

    def flow():
        freport = yield from drain_with_recovery(scheduler, jobs,
                                                 journal=journal)
        yield fleet.sim.timeout(3e-3)
        yield from fleet.quiesce()
        return freport

    report = fleet.run(flow(), limit=1200.0)
    ctx = InvariantContext(fleet, world=fleet.world,
                           endpoints=fleet.endpoints, pairs=fleet.pairs,
                           reports=journal.migration_reports, plan=chaos,
                           fleet=fleet)
    inv = DEFAULT_REGISTRY.run(ctx)
    wall_s = time.perf_counter() - wall_start
    return {
        "racks": racks,
        "hosts": racks * hosts_per_rack,
        "containers": containers,
        "policy": policy,
        "target": target,
        "seed": seed,
        "concurrency": concurrency,
        "placement": placement,
        "oversubscription": oversubscription,
        "kill_host": kill_host,
        "degrade_rack": degrade_rack,
        "partition_hosts": partition_hosts,
        "kill_scheduler_at": kill_scheduler_at,
        "scheduler_crashes": journal.crashes,
        "journal_log": list(journal.log),
        "jobs_planned": len(jobs),
        "migrations": report.migrations,
        "completed": report.completed,
        "failed": report.failed,
        "max_concurrency": report.max_concurrency,
        "drain_s": report.drain_completion_s,
        "blackout": report.blackout_summary(),
        "links": report.link_stats,
        "link_peak_backlog": dict(report.link_peak_backlog),
        "outcomes": [o.line() for o in report.outcomes],
        "attempts_total": sum(o.attempts for o in report.outcomes),
        "kv_pairs": kv_pairs,
        "kv_gets": sum(c.stats.gets for c in fleet.kv_clients),
        "kv_puts": sum(c.stats.puts for c in fleet.kv_clients),
        "chaos": None if chaos is None else chaos.stats.as_dict(),
        "invariants_checked": list(inv.checked),
        "invariants_ok": inv.ok,
        "violations": [f"{name}: {message}" for name, message in inv.violations],
        "digest": run_digest(ctx, inv),
        "fleet_digest": report.digest(),
        "sim_now": fleet.sim.now,
        "events_processed": fleet.sim.events_processed,
        "wall_s": wall_s,
    }


def kvstore_run(seed: int = 7, n_clients: int = 2, keyspace: int = 48,
                value_len: int = 32, depth: int = 4, n_buckets: int = 128,
                noise: bool = True, noise_limit_gbps: Optional[float] = 40.0,
                noise_msg_size: int = 65536, noise_depth: int = 8,
                qos: bool = True, migrate: bool = True,
                trigger_s: float = 2e-3, settle_s: float = 3e-3,
                readback_keys: int = 4) -> Dict[str, object]:
    """One noisy-neighbour KV point (BENCH_kv / ``experiments kv``).

    A KV server on partner0 serves ``n_clients`` clients of tenant
    ``"victim"`` living on the source host; a perftest WRITE stream of
    tenant ``"noisy"`` shares the victim's egress NIC and blasts at
    partner1 for the whole run.  Mid-traffic the first victim client is
    live-migrated to the destination host.  With ``qos`` on, the noisy
    tenant is token-bucket shaped to ``noise_limit_gbps`` and the result
    reports whether its metered bytes stayed inside the bucket's
    admission bound; with it off (or ``noise_limit_gbps=None``) the run
    must stay bit-identical to an unshaped one — :data:`NicQoS.reserve`
    inserts zero events for unshaped tenants, and the determinism pin
    (``tests/integration/test_kv_determinism.py``) holds us to it.

    Every registered chaos invariant (including ``kv-linearizable``)
    and the full :class:`~repro.apps.contract.WorkloadHarness` run at
    the end; the returned dict carries victim GET latency percentiles,
    blackout, the neighbour's shaped throughput, and the digest that
    pins ``--jobs N`` equivalence.
    """
    from repro import cluster
    from repro.apps.contract import WorkloadHarness, run_contract
    from repro.apps.kvstore import KvClient, KvServer, connect_kv
    from repro.apps.perftest import (PerftestEndpoint, connect_endpoints,
                                     latency_percentiles)
    from repro.chaos.invariants import DEFAULT_REGISTRY, InvariantContext, run_digest
    from repro.chaos.torture import quiesce
    from repro.core import LiveMigration, MigrRdmaWorld
    from repro.rnic import TenantSpec, install_qos

    wall_start = time.perf_counter()
    tb = cluster.build(num_partners=2)
    world = MigrRdmaWorld(tb)
    if qos:
        specs = [TenantSpec("victim", max_qps=n_clients + 2)]
        if noise:
            rate = None if noise_limit_gbps is None else noise_limit_gbps * 1e9
            specs.append(TenantSpec("noisy", rate_bps=rate))
        install_qos(tb.servers, specs)

    keys = [f"key{i:04d}" for i in range(keyspace)]
    kv = KvServer(tb.partners[0], name="kv", world=world,
                  n_buckets=n_buckets, value_cap=max(64, value_len),
                  depth=32)
    clients = [KvClient(tb.source, kv, name=f"kv-c{i}", world=world,
                        keyspace=keys, value_len=value_len, depth=depth,
                        seed=seed, tenant="victim" if qos else None)
               for i in range(n_clients)]
    ntx = nrx = None
    if noise:
        nkwargs = dict(world=world, mode="write", msg_size=noise_msg_size,
                       depth=noise_depth, verify_content=True)
        ntx = PerftestEndpoint(tb.source, name="noise-tx",
                               tenant="noisy" if qos else None, **nkwargs)
        nrx = PerftestEndpoint(tb.partners[1], name="noise-rx", **nkwargs)

    def setup():
        yield from kv.setup(client_budget=n_clients)
        kv.preload(keys, value_len)
        for client in clients:
            yield from client.setup()
            yield from connect_kv(kv, client)
        if noise:
            yield from ntx.setup(qp_budget=1)
            yield from nrx.setup(qp_budget=1)
            yield from connect_endpoints(ntx, nrx, qp_count=1)

    tb.run(setup())
    t_traffic = tb.sim.now
    kv.start()
    for client in clients:
        client.start()
    if noise:
        ntx.start_as_sender()
    reports = []
    endpoints = [*clients, kv] + ([ntx, nrx] if noise else [])

    def flow():
        yield tb.sim.timeout(trigger_s)
        if migrate:
            migration = LiveMigration(world, clients[0].container,
                                      tb.destination, presetup=True)
            reports.append((yield from migration.run()))
        yield tb.sim.timeout(settle_s)
        yield from quiesce(tb, endpoints)

    tb.run(flow(), limit=1200.0)
    t_stop = tb.sim.now

    # Post-quiesce freshness sweep: the table is frozen, so a one-sided
    # READ from the (migrated) victim must see exactly the last applied
    # version of every probed key.
    freshness = []

    def sweep():
        for key in keys[:readback_keys]:
            log = kv.kv_applies.get(key)
            floor = log[-1][0] if log else 0
            got = yield from clients[0].readback(key)
            freshness.append((key, got[1] if got else -1, floor))

    tb.run(sweep(), limit=30.0)

    capabilities = {"accounting", "delivery", "history", "cas", "freshness"}
    qos_probes = []
    if qos and noise and noise_limit_gbps is not None:
        capabilities.add("qos")
        qos_probes = [(tb.source.rnic, "noisy", t_stop - t_traffic,
                       noise_depth * noise_msg_size)]
    harness = WorkloadHarness(
        name="kvstore", capabilities=frozenset(capabilities),
        endpoints=tuple(endpoints), pairs=(),
        kv_clients=tuple(clients), kv_server=kv,
        freshness_probes=tuple(freshness), qos_probes=tuple(qos_probes))
    contract = run_contract(harness)

    ctx = InvariantContext(tb, world=world, endpoints=endpoints,
                           pairs=[(ntx, nrx)] if noise else [],
                           reports=reports,
                           workload_errors=[f"contract/{c}: {m}"
                                            for c, m in contract])
    inv = DEFAULT_REGISTRY.run(ctx)
    wall_s = time.perf_counter() - wall_start

    rtts = sorted(lat for client in clients for lat in client.get_latencies)
    pcts = latency_percentiles(rtts) if rtts else {50: 0.0, 99: 0.0}
    out = {
        "seed": seed,
        "n_clients": n_clients,
        "noise": noise,
        "noise_limit_gbps": noise_limit_gbps,
        "qos": qos,
        "migrate": migrate,
        "puts": sum(c.stats.puts for c in clients),
        "gets": sum(c.stats.gets for c in clients),
        "get_misses": sum(c.stats.get_misses for c in clients),
        "cas_attempts": sum(c.stats.cas_attempts for c in clients),
        "cas_acquired": sum(c.stats.cas_acquired for c in clients),
        "victim_get_p50_us": pcts[50] * 1e6,
        "victim_get_p99_us": pcts[99] * 1e6,
        "blackout_ms": reports[0].blackout_s * 1e3 if reports else None,
        "contract_violations": [f"{check}: {message}"
                                for check, message in contract],
        "invariants_checked": list(inv.checked),
        "invariants_ok": inv.ok,
        "violations": [f"{name}: {message}" for name, message in inv.violations],
        "digest": run_digest(ctx, inv),
        "sim_now": tb.sim.now,
        "events_processed": tb.sim.events_processed,
        "wall_s": wall_s,
    }
    if noise:
        elapsed = t_stop - t_traffic
        done_bytes = ntx.stats.completed * noise_msg_size
        out["noise_gbps"] = done_bytes * 8 / elapsed / 1e9 if elapsed else 0.0
        if qos:
            st = tb.source.rnic.qos.state("noisy")
            allowed = tb.source.rnic.qos.allowed_bytes(
                "noisy", elapsed, slack_bytes=noise_depth * noise_msg_size)
            out["noise_tx_bytes"] = st.tx_bytes if st else 0
            out["noise_allowed_bytes"] = allowed
            out["noise_within_bound"] = (allowed is None or st is None
                                         or st.tx_bytes <= allowed)
            out["noise_throttle_events"] = st.throttle_events if st else 0
    return out


def simperf_round(num_qps: int, msg_size: int = 65536,
                  depth: int = 8) -> Dict[str, object]:
    """One round of the simperf reference scenario (BENCH_simperf).

    Times only the migration flow (setup excluded), matching what
    ``BENCH_simperf.json`` has always recorded.
    """
    tb, world, sender, receiver, mover = _setup_migration(
        num_qps, "sender", msg_size=msg_size, depth=depth)
    wall_start = time.perf_counter()
    report, _sampler = _run_migration_flow(tb, world, sender, receiver, mover,
                                           presetup=True)
    wall_s = time.perf_counter() - wall_start
    if tb.sim.failed_processes:
        raise AssertionError(
            f"background failures: {tb.sim.failed_processes[:2]}")
    return {
        "num_qps": num_qps,
        "sim_now": tb.sim.now,
        "events_processed": tb.sim.events_processed,
        "events_cancelled": tb.sim.events_cancelled,
        "wall_s": wall_s,
        "events_per_sec": tb.sim.events_processed / wall_s if wall_s else 0.0,
        "blackout_ms": report.blackout_s * 1e3,
        "events_credited": tb.sim.events_credited,
        "flow_expressed": sum(s.rnic.flow_expressed for s in tb.servers),
    }
