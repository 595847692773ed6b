"""Picklable sweep runners: one module-level function per sweep point.

These are the only entry points the parallel engine dispatches to.  They
must stay importable from a spawn worker (no closures, no lambdas), take
plain-data kwargs, and return plain data (dicts, or dataclasses made of
plain fields) so the results pickle back to the parent.

Each runner builds its own workload bed (:mod:`repro.beds`; fleet runners
build whole racks with :func:`repro.fleet.build_fleet`) — a
:class:`~repro.cluster.ClusterBed`, whose constructor restarts the global
PID stream and the per-NIC QPN band stream — so a point's result depends
only on the runner's arguments, never on which process or in which order
it ran.  That property is what makes ``--jobs N`` digests bit-identical
to ``--jobs 1`` (pinned by ``tests/integration/test_parallel_determinism``).
"""

from __future__ import annotations

import time
from typing import Dict, Optional


def _ready_bed(**kwargs):
    """A :class:`~repro.beds.PerftestBed`, set up and connected."""
    from repro.beds import PerftestBed

    bed = PerftestBed(**kwargs)
    bed.run(bed.setup())
    return bed


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
    from repro.obs import ThroughputSampler

    bed = _ready_bed(num_qps=num_qps, migrate=migrate, msg_size=msg_size,
                     depth=depth)
    if sample_partner:
        sampler = ThroughputSampler.for_nic(bed.sim, bed.partners[0].rnic, 5e-3)
        sampler.start()
        report = bed.run_migration(presetup, warmup_s=0.25, settle_s=0.3)
        sampler.stop()
    else:
        report = bed.run_migration(presetup)
    out = {"num_qps": num_qps, "migrate": migrate, "presetup": presetup,
           "sim_now": bed.sim.now,
           "events_processed": bed.sim.events_processed}
    out.update(_report_fields(report))
    if sample_partner:
        direction = "rx" if migrate == "sender" else "tx"
        out["sample_direction"] = direction
        out["samples"] = [getattr(s, f"{direction}_gbps")
                          for s in sampler.samples]
    return out


def migros_run(num_qps: int) -> Dict[str, object]:
    """One row of the §6 MigrRDMA-vs-MigrOS comparison table."""
    from repro.baselines import MigrOsModel
    from repro.config import default_config

    bed = _ready_bed(num_qps=num_qps)
    row = MigrOsModel(default_config()).compare(bed.run_migration(), num_qps)
    row["sim_now"] = bed.sim.now
    row["events_processed"] = bed.sim.events_processed
    return row


def table4_run(mode: str, virtualized: bool, iters: int = 1024,
               msg_size: int = 64, depth: int = 16) -> Dict[str, object]:
    """One cell of Table 4: mean data-path cycles for one verb mode."""
    from repro.beds import PerftestBed

    bed = PerftestBed(1, msg_size=msg_size, depth=depth, mode=mode,
                      virtualized=virtualized, sample_cycles=True)
    tx = bed.sender

    def flow():
        # Setup shares the traffic process (one spawn, not two): the
        # cell's event count and sim_now have always been taken this way.
        yield from bed.setup()
        bed.start_traffic(iters=iters)
        while tx.running:
            yield bed.sim.timeout(50e-6)

    bed.run(flow(), limit=60.0)
    bed.check_clean()
    return {"mode": mode, "virtualized": virtualized,
            "mean_cycles": tx.process.cpu.mean_sample_cycles(mode),
            "sim_now": bed.sim.now}


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
    from repro.config import default_config

    config = default_config()
    config.migration.wbs_timeout_s = wbs_timeout_s
    bed = _ready_bed(num_qps=1, msg_size=msg_size, depth=depth, config=config)
    sender = bed.sender
    bed.start_traffic()

    def scenario():
        # Not run_migration(): a timed-out drain is this point's subject,
        # so an unclean stream is reported below, not raised.
        yield bed.sim.timeout(5e-3)
        yield from bed.migrate()
        yield bed.sim.timeout(30e-3)
        sender.stop()
        yield bed.sim.timeout(20e-3)

    bed.run(scenario(), limit=300.0)
    report = bed.reports[0]
    conn = sender.connections[0]
    return {
        "wbs_timeout_s": wbs_timeout_s,
        "inflight_bytes": depth * msg_size,
        "link_rate_bps": bed.config.link.rate_bps,
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
    from repro.beds import checked
    from repro.chaos import FaultPlan
    from repro.resilience import MigrationSupervisor

    wall_start = time.perf_counter()
    bed = _ready_bed(num_qps=num_qps, msg_size=msg_size, depth=depth,
                     verify_content=True)
    plan = FaultPlan(seed=seed, name=f"recovery-{seed}")
    if rpc_loss:
        plan.drop(rpc_loss, protocol="tcp", payload_kind="rpc",
                  start_s=0.0, end_s=30.0)
    plan.daemon_crash("dest", kill_dest_at, down_s)
    plan.install(bed)
    bed.start_traffic()

    def flow():
        yield bed.sim.timeout(2e-3)
        supervisor = MigrationSupervisor(bed.world, bed.mover.container,
                                         bed.destination, budget=budget,
                                         chaos=plan)
        bed.reports.append((yield from supervisor.run()))
        yield bed.sim.timeout(3e-3)
        yield from bed.quiesce()

    bed.run(flow(), limit=1200.0)
    tail = checked(bed.context(plan=plan))
    del tail["invariants_checked"]  # never part of this runner's row
    wall_s = time.perf_counter() - wall_start
    report = bed.reports[0]
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
        "resilience": bed.world.control.stats.as_dict(),
        "sim_now": bed.sim.now,
        "events_processed": bed.sim.events_processed,
        "wall_s": wall_s,
        **tail,
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
    from repro.beds import checked

    wall_start = time.perf_counter()
    bed = _ready_bed(num_qps=num_qps, msg_size=msg_size, depth=depth,
                     mode=mode, verify_content=mode in ("write", "send"))
    bed.drive(trigger_s, presetup=presetup)
    tail = checked(bed.context())
    wall_s = time.perf_counter() - wall_start
    report = bed.reports[0]
    sim = bed.sim
    return {
        "num_qps": num_qps,
        "msg_size": msg_size,
        "depth": depth,
        "sim_now": sim.now,
        "events_processed": sim.events_processed,
        "events_cancelled": sim.events_cancelled,
        "wall_s": wall_s,
        "events_per_sec": sim.events_processed / wall_s if wall_s else 0.0,
        "blackout_ms": report.blackout_s * 1e3,
        "wbs_elapsed_us": report.wbs_elapsed_s * 1e6,
        **tail,
        # Speed-path accounting (never digested): dispatches elided exactly.
        "events_credited": sim.events_credited,
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
    from repro.beds import checked
    from repro.chaos import FaultPlan
    from repro.fleet import build_fleet

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
    report, jobs = fleet.run_policy(policy, target, concurrency,
                                    placement=placement, chaos=chaos)
    tail = checked(fleet.context(plan=chaos))
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
        "scheduler_crashes": fleet.journal.crashes,
        "journal_log": list(fleet.journal.log),
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
        **tail,
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
    from repro.apps.contract import WorkloadHarness, run_contract
    from repro.apps.perftest import latency_percentiles
    from repro.beds import KvBed, checked
    from repro.rnic import TenantSpec

    wall_start = time.perf_counter()
    tenants = []
    if qos:
        tenants.append(TenantSpec("victim", max_qps=n_clients + 2))
        if noise:
            rate = None if noise_limit_gbps is None else noise_limit_gbps * 1e9
            tenants.append(TenantSpec("noisy", rate_bps=rate))
    bed = KvBed(seed, n_clients, keyspace, value_len, depth,
                n_buckets=n_buckets, tenants=tenants,
                noise=(noise_msg_size, noise_depth) if noise else None)
    kv, clients = bed.kv, bed.clients
    bed.run(bed.setup())
    t_traffic = bed.sim.now
    bed.drive(trigger_s, settle_s, migrate=migrate)
    t_stop = bed.sim.now

    # Post-quiesce freshness sweep: the table is frozen, so a one-sided
    # READ from the (migrated) victim must see exactly the last applied
    # version of every probed key.
    freshness = []

    def sweep():
        for key in bed.keys[:readback_keys]:
            log = kv.kv_applies.get(key)
            floor = log[-1][0] if log else 0
            got = yield from clients[0].readback(key)
            freshness.append((key, got[1] if got else -1, floor))

    bed.run(sweep(), limit=30.0)

    capabilities = {"accounting", "delivery", "history", "cas", "freshness"}
    qos_probes = []
    if qos and noise and noise_limit_gbps is not None:
        capabilities.add("qos")
        qos_probes = [(bed.source.rnic, "noisy", t_stop - t_traffic,
                       noise_depth * noise_msg_size)]
    harness = WorkloadHarness(
        name="kvstore", capabilities=frozenset(capabilities),
        endpoints=tuple(bed.endpoints), pairs=(),
        kv_clients=tuple(clients), kv_server=kv,
        freshness_probes=tuple(freshness), qos_probes=tuple(qos_probes))
    contract = run_contract(harness)

    tail = checked(bed.context(workload_errors=[f"contract/{c}: {m}"
                                               for c, m in contract]))
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
        "blackout_ms": bed.reports[0].blackout_s * 1e3 if bed.reports else None,
        "contract_violations": [f"{check}: {message}"
                                for check, message in contract],
        **tail,
        "sim_now": bed.sim.now,
        "events_processed": bed.sim.events_processed,
        "wall_s": wall_s,
    }
    if noise:
        elapsed = t_stop - t_traffic
        done_bytes = bed.noise[0].stats.completed * noise_msg_size
        out["noise_gbps"] = done_bytes * 8 / elapsed / 1e9 if elapsed else 0.0
        if qos:
            st = bed.source.rnic.qos.state("noisy")
            allowed = bed.source.rnic.qos.allowed_bytes(
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
    bed = _ready_bed(num_qps=num_qps, msg_size=msg_size, depth=depth)
    wall_start = time.perf_counter()
    report = bed.run_migration()
    wall_s = time.perf_counter() - wall_start
    sim = bed.sim
    return {
        "num_qps": num_qps,
        "sim_now": sim.now,
        "events_processed": sim.events_processed,
        "events_cancelled": sim.events_cancelled,
        "wall_s": wall_s,
        "events_per_sec": sim.events_processed / wall_s if wall_s else 0.0,
        "blackout_ms": report.blackout_s * 1e3,
        "events_credited": sim.events_credited,
    }
