"""Command-line experiment runner: regenerate paper tables without pytest.

Usage::

    python -m repro.experiments list
    python -m repro.experiments fig3 [--qps 16,64] [--migrate sender] [--jobs 4]
    python -m repro.experiments fig4 [--sweep msgsize] [--jobs 4]
    python -m repro.experiments fig5 [--migrate receiver]
    python -m repro.experiments table4 [--jobs 4]
    python -m repro.experiments fig6 [--task dfsio] [--fast] [--jobs 3]
    python -m repro.experiments migros [--qps 16,64,256] [--jobs 4]
    python -m repro.experiments trace [--qps 8] [--census] [--out trace.json]
    python -m repro.experiments kv [--seed 7] [--noise off,40,unshaped] [--jobs 3]
    python -m repro.experiments torture [--seed 7] [--runs 25] [--app kv] [--jobs 4]
    python -m repro.experiments recovery [--kill-dest-at precopy-dumped] [--jobs 2]
    python -m repro.experiments fleet [--hosts 8 --racks 2] [--policy drain
        --target rack0] [--concurrency 1,2,4] [--kill-host r0h0] [--jobs 3]

Every sweep command takes ``--jobs N`` (0 = all cores) and fans its
independent simulation points over a spawn worker pool via
``repro.parallel``; results are merged in sweep order and are
bit-identical to a ``--jobs 1`` run (see DESIGN.md §10).

``python -m repro.experiments --profile <command> ...`` runs the command
under :mod:`cProfile` and dumps the top 30 functions (by cumulative and
by internal time) to stderr — the quick way to find the hot path behind
a ``BENCH_simperf.json`` regression.  Profile with ``--jobs 1``: spawn
workers run outside the profiled process.

The pytest benchmarks under ``benchmarks/`` remain the canonical
reproduction (they also assert the paper's shape claims); this runner is
the quick way to eyeball one experiment.
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from repro.config import default_config
from repro.parallel import TaskSpec, run_tasks


def sparkline(values: List[float], width: int = 72) -> str:
    """Render a series as a unicode sparkline (used for Fig. 5 timelines)."""
    if not values:
        return ""
    blocks = " ▁▂▃▄▅▆▇█"
    step = max(1, len(values) // width)
    sampled = [max(values[i:i + step]) for i in range(0, len(values), step)]
    top = max(sampled) or 1.0
    return "".join(blocks[min(8, int(v / top * 8))] for v in sampled)


_RUNNERS = "repro.parallel.runners"


def _sweep(specs: List[TaskSpec], jobs: int) -> tuple:
    """Run a sweep; returns (rows, failed) with crashes reported, not raised."""
    results = run_tasks(specs, jobs=jobs)
    failed = 0
    for result in results:
        if not result.ok:
            failed += 1
            print(f"FAILED {result.label}: {result.error_type}", file=sys.stderr)
            print(result.error, file=sys.stderr)
    return results, failed


def cmd_fig3(args) -> int:
    specs = [TaskSpec(f"{_RUNNERS}.migration_run",
                      dict(num_qps=num_qps, migrate=args.migrate,
                           presetup=presetup),
                      label=f"fig3:{num_qps}qp:{'pre' if presetup else 'nopre'}")
             for num_qps in args.qps for presetup in (True, False)]
    results, failed = _sweep(specs, args.jobs)
    print(f"{'case':<18}{'QPs':>6}{'DumpRDMA':>10}{'DumpOthers':>12}"
          f"{'Transfer':>10}{'RestoreRDMA':>13}{'FullRestore':>13}{'blackout':>10}")
    for result in results:
        if not result.ok:
            continue
        row = result.value
        phases = row["phases"]
        label = f"{row['migrate']}/{'pre' if row['presetup'] else 'nopre'}"
        print(f"{label:<18}{row['num_qps']:>6}"
              f"{phases.get('DumpRDMA', 0) * 1e3:>10.1f}"
              f"{phases.get('DumpOthers', 0) * 1e3:>12.1f}"
              f"{phases.get('Transfer', 0) * 1e3:>10.1f}"
              f"{phases.get('RestoreRDMA', 0) * 1e3:>13.1f}"
              f"{phases.get('FullRestore', 0) * 1e3:>13.1f}"
              f"{row['blackout_s'] * 1e3:>10.1f}  (ms)")
    return 1 if failed else 0


def cmd_fig4(args) -> int:
    link_rate = default_config().link.rate_bps
    if args.sweep == "qps":
        points = [(n, 4096) for n in (1, 4, 16, 64)]
    else:
        points = [(1, s) for s in (512, 4096, 65536, 524288)]
    specs = [TaskSpec(f"{_RUNNERS}.migration_run",
                      dict(num_qps=num_qps, migrate="sender", presetup=False,
                           msg_size=msg_size, depth=64),
                      label=f"fig4:{num_qps}qp:{msg_size}B")
             for num_qps, msg_size in points]
    results, failed = _sweep(specs, args.jobs)
    print(f"{'point':>10}{'theory_us':>12}{'wbs_us':>10}{'ratio':>8}")
    for (num_qps, msg_size), result in zip(points, results):
        if not result.ok:
            continue
        row = result.value
        theory = num_qps * 64 * msg_size * 8 / link_rate
        point = num_qps if args.sweep == "qps" else msg_size
        print(f"{point:>10}{theory * 1e6:>12.2f}"
              f"{row['wbs_elapsed_s'] * 1e6:>10.2f}"
              f"{row['wbs_elapsed_s'] / theory:>8.2f}")
    return 1 if failed else 0


def cmd_fig5(args) -> int:
    specs = [TaskSpec(f"{_RUNNERS}.migration_run",
                      dict(num_qps=16, migrate=args.migrate, presetup=True,
                           msg_size=2 * 1024 * 1024, depth=8,
                           sample_partner=True),
                      label=f"fig5:{args.migrate}")]
    results, failed = _sweep(specs, args.jobs)
    if failed:
        return 1
    row = results[0].value
    series = row["samples"]
    print(f"partner {row['sample_direction']} throughput during "
          f"migrate-{row['migrate']} "
          f"(5 ms samples, blackout {row['blackout_s'] * 1e3:.0f} ms):")
    print(sparkline(series))
    print(f"peak {max(series):.1f} Gbps; "
          f"suspension at t={row['t_suspend']:.3f}s, "
          f"resume at t={row['t_resume']:.3f}s")
    return 0


def cmd_table4(args) -> int:
    modes = ("send", "write", "read")
    specs = [TaskSpec(f"{_RUNNERS}.table4_run",
                      dict(mode=mode, virtualized=virtualized),
                      label=f"table4:{mode}:{'virt' if virtualized else 'base'}")
             for mode in modes for virtualized in (False, True)]
    results, failed = _sweep(specs, args.jobs)
    cells = {(r.value["mode"], r.value["virtualized"]): r.value["mean_cycles"]
             for r in results if r.ok}
    print(f"{'op':<8}{'w/o virt':>10}{'with virt':>11}{'extra':>8}{'overhead':>10}")
    for mode in modes:
        if (mode, False) not in cells or (mode, True) not in cells:
            continue
        base = cells[(mode, False)]
        virt = cells[(mode, True)]
        print(f"{mode:<8}{base:>10.1f}{virt:>11.1f}{virt - base:>8.1f}"
              f"{(virt - base) / base:>9.1%}")
    return 1 if failed else 0


def cmd_fig6(args) -> int:
    event = 0.05 if args.fast else 3.0
    scenarios = ("baseline", "migrrdma", "failover")
    specs = [TaskSpec(f"{_RUNNERS}.fig6_run",
                      dict(task=args.task, scenario=scenario, fast=args.fast,
                           event_after_s=event),
                      label=f"fig6:{args.task}:{scenario}")
             for scenario in scenarios]
    results, failed = _sweep(specs, args.jobs)
    print(f"{'strategy':<12}{'JCT_s':>8}{'tput_gbps':>11}")
    for result in results:
        if not result.ok:
            continue
        row = result.value
        tput = (f"{row['tput_gbps']:>11.2f}"
                if row["tput_gbps"] is not None else f"{'n/a':>11}")
        print(f"{row['scenario']:<12}{row['jct_s']:>8.2f}{tput}")
    return 1 if failed else 0


def cmd_trace(args) -> None:
    """One traced migration: Chrome trace JSON + text timeline summary."""
    from repro.beds import PerftestBed
    from repro.obs import (MetricsRegistry, Tracer, census_summary,
                           timeline_summary, write_chrome_trace)

    bed = PerftestBed(args.qps, msg_size=args.msg_size, migrate=args.migrate)
    # Attached after the bed is assembled, before its first event.
    tracer = Tracer(bed.sim, kernel_dispatch=args.kernel_dispatch,
                    census=args.census).attach()
    bed.run(bed.setup())
    report = bed.run_migration(presetup=not args.no_presetup)
    metrics = MetricsRegistry()
    metrics.scrape_testbed(bed, bed.world)
    write_chrome_trace(tracer, args.out, metrics=metrics)
    print(timeline_summary(tracer, metrics=metrics))
    print()
    if args.census:
        print(census_summary(tracer))
        print()
    print(f"blackout {report.blackout_s * 1e3:.1f} ms, "
          f"wbs {report.wbs_elapsed_s * 1e6:.0f} us, "
          f"{len(tracer)} trace records -> {args.out} "
          f"(load in https://ui.perfetto.dev)")


def cmd_migros(args) -> int:
    specs = [TaskSpec(f"{_RUNNERS}.migros_run", dict(num_qps=num_qps),
                      label=f"migros:{num_qps}qp")
             for num_qps in args.qps]
    results, failed = _sweep(specs, args.jobs)
    print(f"{'QPs':>6}{'migrrdma_ms':>13}{'migros_ms':>11}{'slowdown':>10}")
    for result in results:
        if not result.ok:
            continue
        row = result.value
        print(f"{row['num_qps']:>6}{row['migrrdma_blackout_s'] * 1e3:>13.1f}"
              f"{row['migros_blackout_s'] * 1e3:>11.1f}"
              f"{row['migros_slowdown']:>9.2f}x")
    return 1 if failed else 0


def _csv_ints(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part]


def _noise_levels(text: str) -> List[object]:
    """Parse ``--noise``: ``off`` | ``unshaped`` | a Gbps rate limit."""
    levels: List[object] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if part in ("off", "unshaped"):
            levels.append(part)
        else:
            levels.append(float(part))
    return levels


def _kv_point(level, args) -> dict:
    kwargs = dict(seed=args.seed, n_clients=args.clients, depth=args.depth,
                  qos=not args.no_qos, migrate=not args.no_migrate)
    if level == "off":
        kwargs["noise"] = False
    elif level == "unshaped":
        kwargs.update(noise=True, noise_limit_gbps=None)
    else:
        kwargs.update(noise=True, noise_limit_gbps=level)
    return kwargs


def cmd_kv(args) -> int:
    specs = [TaskSpec(f"{_RUNNERS}.kvstore_run", _kv_point(level, args),
                      label=f"kv:noise-{level}")
             for level in args.noise]
    results, failed = _sweep(specs, args.jobs)
    print(f"{'noise':>10}{'gets':>8}{'p50_us':>8}{'p99_us':>8}"
          f"{'blackout_ms':>13}{'noise_gbps':>12}{'bound':>7}{'invariants':>12}")
    violations = 0
    for level, result in zip(args.noise, results):
        if not result.ok:
            continue
        row = result.value
        bad = (not row["invariants_ok"]) or row["contract_violations"] \
            or row.get("noise_within_bound") is False
        if bad:
            violations += 1
            for violation in (row["violations"] + row["contract_violations"]):
                print(f"  VIOLATION noise={level}: {violation}",
                      file=sys.stderr)
            if row.get("noise_within_bound") is False:
                print(f"  VIOLATION noise={level}: tenant exceeded its "
                      f"token bucket ({row['noise_tx_bytes']} > "
                      f"{row['noise_allowed_bytes']:.0f} bytes)",
                      file=sys.stderr)
        blackout = (f"{row['blackout_ms']:>13.2f}"
                    if row["blackout_ms"] is not None else f"{'n/a':>13}")
        gbps = (f"{row['noise_gbps']:>12.1f}"
                if "noise_gbps" in row else f"{'n/a':>12}")
        bound = {True: "ok", False: "OVER", None: "-"}[
            row.get("noise_within_bound")]
        print(f"{str(level):>10}{row['gets']:>8}"
              f"{row['victim_get_p50_us']:>8.1f}"
              f"{row['victim_get_p99_us']:>8.1f}"
              f"{blackout}{gbps}{bound:>7}"
              f"{'ok' if not bad else 'VIOLATED':>12}")
        print(f"        digest {row['digest'][:16]}  "
              f"events {row['events_processed']}")
    if failed or violations:
        return 1
    print(f"kv noisy-neighbour sweep clean at every noise level "
          f"({','.join(str(level) for level in args.noise)})")
    return 0


def cmd_torture(args) -> int:
    from repro.chaos.torture import torture

    failures = torture(args.seed, args.runs, scenarios=args.scenario,
                       shrink_failures=not args.no_shrink, jobs=args.jobs,
                       rpc_loss=args.rpc_loss, kill_dest_at=args.kill_dest_at,
                       partition=args.partition,
                       kill_scheduler_at=args.kill_scheduler_at)
    if failures:
        print(f"{len(failures)} of {args.runs} runs violated invariants")
        return 1
    print(f"all {args.runs} runs clean (seed {args.seed})")
    return 0


def cmd_recovery(args) -> int:
    specs = [TaskSpec(f"{_RUNNERS}.recovery_run",
                      dict(seed=args.seed + i, rpc_loss=args.rpc_loss,
                           kill_dest_at=args.kill_dest_at, down_s=args.down_s,
                           budget=args.budget),
                      label=f"recovery:{args.seed + i}")
             for i in range(args.runs)]
    results, failed = _sweep(specs, args.jobs)
    print(f"{'seed':>6}{'attempts':>10}{'rollbacks':>11}{'rpc_retries':>13}"
          f"{'blackout_ms':>13}{'invariants':>12}")
    violations = 0
    for result in results:
        if not result.ok:
            continue
        row = result.value
        if not row["invariants_ok"]:
            violations += 1
            for violation in row["violations"]:
                print(f"  VIOLATION seed {row['seed']}: {violation}",
                      file=sys.stderr)
        blackout = (f"{row['blackout_ms']:>13.2f}"
                    if row["blackout_ms"] is not None else f"{'n/a':>13}")
        print(f"{row['seed']:>6}{len(row['attempts']):>10}"
              f"{row['rolled_back_attempts']:>11}"
              f"{row['resilience']['rpc_retries']:>13}"
              f"{blackout}"
              f"{'ok' if row['invariants_ok'] else 'VIOLATED':>12}")
    if failed or violations:
        return 1
    print(f"all {args.runs} recovery runs clean "
          f"(crash at {args.kill_dest_at}, rpc loss {args.rpc_loss})")
    return 0


def cmd_fleet(args) -> int:
    if args.hosts < 2 or args.hosts % args.racks:
        print(f"--hosts must be a multiple of --racks "
              f"(got {args.hosts} hosts, {args.racks} racks)", file=sys.stderr)
        return 2
    hosts_per_rack = args.hosts // args.racks
    specs = [TaskSpec(f"{_RUNNERS}.fleet_run",
                      dict(racks=args.racks, hosts_per_rack=hosts_per_rack,
                           containers=args.containers, policy=args.policy,
                           target=args.target, seed=args.seed,
                           concurrency=concurrency, placement=args.placement,
                           oversubscription=args.oversub,
                           kill_host=args.kill_host, kill_at=args.kill_at,
                           degrade_rack=args.degrade_rack,
                           degrade_factor=args.degrade_factor,
                           kv_pairs=args.kv_pairs,
                           partition_hosts=args.partition_hosts,
                           partition_start_s=args.partition_at,
                           partition_dur_s=args.partition_dur,
                           kill_scheduler_at=args.kill_scheduler_at,
                           scheduler_down_s=args.scheduler_down_s),
                      label=f"fleet:c{concurrency}")
             for concurrency in args.concurrency]
    results, failed = _sweep(specs, args.jobs)
    print(f"{'conc':>5}{'planned':>9}{'done':>6}{'failed':>8}"
          f"{'drain_ms':>10}{'p50_ms':>8}{'p99_ms':>8}{'peak':>6}"
          f"{'invariants':>12}")
    violations = 0
    for result in results:
        if not result.ok:
            continue
        row = result.value
        if not row["invariants_ok"]:
            violations += 1
            for violation in row["violations"]:
                print(f"  VIOLATION c={row['concurrency']}: {violation}",
                      file=sys.stderr)
        blackout = row["blackout"]
        print(f"{row['concurrency']:>5}{row['jobs_planned']:>9}"
              f"{row['completed']:>6}{row['failed']:>8}"
              f"{row['drain_s'] * 1e3:>10.1f}"
              f"{(blackout['p50'] or 0) * 1e3:>8.1f}"
              f"{(blackout['p99'] or 0) * 1e3:>8.1f}"
              f"{row['max_concurrency']:>6}"
              f"{'ok' if row['invariants_ok'] else 'VIOLATED':>12}")
        for link, stats in row["links"].items():
            backlog = row["link_peak_backlog"].get(link, 0)
            print(f"        {link:<12} util {stats['utilization'] * 100:6.2f}%"
                  f"   {stats['bytes']:>12} B"
                  f"   peak backlog {backlog / 1e3:8.1f} KB")
        print(f"        digest {row['digest'][:16]}  "
              f"fleet {row['fleet_digest'][:16]}")
    if failed or violations:
        return 1
    print(f"fleet {args.policy} of {args.target!r} clean at every "
          f"concurrency ({','.join(str(c) for c in args.concurrency)})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", action="store_true",
                        help="run the command under cProfile and dump the "
                             "top 30 functions (cumulative and internal "
                             "time) to stderr afterwards")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")

    def add_jobs(p):
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for the sweep (0 = all cores)")

    p3 = sub.add_parser("fig3", help="blackout breakdown")
    p3.add_argument("--qps", type=_csv_ints, default=[16, 64])
    p3.add_argument("--migrate", choices=["sender", "receiver"], default="sender")
    add_jobs(p3)

    p4 = sub.add_parser("fig4", help="wait-before-stop overhead")
    p4.add_argument("--sweep", choices=["qps", "msgsize"], default="msgsize")
    add_jobs(p4)

    p5 = sub.add_parser("fig5", help="partner throughput timeline")
    p5.add_argument("--migrate", choices=["sender", "receiver"], default="sender")
    add_jobs(p5)

    pt4 = sub.add_parser("table4", help="data-path virtualization overhead")
    add_jobs(pt4)

    p6 = sub.add_parser("fig6", help="Hadoop maintenance scenarios")
    p6.add_argument("--task", choices=["dfsio", "estimatepi"], default="dfsio")
    p6.add_argument("--fast", action="store_true")
    add_jobs(p6)

    pm = sub.add_parser("migros", help="MigrRDMA vs MigrOS comparison")
    pm.add_argument("--qps", type=_csv_ints, default=[16, 64])
    add_jobs(pm)

    pt = sub.add_parser("trace", help="traced migration -> Perfetto JSON")
    pt.add_argument("--qps", type=int, default=8)
    pt.add_argument("--migrate", choices=["sender", "receiver"], default="sender")
    pt.add_argument("--msg-size", type=int, default=65536)
    pt.add_argument("--no-presetup", action="store_true")
    pt.add_argument("--kernel-dispatch", action="store_true",
                    help="per-event kernel dispatch instants (large trace)")
    pt.add_argument("--census", action="store_true",
                    help="count kernel dispatches by callback family")
    pt.add_argument("--out", default="trace.json")

    pk = sub.add_parser("kv", help="KV store under a noisy neighbour "
                                   "(victim GET latency + QoS isolation)")
    pk.add_argument("--seed", type=int, default=7)
    pk.add_argument("--clients", type=int, default=2)
    pk.add_argument("--depth", type=int, default=4)
    pk.add_argument("--noise", type=_noise_levels, default=["off", 40.0],
                    metavar="L[,L...]",
                    help="noise levels to sweep: 'off', 'unshaped', or a "
                         "token-bucket rate limit in Gbps")
    pk.add_argument("--no-qos", action="store_true",
                    help="leave the per-tenant QoS model uninstalled")
    pk.add_argument("--no-migrate", action="store_true",
                    help="skip migrating the victim client mid-traffic")
    add_jobs(pk)

    px = sub.add_parser("torture",
                        help="fault-injection sweep with invariant checks")
    px.add_argument("--seed", type=int, default=7)
    px.add_argument("--runs", type=int, default=25)
    px.add_argument("--scenario", "--app", dest="scenario",
                    choices=["all", "perftest", "hadoop", "kv"],
                    default="all")
    px.add_argument("--no-shrink", action="store_true",
                    help="skip minimizing failing fault sets")
    px.add_argument("--rpc-loss", type=float, default=None, metavar="P",
                    help="also drop control-plane RPC messages with prob. P")
    px.add_argument("--kill-dest-at", default=None, metavar="BOUNDARY",
                    help="crash the destination daemon at a phase boundary "
                         "('random' = pick one per case)")
    px.add_argument("--partition", type=float, default=None, metavar="P",
                    help="with prob. P per case, sever both directions "
                         "between a node pair (TCP control and RDMA alike)")
    px.add_argument("--kill-scheduler-at", default=None, metavar="T",
                    help="enable the fleet-drain scenario slot and crash "
                         "its scheduler T sim-seconds into the drain "
                         "('random' = pick per case); recovery resumes "
                         "from the journal")
    add_jobs(px)

    pr = sub.add_parser("recovery",
                        help="supervised recovery from destination crashes")
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--runs", type=int, default=4)
    pr.add_argument("--rpc-loss", type=float, default=0.05)
    pr.add_argument("--kill-dest-at", default="precopy-dumped",
                    metavar="BOUNDARY")
    pr.add_argument("--down-s", type=float, default=18e-3)
    pr.add_argument("--budget", type=int, default=3)
    add_jobs(pr)

    pf = sub.add_parser("fleet",
                        help="fleet-scale drain/rebalance/evict under "
                             "admission control")
    pf.add_argument("--hosts", type=int, default=8,
                    help="total hosts (must divide evenly into --racks)")
    pf.add_argument("--racks", type=int, default=2)
    pf.add_argument("--containers", type=int, default=32)
    pf.add_argument("--policy", choices=["drain", "rebalance", "evict"],
                    default="drain")
    pf.add_argument("--target", default="rack0",
                    help="host/rack to drain, or comma-separated containers "
                         "to evict (unused by rebalance)")
    pf.add_argument("--seed", type=int, default=7)
    pf.add_argument("--concurrency", type=_csv_ints, default=[4],
                    metavar="N[,N...]",
                    help="admission-limit sweep, one fleet run per value")
    pf.add_argument("--placement",
                    choices=["pack", "spread", "least-loaded"],
                    default="least-loaded")
    pf.add_argument("--oversub", type=float, default=4.0,
                    help="ToR trunk oversubscription factor")
    pf.add_argument("--kill-host", default=None, metavar="HOST",
                    help="kill HOST's daemon mid-drain (torture overlay)")
    pf.add_argument("--kill-at", type=float, default=0.05, metavar="T",
                    help="sim seconds after traffic start for --kill-host")
    pf.add_argument("--degrade-rack", default=None, metavar="RACK",
                    help="slow RACK's ToR uplink during the drain")
    pf.add_argument("--degrade-factor", type=float, default=4.0)
    pf.add_argument("--partition-hosts", default=None, metavar="A:B",
                    help="sever both directions between hosts A and B "
                         "mid-drain (lease fencing must hold)")
    pf.add_argument("--partition-at", type=float, default=5e-3, metavar="T",
                    help="sim seconds after traffic start for "
                         "--partition-hosts")
    pf.add_argument("--partition-dur", type=float, default=2e-3,
                    metavar="D", help="partition duration in sim seconds")
    pf.add_argument("--kill-scheduler-at", type=float, default=None,
                    metavar="T",
                    help="crash the drain scheduler T sim-seconds after "
                         "traffic start; a recovery incarnation resumes "
                         "from the journal")
    pf.add_argument("--scheduler-down-s", type=float, default=20e-3,
                    metavar="D", help="scheduler outage duration")
    pf.add_argument("--kv-pairs", type=int, default=0, metavar="N",
                    help="also place N KV server/client container pairs "
                         "(tenant 'kv') that migrate with the drain")
    add_jobs(pf)

    args = parser.parse_args(argv)
    if args.command == "list":
        print("\n".join(name for name in sub.choices if name != "list"))
        return 0
    handler = globals()[f"cmd_{args.command}"]
    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            return handler(args) or 0
        finally:
            profiler.disable()
            stats = pstats.Stats(profiler, stream=sys.stderr)
            for order in ("cumulative", "tottime"):
                stats.sort_stats(order).print_stats(30)
    return handler(args) or 0


if __name__ == "__main__":
    sys.exit(main())
