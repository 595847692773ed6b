"""Command-line experiment runner: regenerate paper tables without pytest.

Usage::

    python -m repro.experiments list
    python -m repro.experiments fig3 [--qps 16,64] [--migrate sender] [--jobs 4]
    python -m repro.experiments fig4 [--jobs 4]
    python -m repro.experiments fig5 [--migrate receiver]
    python -m repro.experiments table4 [--jobs 4]
    python -m repro.experiments fig6 [--task dfsio] [--fast] [--jobs 6]
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

Each paper figure and table has one producer here (:func:`fig3`,
:func:`fig4`, :func:`fig5`, :func:`table4`, :func:`fig6`, :func:`migros`),
which runs its points through :mod:`repro.parallel.runners` and returns
the rows, and one formatter (``format_<fig>``).  The command prints the
formatted lines; ``benchmarks/test_<fig>.py`` writes the same lines to
``benchmarks/results/`` and asserts the paper's shapes on the rows.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Sequence

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

#: perftest staging buffers per QP in the Fig. 3 sender's memory table
STAGING_VMAS_PER_QP = 4

SIDES = ("sender", "receiver")


class SweepFailed(RuntimeError):
    """A point of a paper-figure sweep raised; :func:`_sweep` has printed
    each failed point's label and traceback."""


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


def _points(specs: List[TaskSpec], jobs: int) -> List[dict]:
    """Run a paper-figure sweep: every point's row, in sweep order."""
    results, failed = _sweep(specs, jobs)
    if failed:
        raise SweepFailed(f"{failed} of {len(specs)} points")
    return [r.value for r in results]


# -- the paper's figures and tables: one producer and one formatter each ----

def fig3(qps: Sequence[int], sides: Sequence[str] = SIDES,
         jobs: int = 1) -> dict:
    """Fig. 3: the blackout breakdown with and without pre-setup, per QP
    count and migrated side; the sender carries
    :data:`STAGING_VMAS_PER_QP` staging VMAs per QP.  From the sender rows:
    RestoreRDMA's share of the no-pre-setup blackout at the sweep's last
    QP count, and pre-setup's blackout cut at its second (or only) one."""
    specs = [TaskSpec(f"{_RUNNERS}.migration_run",
                      dict(num_qps=num_qps, migrate=side, presetup=presetup,
                           sender_staging_vmas=STAGING_VMAS_PER_QP * num_qps),
                      label=f"fig3:{num_qps}qp:{side}:"
                            f"{'pre' if presetup else 'nopre'}")
             for num_qps in qps for side in sides
             for presetup in (True, False)]
    rows = _points(specs, jobs)
    out = {"rows": rows}
    sender = {(r["num_qps"], r["presetup"]): r for r in rows
              if r["migrate"] == "sender"}
    if sender:
        top, mid = qps[-1], qps[min(1, len(qps) - 1)]
        phases = sender[(top, False)]["phases"]
        out["restore_rdma_fraction"] = (
            top, phases.get("RestoreRDMA", 0.0) / sum(phases.values()))
        out["presetup_reduction"] = (
            mid, 1 - sender[(mid, True)]["blackout_s"]
            / sender[(mid, False)]["blackout_s"])
    return out


def format_fig3(fig: dict) -> List[str]:
    lines = [f"{'case':<22} {'QPs':>5} {'DumpRDMA':>9} {'DumpOthers':>11} "
             f"{'Transfer':>9} {'RestoreRDMA':>12} {'FullRestore':>12} "
             f"{'blackout':>9} (ms)"]
    for row in fig["rows"]:
        phases = row["phases"]
        label = f"{row['migrate']}/{'pre' if row['presetup'] else 'nopre'}"
        lines.append(
            f"{label:<22} {row['num_qps']:>5} "
            f"{phases.get('DumpRDMA', 0.0) * 1e3:>9.1f} "
            f"{phases.get('DumpOthers', 0.0) * 1e3:>11.1f} "
            f"{phases.get('Transfer', 0.0) * 1e3:>9.1f} "
            f"{phases.get('RestoreRDMA', 0.0) * 1e3:>12.1f} "
            f"{phases.get('FullRestore', 0.0) * 1e3:>12.1f} "
            f"{row['blackout_s'] * 1e3:>9.1f}")
    if "restore_rdma_fraction" in fig:
        num_qps, fraction = fig["restore_rdma_fraction"]
        lines.append(f"# RestoreRDMA fraction at {num_qps} QPs "
                     f"(no pre-setup): {fraction:.0%}")
        num_qps, reduction = fig["presetup_reduction"]
        lines.append(f"# blackout reduction from pre-setup at {num_qps} "
                     f"QPs: {reduction:.0%}")
    return lines


#: Fig. 4's queue depth (the paper's)
WBS_DEPTH = 64
#: Fig. 4(b)'s message sizes and 4(c)'s partner counts
WBS_MSG_SIZES = (512, 4096, 65536, 524288)
WBS_PARTNERS = (1, 2, 4)


def fig4(qps: Sequence[int] = (1, 4, 16, 64), jobs: int = 1) -> dict:
    """Fig. 4: wait-before-stop time against the wire-drain theory
    (in-flight bytes / link rate) over (a) QPs, (b) message size and
    (c) partners, without pre-setup; plus a 4-QP point with and without
    pre-setup (WBS does not depend on it)."""
    # (sweep, point, QPs per partner, message size, partners, pre-setup)
    points = ([("qps", n, n, 4096, 1, False) for n in qps]
              + [("msgsize", m, 1, m, 1, False) for m in WBS_MSG_SIZES]
              + [("partners", p, 1, 4096, p, False) for p in WBS_PARTNERS]
              + [("crosscheck", 4, 4, 4096, 1, pre) for pre in (True, False)])
    specs = [TaskSpec(f"{_RUNNERS}.migration_run",
                      dict(num_qps=n, migrate="sender", presetup=pre,
                           msg_size=size, depth=WBS_DEPTH, partners=p),
                      label=f"fig4:{sweep}:{point}")
             for sweep, point, n, size, p, pre in points]
    link_rate = default_config().link.rate_bps
    rows = []
    for (sweep, point, n, size, p, _), row in zip(points,
                                                  _points(specs, jobs)):
        theory = n * p * WBS_DEPTH * size * 8 / link_rate
        rows.append(dict(row, sweep=sweep, point=point, theory_s=theory,
                         ratio=row["wbs_elapsed_s"] / theory))
    return {"rows": rows[:-2],
            "crosscheck_wbs_s": tuple(r["wbs_elapsed_s"] for r in rows[-2:])}


def format_fig4(fig: dict) -> List[str]:
    lines = [f"{'sweep':<10} {'point':>8} {'theory_us':>10} {'wbs_us':>10} "
             f"{'ratio':>7} {'comm_blackout_ms':>17}"]
    for row in fig["rows"]:
        lines.append(f"{row['sweep']:<10} {row['point']:>8} "
                     f"{row['theory_s'] * 1e6:>10.2f} "
                     f"{row['wbs_elapsed_s'] * 1e6:>10.2f} "
                     f"{row['ratio']:>7.2f} "
                     f"{row['comm_blackout_s'] * 1e3:>17.2f}")
    with_pre, without = fig["crosscheck_wbs_s"]
    lines.append(f"# cross-check at 4 QPs: "
                 f"wbs(pre-setup)={with_pre * 1e6:.1f}us "
                 f"wbs(no-pre-setup)={without * 1e6:.1f}us")
    return lines


def fig5(sides: Sequence[str] = SIDES, jobs: int = 1) -> dict:
    """Fig. 5: the partner's 5 ms throughput while 16 QPs of 2 MiB WRITEs
    migrate with pre-setup: steady rate, worst brownout sample and its
    dip, the stalled time around the blackout, and the recovered rate."""
    specs = [TaskSpec(f"{_RUNNERS}.migration_run",
                      dict(num_qps=16, migrate=side, presetup=True,
                           msg_size=2 * 1024 * 1024, depth=8,
                           sample_partner=True),
                      label=f"fig5:{side}")
             for side in sides]
    return {"rows": _points(specs, jobs)}


def format_fig5(fig: dict) -> List[str]:
    rows = fig["rows"]
    lines = [f"{'case':<10} {'steady_gbps':>12} {'brownout_gbps':>14} "
             f"{'dip':>7} {'blackout_ms':>12} {'recovered_gbps':>15}"]
    for row in rows:
        lines.append(f"{row['migrate']:<10} {row['steady_gbps']:>12.1f} "
                     f"{row['brownout_gbps']:>14.1f} {row['dip']:>7.1%} "
                     f"{row['stalled_ms']:>12.1f} "
                     f"{row['recovered_gbps']:>15.1f}")
    dips = {row["migrate"]: row["dip"] for row in rows}
    if len(dips) == 2:
        lines.append(f"# brownout dip: migrate-sender {dips['sender']:.2%} vs "
                     f"migrate-receiver {dips['receiver']:.2%}")
    return lines


def format_fig5_series(row: dict) -> List[str]:
    """One side's sample series, decimated to 20 ms (for plotting)."""
    series = list(zip(row["sample_times"], row["samples"]))[::4]
    return [f"# time_s:gbps series, migrate={row['migrate']}",
            " ".join(f"{t:.3f}:{gbps:.1f}" for t, gbps in series)]


TABLE4_OPS = ("send", "write", "read", "recv")


def table4(iters: int = 2048, jobs: int = 1) -> dict:
    """Table 4: mean cycles per data-path verb (64 B, one RC QP) over the
    plain verbs library and over the guest library, with the extra cycles,
    the overhead and the cores they cost at 100 M ops/s."""
    specs = [TaskSpec(f"{_RUNNERS}.table4_run",
                      dict(mode=op, virtualized=virtualized, iters=iters),
                      label=f"table4:{op}:{'virt' if virtualized else 'base'}")
             for op in TABLE4_OPS for virtualized in (False, True)]
    values = _points(specs, jobs)
    clock_hz = default_config().cpu.clock_hz
    rows = []
    for op, base, virt in zip(TABLE4_OPS, values[::2], values[1::2]):
        extra = virt["mean_cycles"] - base["mean_cycles"]
        rows.append({"op": op, "base_cycles": base["mean_cycles"],
                     "virt_cycles": virt["mean_cycles"], "extra": extra,
                     "overhead": extra / base["mean_cycles"],
                     "cores_per_100Mops": extra / clock_hz * 100e6})
    return {"rows": rows}


def format_table4(table: dict) -> List[str]:
    lines = [f"{'op':<8} {'base_cycles':>12} {'virt_cycles':>12} "
             f"{'extra':>8} {'overhead':>9} {'cores_per_100Mops':>18}"]
    for row in table["rows"]:
        lines.append(f"{row['op']:<8} {row['base_cycles']:>12.1f} "
                     f"{row['virt_cycles']:>12.1f} {row['extra']:>8.1f} "
                     f"{row['overhead']:>8.1%} "
                     f"{row['cores_per_100Mops']:>18.3f}")
    return lines


FIG6_TASKS = ("dfsio", "estimatepi")


def fig6(fast: bool, tasks: Sequence[str] = FIG6_TASKS,
         jobs: int = 1) -> dict:
    """Fig. 6: Hadoop job completion time (and DFSIO throughput) under
    no maintenance, MigrRDMA migration and heartbeat failover, each
    against the task's baseline; ``fast`` runs the ~4x smaller job."""
    from repro.apps.hadoop_scenarios import SCENARIOS

    specs = [TaskSpec(f"{_RUNNERS}.fig6_run",
                      dict(task=task, scenario=scenario, fast=fast),
                      label=f"fig6:{task}:{scenario}")
             for task in tasks for scenario in SCENARIOS]
    rows = _points(specs, jobs)
    base = {row["task"]: row for row in rows if row["scenario"] == "baseline"}
    for row in rows:
        task_base = base[row["task"]]
        row["extra_s"] = row["jct_s"] - task_base["jct_s"]
        row["tput_loss"] = (None if row["tput_gbps"] is None
                            else 1 - row["tput_gbps"] / task_base["tput_gbps"])
    return {"rows": rows}


def format_fig6(fig: dict) -> List[str]:
    lines = [f"{'task':<12} {'strategy':<10} {'JCT_s':>8} {'extra_s':>8} "
             f"{'tput_gbps':>10} {'tput_loss':>10}"]
    for row in fig["rows"]:
        if row["tput_gbps"] is None:
            tput = f"{'n/a':>10} {'n/a':>10}"
        else:
            tput = f"{row['tput_gbps']:>10.2f} {row['tput_loss']:>10.1%}"
        lines.append(f"{row['task']:<12} {row['scenario']:<10} "
                     f"{row['jct_s']:>8.2f} {row['extra_s']:>8.2f} {tput}")
    for row in fig["rows"]:
        if row["task"] == "dfsio" and row["scenario"] == "migrrdma":
            lines.append(
                f"# MigrRDMA blackout during DFSIO: "
                f"{row['blackout_s'] * 1e3:.0f} ms, "
                f"{row['precopy_iterations']} pre-copy iterations, "
                f"{row['bytes_transferred'] / 2**30:.2f} GiB shipped")
    return lines


def migros(qps: Sequence[int], jobs: int = 1) -> dict:
    """§6: the measured MigrRDMA blackout (with pre-setup) against the
    modelled MigrOS stop-and-copy one, per QP count."""
    specs = [TaskSpec(f"{_RUNNERS}.migros_run", dict(num_qps=num_qps),
                      label=f"migros:{num_qps}qp")
             for num_qps in qps]
    return {"rows": _points(specs, jobs)}


def format_migros(table: dict) -> List[str]:
    rows = table["rows"]
    lines = [f"{'QPs':>5} {'migrrdma_ms':>12} {'migros_ms':>11} "
             f"{'extra_ms':>9} {'slowdown':>9}"]
    for row in rows:
        lines.append(f"{row['num_qps']:>5} "
                     f"{row['migrrdma_blackout_s'] * 1e3:>12.1f} "
                     f"{row['migros_blackout_s'] * 1e3:>11.1f} "
                     f"{row['migros_extra_s'] * 1e3:>9.1f} "
                     f"{row['migros_slowdown']:>9.2f}x")
    lines.append(f"# slowdown grows with QPs: "
                 f"{rows[0]['migros_slowdown']:.2f}x -> "
                 f"{rows[-1]['migros_slowdown']:.2f}x")
    return lines


def _sides(migrate) -> Sequence[str]:
    return (migrate,) if migrate else SIDES


def cmd_fig3(args) -> None:
    fig = fig3(args.qps, _sides(args.migrate), args.jobs)
    print(*format_fig3(fig), sep="\n")


def cmd_fig4(args) -> None:
    print(*format_fig4(fig4(jobs=args.jobs)), sep="\n")


def cmd_fig5(args) -> None:
    fig = fig5(_sides(args.migrate), args.jobs)
    print(*format_fig5(fig), sep="\n")
    for row in fig["rows"]:
        print(f"migrate-{row['migrate']}, partner {row['sample_direction']} "
              f"(5 ms samples): {sparkline(row['samples'])}")


def cmd_table4(args) -> None:
    print(*format_table4(table4(jobs=args.jobs)), sep="\n")


def cmd_fig6(args) -> None:
    tasks = (args.task,) if args.task else FIG6_TASKS
    print(*format_fig6(fig6(args.fast, tasks, args.jobs)), sep="\n")


def cmd_migros(args) -> None:
    print(*format_migros(migros(args.qps, args.jobs)), sep="\n")


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
    p3.add_argument("--migrate", choices=SIDES, default=None,
                    help="one migrated side only (default: both)")
    add_jobs(p3)

    p4 = sub.add_parser("fig4", help="wait-before-stop overhead")
    add_jobs(p4)

    p5 = sub.add_parser("fig5", help="partner throughput timeline")
    p5.add_argument("--migrate", choices=SIDES, default=None,
                    help="one migrated side only (default: both)")
    add_jobs(p5)

    pt4 = sub.add_parser("table4", help="data-path virtualization overhead")
    add_jobs(pt4)

    p6 = sub.add_parser("fig6", help="Hadoop maintenance scenarios")
    p6.add_argument("--task", choices=FIG6_TASKS, default=None,
                    help="one task only (default: both)")
    p6.add_argument("--fast", action="store_true",
                    help="the ~4x smaller job the default benchmark runs")
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
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        return handler(args) or 0
    except SweepFailed:
        return 1
    finally:
        if profiler is not None:
            import pstats

            profiler.disable()
            stats = pstats.Stats(profiler, stream=sys.stderr)
            for order in ("cumulative", "tottime"):
                stats.sort_stats(order).print_stats(30)


if __name__ == "__main__":
    sys.exit(main())
