#!/usr/bin/env python3
"""The layered performance ledger: one command, every metric by name.

    python3 benchmarks/perf/run.py [--workload W] [--seed S] [--seconds N]
                                   [--trace [0|1]] [--selfcheck]

Without ``--workload`` the four workloads run one after another, each in
its own process (so ``peak_rss_mb`` is per workload).  With it, the named
workload runs in this process: rounds of build -> timed run -> check are
repeated for ``--seconds``, every metric is printed with its unit, sample
count and bound, and the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.

The exit code is non-zero if any output is wrong: a status, order or
content error, a contract or invariant violation, a migration that did
not complete, or two rounds that disagree on the digest or on any
simulated number.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import attribution  # noqa: E402
import ledger  # noqa: E402

_t_import = perf_counter()
import scenarios  # noqa: E402  (pulls in all of repro)
IMPORT_S = perf_counter() - _t_import

DEFAULT_SECONDS = 20
#: An untraced run measures at least this many rounds, however long one
#: takes: the box's noise comes in bursts of seconds, and a median needs
#: three samples before it can drop one (migrate_fanout fits only two 12 s
#: rounds in 20 s).
MIN_ROUNDS = 3
#: Setup is ms-scale, so every round is preceded by this many setup-only
#: builds: three rounds give 15 samples, spread over the whole run.  (All
#: 15 in one 60 ms window at process start read 40 % high when that window
#: was slow.)
SETUP_REPS = 4
#: A workload that has not finished by now is killed by SIGALRM.  The model
#: can fall into an event storm on an unlucky input (see
#: ``KvNoisy.OP_STREAM_SEEDS``); a benchmark must end rather than eat the box.
WATCHDOG_S = 170


def timed_setup(cls, seed: int):
    """First constructor call -> ready to start traffic."""
    gc.collect()
    t0 = perf_counter()
    scenario = cls(seed)
    return scenario, perf_counter() - t0


def one_round(cls, seed: int, traced: bool = False):
    """build -> timed run -> check.  Returns (RoundResult, pstats | None)."""
    scenario, setup_s = timed_setup(cls, seed)
    stats = None
    t0 = perf_counter()
    if traced:
        _, stats = attribution.profile(scenario.run)
    else:
        scenario.run()
    host_s = perf_counter() - t0
    result = scenario.check()
    result.host["setup_s"] = setup_s
    result.host["host_s"] = host_s
    return result, stats


def disagreements(rounds) -> List[str]:
    """Rounds of one seed must agree exactly on everything simulated."""
    first = rounds[0]
    notes = []
    for i, other in enumerate(rounds[1:], start=1):
        if other.digest != first.digest:
            notes.append(f"round {i} digest {other.digest[:12]} != "
                         f"round 0 {first.digest[:12]}")
        for table in ("sim", "counters"):
            a, b = getattr(first, table), getattr(other, table)
            for key in sorted(set(a) | set(b)):
                if a.get(key) != b.get(key):
                    notes.append(f"round {i} {key}={b.get(key)!r} != "
                                 f"round 0 {a.get(key)!r}")
    return notes


def measure(name: str, seed: int, seconds: float, trace: bool) -> Dict:
    """Run one workload; returns the report dict ``main`` prints.  Every
    metric maps to its list of samples."""
    cls = scenarios.SCENARIOS[name]
    # The traced pass costs about as much as the rounds it replaces: with
    # tracing on, half the budget goes to untraced rounds (trace overhead
    # and the host-time layer metrics need them) and one traced round
    # follows.
    budget = seconds / 2 if trace else seconds
    min_rounds = 1 if trace else MIN_ROUNDS
    rounds, setups = [], []
    t_start = perf_counter()
    while len(rounds) < min_rounds or perf_counter() - t_start < budget:
        setups += [timed_setup(cls, seed)[1] for _ in range(SETUP_REPS)]
        rounds.append(one_round(cls, seed)[0])
        setups.append(rounds[-1].host["setup_s"])
    checked = list(rounds)
    traced_stats = None
    if trace:
        traced_round, traced_stats = one_round(cls, seed, traced=True)
        checked.append(traced_round)

    mismatches = disagreements(checked)
    first = rounds[0]
    events = first.counters["sim.events_processed"]
    host_s = [r.host["host_s"] for r in rounds]
    end_to_end = {
        "host_s": host_s,
        "setup_s": setups,
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0],
    }
    per_layer = {
        "sim.events_per_host_s": [events / t for t in host_s],
        "sim.host_us_per_event": [t * 1e6 / events for t in host_s],
        "migration.window_host_s": [r.host["window_host_s"] for r in rounds],
        "chaos.check_s": [r.host["check_s"] for r in rounds],
        "chaos.quiesce_host_s": [r.host["quiesce_host_s"] for r in rounds],
        "harness.import_s": [IMPORT_S],
    }
    for key in first.sim:
        end_to_end[key] = [r.sim[key] for r in checked if key in r.sim]
    for key in first.counters:
        per_layer[key] = [r.counters[key] for r in checked if key in r.counters]
    if trace:
        for key, value in attribution.traced_metrics(traced_stats).items():
            per_layer[key] = [value]
        per_layer["harness.trace_overhead_x"] = [
            traced_round.host["host_s"] / statistics.median(host_s)]

    return {
        "workload": name, "seed": seed, "rounds": len(rounds),
        "digest": first.digest, "events_processed": events,
        "attempted": sum(r.ops for r in checked),
        "failed": sum(r.failed for r in checked) + len(mismatches),
        "notes": [note for r in checked for note in r.notes] + mismatches[:8],
        "end_to_end": end_to_end, "per_layer": per_layer,
        "profile_total_s": (attribution.profile_total_s(traced_stats)
                            if trace else None),
    }


def print_report(report: Dict) -> None:
    print(f"== {report['workload']}  seed={report['seed']}  "
          f"rounds={report['rounds']}  digest={report['digest']}  "
          f"events={report['events_processed']}  "
          f"ops={report['attempted']}  failed={report['failed']}")
    print(f"   why: {ledger.WORKLOADS[report['workload']]}")
    for note in report["notes"]:
        print(f"   FAILED: {note}")
    print(" end-to-end (host metrics measured with tracing off)")
    print(ledger.HEADER)
    for metric in ledger.END_TO_END:
        if metric.name in report["end_to_end"]:
            print(ledger.render_row(metric, report["end_to_end"][metric.name]))
    total = report["profile_total_s"]
    if total is None:
        return
    # a metric that does not apply to this workload is left out, not zeroed
    print(" per-layer (self_s/calls from one round under cProfile; counters "
          "from the untraced rounds)")
    print(ledger.HEADER)
    for metric in ledger.PER_LAYER:
        if metric.name in report["per_layer"]:
            print(ledger.render_row(metric, report["per_layer"][metric.name]))
    self_s = {layer: report["per_layer"][f"{layer}.self_s"][0]
              for layer in (*attribution.LAYERS, attribution.OTHER)}
    print(f" traced round: profile total {total:.4f} s, attributed "
          f"{sum(self_s.values()):.4f} s; shares of self-time:")
    print("   " + "  ".join(f"{layer}={value / total:.1%}"
                            for layer, value in self_s.items()))


def result_line(report: Dict) -> str:
    """The driver's contract: the last line of standard output."""
    traced = report["profile_total_s"] is not None
    if traced:
        table, names = report["per_layer"], ledger.PER_LAYER
    else:
        table, names = report["end_to_end"], ledger.END_TO_END
    metrics = {}
    for metric in names:
        # the driver wants every declared metric on every workload; one
        # that does not apply here (no trunk, no KV ops, ...) reads 0
        samples = table.get(metric.name)
        value = statistics.median(samples) if samples else 0.0
        metrics[metric.name] = {"value": value, "unit": metric.unit}
    return json.dumps({"correct": report["failed"] == 0,
                       "attempted": report["attempted"],
                       "failed": report["failed"], "metrics": metrics})


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    signal.alarm(WATCHDOG_S)
    try:
        report = measure(name, seed, seconds, trace)
    finally:
        signal.alarm(0)
    print_report(report)
    print(result_line(report), flush=True)
    return 1 if report["failed"] else 0


def run_child(name: str, seed: int, seconds: float, trace: bool) -> Optional[Dict]:
    """One workload in its own process; echoes its report, returns the
    parsed result line (None if the child printed none)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace))],
        stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    if proc.returncode != 0:
        result["correct"] = False
    return result


def run_all(seed: int, seconds: float, trace: bool) -> Dict[str, Optional[Dict]]:
    return {name: run_child(name, seed, seconds, trace)
            for name in ledger.WORKLOADS}


def all_correct(results: Dict[str, Optional[Dict]]) -> bool:
    return all(r is not None and r["correct"] for r in results.values())


def selfcheck(seed: int, seconds: float) -> int:
    """Two full sets of the same code must agree within the ledger's own
    bounds on every end-to-end metric x workload."""
    sets = [run_all(seed, seconds, trace=False) for _ in range(2)]
    ok = all(all_correct(results) for results in sets)
    print("== selfcheck: two sets of the same code")
    print(f"  {'workload':<15} {'metric':<16} {'unit':<10} {'set 1':>12} "
          f"{'set 2':>12} {'rel diff':>9} {'bound':>6}")
    for name in ledger.WORKLOADS:
        first, second = (results[name] for results in sets)
        if first is None or second is None:
            continue
        for metric in ledger.END_TO_END:
            a = first["metrics"][metric.name]["value"]
            b = second["metrics"][metric.name]["value"]
            diff = abs(b - a) / abs(a)
            inside = diff <= metric.bound
            ok = ok and inside
            print(f"  {name:<15} {metric.name:<16} {metric.unit:<10} "
                  f"{a:>12.6g} {b:>12.6g} {diff:>9.2%} {metric.bound:>6.2f}"
                  f"{'' if inside else '  OUTSIDE BOUND'}")
    print(f"selfcheck: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(ledger.WORKLOADS),
                        help="run one workload in this process "
                             "(default: all four, one process each)")
    parser.add_argument("--seed", type=int, default=scenarios.REFERENCE_SEED,
                        help="feeds build_fleet, the KV op stream and the "
                             "migration instant (default 7, the legacy seed)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long one workload measures (rounds are "
                             "whole; at least one runs)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add the traced pass and report per-layer metrics")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run two full sets and compare them against "
                             "the bounds")
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    if args.selfcheck:
        return selfcheck(args.seed, args.seconds)
    if args.workload:
        return run_workload(args.workload, args.seed, args.seconds, trace)
    results = run_all(args.seed, args.seconds, trace)
    ok = all_correct(results)
    attempted = sum(r["attempted"] for r in results.values() if r)
    failed = sum(r["failed"] for r in results.values() if r)
    print(f"ledger: correct={ok} attempted={attempted} failed={failed}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
