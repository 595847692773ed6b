#!/usr/bin/env python3
"""Gate the call budgets (DESIGN.md §12.4, §12.5) in CI.

    python3 benchmarks/perf/run.py --workload fleet_drain --seed 7 \\
        --seconds 3 --trace 1 | python3 benchmarks/check_call_budget.py

Reads the ledger's output on standard input: the ``== <workload>  seed=7``
header names the row of ``BUDGETS`` to check, and the last line is the JSON
result of the traced run.  Counts repeat exactly on one Python version, so
they are gated where host times are not:

* the run is correct and ``sim.events_processed`` is the pinned count,
* the elided dispatches are credited, not dispatched (the listener-less
  wire-done events; on ``kv_noisy`` the idle polls of parked loops on top),
* the summed per-layer ``*.calls`` stays within the budget plus 5 %
  headroom (CPython patch releases move a few builtin call counts).
"""

from __future__ import annotations

import json
import re
import sys

#: workload -> (sim.events_processed, min sim.events_credited, *.calls budget)
BUDGETS = {
    "migrate_ref": (98_955, 358, 2_380_000),
    "migrate_fanout": (783_513, 6_753, 19_100_000),
    "fleet_drain": (154_323, 23_000, 2_530_000),
    "kv_noisy": (369_787, 110_000, 8_600_000),
}
SEED = 7
HEADROOM = 0.05

_HEADER = re.compile(r"^== (\w+)\s+seed=(\d+)\s", re.MULTILINE)


def check(workload: str, result: dict) -> list:
    """Returns the list of violated conditions (empty when within budget)."""
    events_processed, min_credited, budget = BUDGETS[workload]
    metrics = {name: row["value"] for name, row in result["metrics"].items()}
    calls = sum(value for name, value in metrics.items() if name.endswith(".calls"))
    limit = budget * (1 + HEADROOM)
    print(f"call budget [{workload}]: {calls:,.0f} calls (budget {budget:,}, "
          f"limit {limit:,.0f}), {metrics['sim.events_processed']:,.0f} events, "
          f"{metrics['sim.events_credited']:,.0f} credited")
    problems = []
    if not result["correct"]:
        problems.append(f"run not correct: failed={result['failed']}")
    if metrics["sim.events_processed"] != events_processed:
        problems.append(f"sim.events_processed {metrics['sim.events_processed']:.0f} "
                        f"!= {events_processed}")
    if metrics["sim.events_credited"] < min_credited:
        problems.append(f"sim.events_credited {metrics['sim.events_credited']:.0f} "
                        f"< {min_credited}")
    if calls > limit:
        problems.append(f"summed *.calls {calls:,.0f} over the limit {limit:,.0f}")
    return problems


def main() -> int:
    text = sys.stdin.read().strip()
    header = _HEADER.search(text)
    if header is None or header.group(1) not in BUDGETS or int(header.group(2)) != SEED:
        print(f"call budget: no '== <workload>  seed={SEED}' header for one of "
              f"{sorted(BUDGETS)} on stdin")
        return 2
    try:
        problems = check(header.group(1), json.loads(text.splitlines()[-1]))
    except (ValueError, KeyError) as error:
        print(f"call budget: no traced result line on stdin ({error!r})")
        return 2
    for problem in problems:
        print(f"call budget: FAILED: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
