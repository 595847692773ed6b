#!/usr/bin/env python3
"""Gate the RC packet path's call budget (DESIGN.md §12.4) in CI.

    python3 benchmarks/perf/run.py --workload fleet_drain --seed 7 \\
        --seconds 3 --trace 1 | python3 benchmarks/check_call_budget.py

Reads the ledger's output on standard input; its last line is the JSON
result of a traced ``fleet_drain`` run at seed 7.  Counts repeat exactly on
one Python version, so they are gated where host times are not:

* the run is correct and ``sim.events_processed`` is the pinned 154 323,
* the listener-less wire-done events are credited, not dispatched,
* the summed per-layer ``*.calls`` stays within the budget plus 5 %
  headroom (CPython patch releases move a few builtin call counts).
"""

from __future__ import annotations

import json
import sys

EVENTS_PROCESSED = 154_323
MIN_EVENTS_CREDITED = 23_000
CALL_BUDGET = 2_530_000
HEADROOM = 0.05


def check(result: dict) -> list:
    """Returns the list of violated conditions (empty when within budget)."""
    metrics = {name: row["value"] for name, row in result["metrics"].items()}
    calls = sum(value for name, value in metrics.items() if name.endswith(".calls"))
    limit = CALL_BUDGET * (1 + HEADROOM)
    print(f"call budget: {calls:,.0f} calls (budget {CALL_BUDGET:,}, "
          f"limit {limit:,.0f}), {metrics['sim.events_processed']:,.0f} events, "
          f"{metrics['sim.events_credited']:,.0f} credited")
    problems = []
    if not result["correct"]:
        problems.append(f"run not correct: failed={result['failed']}")
    if metrics["sim.events_processed"] != EVENTS_PROCESSED:
        problems.append(f"sim.events_processed {metrics['sim.events_processed']:.0f} "
                        f"!= {EVENTS_PROCESSED}")
    if metrics["sim.events_credited"] < MIN_EVENTS_CREDITED:
        problems.append(f"sim.events_credited {metrics['sim.events_credited']:.0f} "
                        f"< {MIN_EVENTS_CREDITED}")
    if calls > limit:
        problems.append(f"summed *.calls {calls:,.0f} over the limit {limit:,.0f}")
    return problems


def main() -> int:
    lines = sys.stdin.read().strip().splitlines()
    try:
        result = json.loads(lines[-1])
        problems = check(result)
    except (IndexError, ValueError, KeyError) as error:
        print(f"call budget: no traced result line on stdin ({error!r})")
        return 2
    for problem in problems:
        print(f"call budget: FAILED: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
