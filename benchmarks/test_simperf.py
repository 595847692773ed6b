"""Simulator performance: wall-clock events/sec on the reference migration.

Unlike the other benchmark modules (which regenerate *paper* metrics in
simulated time), this one tracks how fast the simulator itself runs: heap
events processed per wall-clock second and the wall-clock cost of one
end-to-end migration.  The numbers land in ``BENCH_simperf.json`` at the
repo root so regressions in the hot paths (the event loop, the RNIC
engine, page copying) show up in review diffs.

``REPRO_BENCH_FULL=1`` runs the paper-scale scenario; the default stays
laptop-quick.  Wall-clock numbers are machine-dependent — the JSON is a
tracking artifact.  On top of the sanity assertions, the test guards
against large regressions: if the previous ``BENCH_simperf.json`` was
produced by the same scenario, the new events/sec must stay within
``GUARD_TOLERANCE`` of it.  The 30% band is deliberately generous (CI
machines are noisy); tripping it means a hot path genuinely slowed down.
Set ``REPRO_BENCH_NO_GUARD=1`` to skip the comparison (first run on new
hardware, or an accepted slowdown).
"""

import json
import os
from pathlib import Path

from bench_common import FULL_MODE

from repro.parallel import TaskSpec, run_tasks

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULT_FILE = REPO_ROOT / "BENCH_simperf.json"

NUM_QPS = 256 if FULL_MODE else 16
ROUNDS = 1 if FULL_MODE else 3

#: New events/sec must be at least this fraction of the previous run's.
GUARD_TOLERANCE = 0.70


def test_simperf_events_per_sec():
    # The rounds go through the parallel engine's single-process path —
    # the same code `--jobs` sweeps use — and keep the best wall-clock.
    specs = [TaskSpec("repro.parallel.runners.simperf_round",
                      dict(num_qps=NUM_QPS), label=f"simperf:round{i}")
             for i in range(ROUNDS)]
    results = run_tasks(specs, jobs=1)
    assert all(r.ok for r in results), [r.error for r in results if not r.ok]
    rounds = [r.value for r in results]
    best = min(rounds, key=lambda row: row["wall_s"])

    # Simulated time is deterministic: every round agrees exactly.
    assert len({row["sim_now"] for row in rounds}) == 1
    assert len({row["events_processed"] for row in rounds}) == 1

    result = {
        "scenario": f"PerftestBed({NUM_QPS})",
        "rounds": ROUNDS,
        "events_processed": best["events_processed"],
        "events_cancelled": best["events_cancelled"],
        "migration_wallclock_s": round(best["wall_s"], 4),
        "events_per_sec": round(best["events_processed"] / best["wall_s"]),
        "sim_time_s": best["sim_now"],
        "blackout_ms": best["blackout_ms"],
    }

    previous = None
    if RESULT_FILE.exists():
        try:
            previous = json.loads(RESULT_FILE.read_text())
        except (ValueError, OSError):
            previous = None
    RESULT_FILE.write_text(json.dumps(result, indent=2) + "\n")

    # Sanity: wall-clock speed is machine-dependent, but never zero.
    assert result["events_processed"] > 10_000
    assert result["events_per_sec"] > 0
    assert result["migration_wallclock_s"] > 0
    assert result["blackout_ms"] > 0

    # Regression guard vs the previous committed run of the same scenario.
    if (previous is not None
            and not os.environ.get("REPRO_BENCH_NO_GUARD")
            and previous.get("scenario") == result["scenario"]
            and previous.get("events_per_sec")):
        floor = previous["events_per_sec"] * GUARD_TOLERANCE
        assert result["events_per_sec"] >= floor, (
            f"simulator throughput regressed: {result['events_per_sec']} "
            f"events/sec vs previous {previous['events_per_sec']} "
            f"(floor {floor:.0f}, tolerance {GUARD_TOLERANCE:.0%}). "
            f"If the slowdown is expected, commit the new BENCH_simperf.json "
            f"or set REPRO_BENCH_NO_GUARD=1.")
