"""Large-fanout scale path: events/sec and blackout at 256/1024 QPs.

RDMAvisor's argument (PAPERS.md) is that RDMA-as-a-service must scale to
many connections per host; the reference scenario stops at 16 QPs.  This
benchmark runs the fault-free torture-style scenario — full quiesce drain
plus every registered chaos invariant — at datacenter fan-out and lands the
numbers
in ``BENCH_scale.json``: correctness (every invariant clean) is asserted,
wall-clock (events/sec) is guarded against >30% regressions the same way
``BENCH_simperf.json`` is.

The 256- and 1024-QP points always run; ``REPRO_BENCH_FULL=1`` adds
4096 QPs (~6 min, ~1.5 GiB), whose committed point a default run keeps.
"""

import json
import os
import resource
from pathlib import Path

from bench_common import FULL_MODE

from repro.parallel import TaskSpec, run_tasks

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULT_FILE = REPO_ROOT / "BENCH_scale.json"

QP_POINTS = [256, 1024, 4096] if FULL_MODE else [256, 1024]

#: New events/sec must be at least this fraction of the previous run's.
GUARD_TOLERANCE = 0.70


def test_scale_invariants_and_events_per_sec():
    specs = [TaskSpec("repro.parallel.runners.scale_run",
                      dict(num_qps=num_qps), label=f"scale:{num_qps}qp")
             for num_qps in QP_POINTS]
    # jobs=1 runs the points in this process, smallest first, so the
    # process high-water mark after each point is that point's peak.
    peak_rss_mb = {}

    def note_peak_rss(result):
        peak_rss_mb[result.index] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    results = run_tasks(specs, jobs=1, on_result=note_peak_rss)
    assert all(r.ok for r in results), [r.error for r in results if not r.ok]
    points = [r.value for r in results]

    from repro.chaos.invariants import DEFAULT_REGISTRY

    expected_invariants = set(DEFAULT_REGISTRY.names())
    for point in points:
        # The scale claim is first a correctness claim: the indirection
        # tables, WBS drain and go-back-N machinery at 256+ QPs keep every
        # registered invariant clean.
        assert set(point["invariants_checked"]) == expected_invariants, \
            point["invariants_checked"]
        assert point["invariants_ok"], point["violations"]
        assert point["blackout_ms"] > 0
        assert point["events_processed"] > 100_000
        assert point["digest"]

    result = {
        "scenario": "scale_run (fault-free torture case + all invariants)",
        "points": [
            {
                "num_qps": point["num_qps"],
                "events_processed": point["events_processed"],
                "events_cancelled": point["events_cancelled"],
                "wallclock_s": round(point["wall_s"], 4),
                "peak_rss_mb": round(peak_rss_mb[index], 1),
                "events_per_sec": round(point["events_per_sec"]),
                "sim_time_s": point["sim_now"],
                "blackout_ms": round(point["blackout_ms"], 3),
                "wbs_elapsed_us": round(point["wbs_elapsed_us"], 2),
                "invariants_ok": point["invariants_ok"],
                "events_credited": point["events_credited"],
            }
            for index, point in enumerate(points)
        ],
    }

    previous = None
    if RESULT_FILE.exists():
        try:
            previous = json.loads(RESULT_FILE.read_text())
        except (ValueError, OSError):
            previous = None
    if previous is not None:
        # A default run must not drop the committed 4096-QP point.
        ran = {point["num_qps"] for point in result["points"]}
        result["points"] += [p for p in previous.get("points", [])
                             if p.get("num_qps") not in ran]
    RESULT_FILE.write_text(json.dumps(result, indent=2) + "\n")

    # Regression guard vs the previous committed run, per QP point.
    if previous is not None and not os.environ.get("REPRO_BENCH_NO_GUARD"):
        prev_points = {p.get("num_qps"): p for p in previous.get("points", [])}
        for point in result["points"]:
            prev = prev_points.get(point["num_qps"])
            if not prev or not prev.get("events_per_sec"):
                continue
            floor = prev["events_per_sec"] * GUARD_TOLERANCE
            assert point["events_per_sec"] >= floor, (
                f"{point['num_qps']}-QP scale throughput regressed: "
                f"{point['events_per_sec']} events/sec vs previous "
                f"{prev['events_per_sec']} (floor {floor:.0f}, tolerance "
                f"{GUARD_TOLERANCE:.0%}). If the slowdown is expected, commit "
                f"the new BENCH_scale.json or set REPRO_BENCH_NO_GUARD=1.")
