"""The ledger's vocabulary: workloads, metric names, units, directions, bounds.

Two kinds of time are reported and never mixed.  **Host** metrics say how
fast the simulator runs on this box (noisy; compare medians against the
bound).  **Simulated** metrics say what the modelled MigrRDMA system
achieves (deterministic for a seed; two commits compare exactly).  The
unit says which is which: ``s`` is host seconds, ``sim_ms``/``sim_us`` are
simulated time.

``BENCHMARK.json`` at the repo root repeats these tables for the driver;
``test_ledger.py`` holds the two in agreement.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from attribution import LAYERS, OTHER

#: name -> why the workload exists (one line; README.md has the long form)
WORKLOADS: Dict[str, str] = {
    "migrate_ref": "16-QP 64 KiB WRITE migration, payload unverified: bulk "
                   "bytes cross rnic+mem; the bypass for fan-out work",
    "migrate_fanout": "256-QP migration, payload verified: every per-QP "
                      "structure, 2048-WR WBS drain, 256-QP pre-setup",
    "fleet_drain": "rack drain, 8 cross-rack migrations at concurrency 4: only "
                   "workload on trunk ports and with the express lane off",
    "kv_noisy": "KV victim migrates beside a 40 Gb/s shaped tenant: small "
                "READ/SEND/CAS ops, per-op cost and the token bucket dominate",
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str            # "lower" | "higher"
    kind: str              # "host" | "sim" | "count"
    #: share of the parent's median by which the metric may worsen
    #: (end-to-end metrics only)
    bound: Optional[float] = None


def _host(name, unit="s", better="lower", bound=None):
    return Metric(name, unit, better, "host", bound)


def _sim(name, unit, better="lower", bound=None):
    return Metric(name, unit, better, "sim", bound)


def _count(name, unit="count", better="lower"):
    return Metric(name, unit, better, "count")


#: Reported by every workload.  Bounds were confirmed on the build box
#: from ten-seed sets (README.md, "Observed spreads").
END_TO_END: List[Metric] = [
    _host("host_s", bound=0.25),
    _host("setup_s", bound=0.25),
    _host("peak_rss_mb", unit="MiB", bound=0.10),
    _sim("comm_blackout_ms", "sim_ms", bound=0.01),
    _sim("migration_ms", "sim_ms", bound=0.01),
    _sim("app_ops_per_ms", "ops/sim_ms", better="higher", bound=0.02),
]

#: Metrics of single layers.  The driver wants every end-to-end metric on
#: every workload, so simulated quantities only some workloads have
#: (``fleet.drain_ms``, ``apps.app_gbps``, ``apps.get_p50_us``/``p99``)
#: live here, under their layer's name.  So do ``migration.blackout_ms`` and
#: ``core.wbs_ms``: each is the same to the last bit for every seed on some
#: workload, and the driver rejects a time that never varies; end to end
#: they are bounded together as ``comm_blackout_ms`` (suspend -> resume).
PER_LAYER: List[Metric] = [
    # -- traced pass: cProfile self-time and calls per package ------------
    *[m for layer in (*LAYERS, OTHER)
      for m in (_host(f"{layer}.self_s"), _count(f"{layer}.calls"))],
    _count("mem.page_writes"),
    _count("mem.page_reads"),
    _host("harness.trace_overhead_x", unit="x"),
    _host("harness.import_s"),
    # -- sim kernel -------------------------------------------------------
    _count("sim.events_processed"),
    _count("sim.events_cancelled"),
    _count("sim.events_credited", better="higher"),
    _sim("sim.sim_s", "sim_s"),
    _host("sim.events_per_host_s", unit="1/s", better="higher"),
    _host("sim.host_us_per_event", unit="us"),
    # -- rnic -------------------------------------------------------------
    _count("rnic.tx_msgs"),
    _count("rnic.tx_bytes", unit="bytes"),
    _count("rnic.flow_expressed", better="higher"),
    _count("rnic.flow_fallbacks"),
    _count("rnic.flow_materialized"),
    _count("rnic.express_ratio", unit="ratio", better="higher"),
    _count("rnic.qos_throttle_events"),
    # -- fabric -----------------------------------------------------------
    _count("fabric.messages_sent"),
    _count("fabric.messages_dropped"),
    _count("fabric.cross_rack_messages"),
    _sim("fabric.trunk_util", "ratio"),
    _count("fabric.trunk_peak_backlog_bytes", unit="bytes"),
    # -- core (guest lib, translation, WBS) ------------------------------
    _count("core.wrs_intercepted"),
    _count("core.wrs_replayed"),
    _count("core.wbs_absorbed_cqes"),
    _count("core.rkey_cache_hits", better="higher"),
    _count("core.rkey_cache_misses"),
    _count("core.rkey_hit_ratio", unit="ratio", better="higher"),
    _count("core.fetch_rpcs"),
    _sim("core.cycles_per_op", "cycles"),
    _sim("core.wbs_ms", "sim_ms"),
    # -- migration: the Fig. 3 phases sum to migration.blackout_ms --------
    _sim("migration.blackout_ms", "sim_ms"),
    _sim("migration.dump_rdma_ms", "sim_ms"),
    _sim("migration.dump_others_ms", "sim_ms"),
    _sim("migration.transfer_ms", "sim_ms"),
    _sim("migration.restore_rdma_ms", "sim_ms"),
    _sim("migration.full_restore_ms", "sim_ms"),
    _sim("migration.presetup_ms", "sim_ms"),
    _count("migration.precopy_rounds"),
    _count("migration.bytes_transferred", unit="bytes"),
    _host("migration.window_host_s"),
    # -- resilience / fleet ----------------------------------------------
    _count("resilience.attempts_total"),
    _count("resilience.rpc_retries"),
    _count("fleet.migrations"),
    _count("fleet.completed", better="higher"),
    _count("fleet.max_concurrency", better="higher"),
    _count("fleet.requeues"),
    _sim("fleet.drain_ms", "sim_ms"),
    # -- apps ---------------------------------------------------------------
    _count("apps.ops_completed", better="higher"),
    _count("apps.bytes_completed", unit="bytes", better="higher"),
    _sim("apps.app_gbps", "Gb/s", better="higher"),
    _count("apps.gets", better="higher"),
    _count("apps.puts", better="higher"),
    _count("apps.cas_attempts"),
    _count("apps.cas_acquired", better="higher"),
    _count("apps.cas_success_ratio", unit="ratio", better="higher"),
    _sim("apps.get_p50_us", "sim_us"),
    _sim("apps.get_p99_us", "sim_us"),
    # -- chaos (the check itself) ----------------------------------------
    _host("chaos.check_s"),
    _host("chaos.quiesce_host_s"),
    _count("chaos.invariants_checked", better="higher"),
    _count("chaos.violations"),
]

def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, extremes and count of one metric's samples."""
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, _median, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {"n": len(ordered), "median": statistics.median(ordered),
            "q1": q1, "q3": q3, "min": ordered[0], "max": ordered[-1]}


def _fmt(value: float) -> str:
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


HEADER = (f"  {'metric':<34} {'kind':<5} {'unit':<10} {'better':<6} "
          f"{'bound':>5} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'min':>12} {'max':>12}")


def render_row(metric: Metric, samples: Sequence[float]) -> str:
    stats = summarize(samples)
    bound = "-" if metric.bound is None else f"{metric.bound:.2f}"
    return (f"  {metric.name:<34} {metric.kind:<5} {metric.unit:<10} "
            f"{metric.better:<6} {bound:>5} {stats['n']:>3} "
            + " ".join(f"{_fmt(stats[key]):>12}"
                       for key in ("median", "q1", "q3", "min", "max")))
