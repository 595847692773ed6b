"""Fleet-level reporting: per-migration outcomes + aggregate distributions.

One :class:`FleetReport` per scheduler execution, built through
:mod:`repro.obs` primitives: the aggregate blackout distribution is a
real :class:`~repro.obs.metrics.Histogram` (exact percentiles), per-trunk
utilisation comes from the topology's ``Port`` byte counters, and peak
trunk backlog is sampled at every scheduler poll — which is what makes
uplink contention *visible* in the report rather than just slower.

The report digests deterministically (container/host names, simulated
timestamps — never wall-clock, never ``container_id`` values, which
depend on how many testbeds this interpreter built before) so same-seed
runs compare bit-identical across ``--jobs`` settings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.digest import sha256
from repro.obs.metrics import Histogram

__all__ = ["FleetReport", "MigrationOutcome"]


@dataclass
class MigrationOutcome:
    """One scheduled migration, as the fleet saw it."""

    container: str
    source: str
    dest: str
    completed: bool
    attempts: int
    blackout_s: Optional[float]
    t_admitted: float
    t_done: float
    failure: Optional[str] = None

    def line(self) -> str:
        """Canonical digest line (repr floats: exact, no rounding)."""
        return "|".join([
            self.container, self.source, self.dest,
            "ok" if self.completed else "FAILED",
            str(self.attempts),
            repr(self.blackout_s), repr(self.t_admitted), repr(self.t_done),
            self.failure or "-",
        ])


class FleetReport:
    """Everything a fleet operation reports: outcomes + aggregates."""

    def __init__(self, policy: str = "", target: str = "",
                 placement: str = ""):
        self.policy = policy
        self.target = target
        self.placement = placement
        self.outcomes: List[MigrationOutcome] = []
        self.blackouts = Histogram("fleet.blackout_s")
        self.t_start = 0.0
        self.t_end = 0.0
        #: highest number of simultaneously-active migrations observed
        self.max_concurrency = 0
        #: peak queued bytes per trunk, sampled at scheduler polls
        self.link_peak_backlog: Dict[str, int] = {}
        #: final per-trunk stats (bytes, mean utilisation) from the topology
        self.link_stats: Dict[str, dict] = {}

    # ------------------------------------------------------------------
    # accumulation (scheduler-facing)

    def add(self, outcome: MigrationOutcome) -> None:
        self.outcomes.append(outcome)
        if outcome.blackout_s is not None:
            self.blackouts.observe(outcome.blackout_s)

    def observe_concurrency(self, active: int) -> None:
        if active > self.max_concurrency:
            self.max_concurrency = active

    def observe_links(self, topology) -> None:
        """Sample trunk backlog (scheduler calls this every poll)."""
        if topology is None:
            return
        for name, port in topology.trunk_ports().items():
            pending = port.pending_bytes
            if pending > self.link_peak_backlog.get(name, 0):
                self.link_peak_backlog[name] = pending

    def finalize(self, topology, t_start: float, t_end: float) -> None:
        self.t_start = t_start
        self.t_end = t_end
        if topology is not None:
            self.link_stats = topology.link_stats(now=t_end)

    # ------------------------------------------------------------------
    # aggregates

    @property
    def migrations(self) -> int:
        return len(self.outcomes)

    @property
    def completed(self) -> int:
        return sum(1 for o in self.outcomes if o.completed)

    @property
    def failed(self) -> int:
        return self.migrations - self.completed

    @property
    def drain_completion_s(self) -> float:
        """First admission poll to last migration settled."""
        return self.t_end - self.t_start

    def blackout_summary(self) -> Dict[str, float]:
        """p50/p99/max of per-migration service blackout (seconds)."""
        if self.blackouts.count == 0:
            return {"count": 0, "p50": 0.0, "p99": 0.0, "max": 0.0}
        return {
            "count": self.blackouts.count,
            "p50": self.blackouts.percentile(50),
            "p99": self.blackouts.percentile(99),
            "max": self.blackouts.max,
        }

    # ------------------------------------------------------------------
    # digest + rendering

    def digest_input(self) -> str:
        lines = [f"fleet-report policy={self.policy} target={self.target} "
                 f"placement={self.placement}",
                 f"window={self.t_start!r}..{self.t_end!r} "
                 f"max_concurrency={self.max_concurrency}"]
        lines.extend(o.line() for o in self.outcomes)
        for name in sorted(self.link_stats):
            stats = self.link_stats[name]
            lines.append(f"link {name} bytes={stats['bytes']} "
                         f"peak_backlog={self.link_peak_backlog.get(name, 0)}")
        return "\n".join(lines)

    def digest(self) -> str:
        return sha256(self.digest_input().encode()).hexdigest()

    def render(self) -> str:
        """Human-readable summary table for the CLI/examples."""
        blackout = self.blackout_summary()
        lines = [
            f"FleetReport: policy={self.policy} target={self.target} "
            f"placement={self.placement}",
            f"  migrations: {self.migrations} ({self.completed} completed, "
            f"{self.failed} failed), peak concurrency {self.max_concurrency}",
            f"  drain completion: {self.drain_completion_s * 1e3:.3f} ms",
            f"  blackout: n={blackout['count']} p50={blackout['p50'] * 1e3:.3f} ms "
            f"p99={blackout['p99'] * 1e3:.3f} ms max={blackout['max'] * 1e3:.3f} ms",
        ]
        for name in sorted(self.link_stats):
            stats = self.link_stats[name]
            lines.append(
                f"  trunk {name:<12} {stats['bytes'] / 1e6:10.2f} MB  "
                f"util {stats['utilization'] * 100:6.2f}%  "
                f"peak backlog {self.link_peak_backlog.get(name, 0) / 1e3:8.1f} KB")
        for o in self.outcomes:
            blk = "-" if o.blackout_s is None else f"{o.blackout_s * 1e3:.3f} ms"
            status = "ok" if o.completed else f"FAILED ({o.failure})"
            lines.append(f"    {o.container:<8} {o.source} -> {o.dest:<8} "
                         f"attempts={o.attempts} blackout={blk} {status}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"<FleetReport {self.policy}:{self.target} "
                f"migrations={self.migrations} "
                f"completed={self.completed}>")
