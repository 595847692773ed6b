"""The run snapshot and the paper's measurement instruments.

Every layer keeps its own counters where they belong to the model: the
RNIC's ``tx_bytes``/``rx_bytes``, ``Simulator.events_processed``, the
rkey cache's ``hits``/``misses``, the WBS thread's drain counts.
:class:`MetricsRegistry` gives them one namespace, one snapshot and one
text rendering: its ``scrape_*`` methods copy the current values in under
stable dotted names, so exporters, the CLI and the run digest report the
whole stack uniformly.

Beside it live two instruments that keep more than a final value:

- :class:`ThroughputSampler` — the §5.5.2 methodology behind Figure 5:
  perftest cannot report fine-grained throughput, so the evaluation
  samples the Mellanox ethtool byte counters on a 5 ms grid and
  differentiates.  Here the counters are the RNIC model's
  ``tx_bytes``/``rx_bytes``.
- :class:`Histogram` — keeps raw observations (simulations observe
  thousands, not billions, of samples) and computes percentiles by linear
  interpolation between closest ranks.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.sim import Interrupt, Simulator

__all__ = ["Histogram", "MetricsRegistry", "ThroughputSample",
           "ThroughputSampler"]


@dataclass
class ThroughputSample:
    """One 5-ms sample: time and throughput in Gbps."""

    time_s: float
    tx_gbps: float
    rx_gbps: float


class ThroughputSampler:
    """Samples a pair of byte counters at a fixed interval."""

    def __init__(
        self,
        sim: Simulator,
        read_tx: Callable[[], int],
        read_rx: Callable[[], int],
        interval_s: float = 5e-3,
    ):
        if interval_s <= 0:
            raise ValueError(f"sampling interval must be positive, got {interval_s}")
        self.sim = sim
        self.read_tx = read_tx
        self.read_rx = read_rx
        self.interval_s = interval_s
        self.samples: List[ThroughputSample] = []
        self._process = None

    @classmethod
    def for_nic(cls, sim: Simulator, nic, interval_s: float = 5e-3) -> "ThroughputSampler":
        return cls(sim, lambda: nic.tx_bytes, lambda: nic.rx_bytes, interval_s)

    def start(self) -> None:
        if self._process is not None:
            raise RuntimeError("sampler already started")
        self._process = self.sim.spawn(self._run(), name="throughput-sampler")

    def stop(self) -> None:
        if self._process is not None and self._process.is_alive:
            self._process.interrupt("stop")
        self._process = None

    def _run(self):
        last_tx = self.read_tx()
        last_rx = self.read_rx()
        try:
            while True:
                yield self.sim.timeout(self.interval_s)
                tx, rx = self.read_tx(), self.read_rx()
                self.samples.append(ThroughputSample(
                    time_s=self.sim.now,
                    tx_gbps=(tx - last_tx) * 8 / self.interval_s / 1e9,
                    rx_gbps=(rx - last_rx) * 8 / self.interval_s / 1e9,
                ))
                last_tx, last_rx = tx, rx
        except Interrupt:
            return

    # -- analysis helpers -----------------------------------------------------

    def blackout_intervals(self, threshold_gbps: float = 0.5, direction: str = "rx"):
        """Contiguous sample runs where throughput fell below ``threshold``.

        Returns a list of (start_s, end_s) intervals.
        """
        intervals = []
        run_start: Optional[float] = None
        for sample in self.samples:
            value = sample.rx_gbps if direction == "rx" else sample.tx_gbps
            if value < threshold_gbps:
                if run_start is None:
                    run_start = sample.time_s - self.interval_s
            else:
                if run_start is not None:
                    intervals.append((run_start, sample.time_s - self.interval_s))
                    run_start = None
        if run_start is not None and self.samples:
            intervals.append((run_start, self.samples[-1].time_s))
        return intervals

    def mean_gbps(self, start_s: float, end_s: float, direction: str = "rx") -> float:
        values = [
            (s.rx_gbps if direction == "rx" else s.tx_gbps)
            for s in self.samples
            if start_s <= s.time_s <= end_s
        ]
        if not values:
            raise ValueError(f"no samples in window [{start_s}, {end_s}]")
        return sum(values) / len(values)


class Histogram:
    """A distribution of observations with exact percentile queries."""

    __slots__ = ("name", "_sorted", "sum")

    def __init__(self, name: str):
        self.name = name
        self._sorted: List[float] = []
        self.sum = 0.0

    def observe(self, value: float) -> None:
        insort(self._sorted, value)
        self.sum += value

    @property
    def count(self) -> int:
        return len(self._sorted)

    @property
    def min(self) -> float:
        if not self._sorted:
            raise ValueError(f"histogram {self.name} is empty")
        return self._sorted[0]

    @property
    def max(self) -> float:
        if not self._sorted:
            raise ValueError(f"histogram {self.name} is empty")
        return self._sorted[-1]

    @property
    def mean(self) -> float:
        if not self._sorted:
            raise ValueError(f"histogram {self.name} is empty")
        return self.sum / len(self._sorted)

    def percentile(self, p: float) -> float:
        """The p-th percentile (0..100), linearly interpolated."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        data = self._sorted
        if not data:
            raise ValueError(f"histogram {self.name} is empty")
        if len(data) == 1:
            return data[0]
        rank = p / 100.0 * (len(data) - 1)
        lo = int(rank)
        frac = rank - lo
        if frac == 0.0:
            return data[lo]
        return data[lo] + (data[lo + 1] - data[lo]) * frac

    def __repr__(self) -> str:
        return f"<Histogram {self.name} n={self.count}>"


class MetricsRegistry:
    """Named plain values scraped from the model, under dotted names."""

    def __init__(self):
        self._values: Dict[str, Any] = {}

    # -- scrapers: copy each layer's own counters in ----------------------

    def scrape_sim(self, sim) -> None:
        self._values["sim.events_processed"] = sim.events_processed
        self._values["sim.now_s"] = sim.now
        self._values["sim.failed_processes"] = len(sim.failed_processes)

    def scrape_nic(self, nic, prefix: Optional[str] = None) -> None:
        prefix = prefix or f"rnic.{nic.node.name}"
        self._values[f"{prefix}.tx_bytes"] = nic.tx_bytes
        self._values[f"{prefix}.rx_bytes"] = nic.rx_bytes
        self._values[f"{prefix}.tx_msgs"] = nic.tx_msgs
        self._values[f"{prefix}.rx_msgs"] = nic.rx_msgs
        self._values[f"{prefix}.qps"] = len(nic.qps)
        if nic.qos is not None:
            # Tenant QoS is part of the digested surface when installed:
            # metered bytes and throttle counts are results of the run.
            # Runs without QoS (nic.qos is None) emit nothing here, so
            # every pre-existing digest pin is untouched.
            for tenant, state in nic.qos.snapshot().items():
                qprefix = f"{prefix}.tenant.{tenant}"
                self._values[f"{qprefix}.tx_bytes"] = state["tx_bytes"]
                self._values[f"{qprefix}.msgs"] = state["reserved_msgs"]
                self._values[f"{qprefix}.qps"] = state["qps"]
                self._values[f"{qprefix}.throttle_events"] = state["throttle_events"]
                self._values[f"{qprefix}.throttle_s"] = state["throttle_s"]
                self._values[f"{qprefix}.qp_denials"] = state["qp_denials"]

    def scrape_network(self, network) -> None:
        self._values["fabric.messages_sent"] = network.messages_sent
        self._values["fabric.messages_dropped"] = network.messages_dropped

    def scrape_lib(self, lib, prefix: Optional[str] = None) -> None:
        """One MigrRDMA guest lib: translation-cache and WBS/replay counts."""
        prefix = prefix or f"lib.pid{lib.process.pid}"
        self._values[f"{prefix}.rkey_cache_hits"] = lib.rkey_cache.hits
        self._values[f"{prefix}.rkey_cache_misses"] = lib.rkey_cache.misses
        self._values[f"{prefix}.fetch_rpcs"] = lib.fetch_rpcs
        self._values[f"{prefix}.demand_fetches"] = lib.demand_fetches
        self._values[f"{prefix}.wrs_intercepted"] = lib.wrs_intercepted
        self._values[f"{prefix}.wrs_replayed"] = lib.wrs_replayed
        self._values[f"{prefix}.wbs_absorbed_cqes"] = lib.wbs.absorbed_cqes

    def scrape_testbed(self, tb, world=None) -> None:
        """Everything at once: kernel, fabric, every NIC, every guest lib."""
        self.scrape_sim(tb.sim)
        self.scrape_network(tb.network)
        for server in tb.servers:
            self.scrape_nic(server.rnic)
        if world is not None:
            for lib in world.all_libs():
                self.scrape_lib(lib)
            stats = getattr(world.control, "stats", None)
            if stats is not None:
                for name, value in stats.as_dict().items():
                    self._values[f"resilience.{name}"] = value
            # Heartbeat-detector behaviour (per-peer misses, suspicion
            # transitions, flap count) is part of the digested surface:
            # all three are simulated-time event counts, never wall-clock
            # quantities.  Peers whose counters are all zero emit nothing,
            # so fault-free runs keep their pre-existing digests
            # byte-identical (same trick as the tenant-QoS values above).
            detector_stats = getattr(world.control, "detector_stats", None)
            if detector_stats:
                for peer, counts in sorted(detector_stats.items()):
                    if not any(counts.values()):
                        continue
                    for key in ("misses", "suspicions", "flaps"):
                        self._values[f"resilience.detector.{peer}.{key}"] = counts[key]

    def scrape_fleet(self, fleet) -> None:
        """Fleet state store + fat-tree trunk accounting.

        Part of the digested surface: where containers ended up and how
        many bytes crossed each trunk are *results* of a fleet run, so
        same-seed runs must agree on them bit-for-bit across ``--jobs``
        settings.
        """
        state = fleet.state
        self._values["fleet.hosts"] = len(state.hosts)
        self._values["fleet.containers"] = len(state.containers)
        self._values["fleet.draining"] = len(state.draining)
        for name in state.hosts:
            self._values[f"fleet.host.{name}.containers"] = state.load(name)
            self._values[f"fleet.host.{name}.qps"] = state.qp_usage(name)
        topology = getattr(fleet, "topology", None)
        if topology is not None:
            for link, port in topology.trunk_ports().items():
                self._values[f"fleet.link.{link}.bytes"] = port.bytes_sent

    def scrape_chaos(self, plan) -> None:
        """Injection counters from a :class:`repro.chaos.FaultPlan`."""
        for name, value in plan.stats.as_dict().items():
            self._values[f"chaos.{name}"] = value
        self._values["chaos.rules"] = len(plan.rules)
        self._values["chaos.boundaries_seen"] = len(plan.boundaries_seen)

    # -- output ----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Plain dict of every value, keys sorted."""
        return dict(sorted(self._values.items()))

    def render(self) -> str:
        """Aligned text table of the snapshot."""
        rows = [(name, f"{value:.6g}" if isinstance(value, float) else str(value))
                for name, value in self.snapshot().items()]
        if not rows:
            return "(no metrics)"
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)
