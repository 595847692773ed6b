"""Named counters, gauges and histograms — one registry per experiment.

Before this subsystem existed every layer grew its own ad-hoc counters:
the RNIC's ``tx_bytes``/``rx_bytes``, ``Simulator.events_processed``, the
rkey cache's ``hits``/``misses``, the WBS thread's drain counts.  Those
remain where they are (they are part of the models), but the registry
gives them one namespace, one snapshot, and one text rendering:
:meth:`MetricsRegistry.scrape_*` pulls the current values in under stable
dotted names, so exporters and the CLI report the whole stack uniformly.

Histograms keep raw observations (simulations observe thousands, not
billions, of samples) and compute percentiles by linear interpolation
between closest ranks.
"""

from __future__ import annotations

from bisect import insort
from typing import Any, Dict, List, Optional

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """A monotonically-increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {n})")
        self.value += n

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A point-in-time value (set, not accumulated)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self.value}>"


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

    def summary(self) -> Dict[str, float]:
        if not self._sorted:
            return {"count": 0}
        return {
            "count": self.count, "sum": self.sum, "min": self.min,
            "max": self.max, "mean": self.mean,
            "p50": self.percentile(50), "p90": self.percentile(90),
            "p99": self.percentile(99),
        }

    def __repr__(self) -> str:
        return f"<Histogram {self.name} n={self.count}>"


class MetricsRegistry:
    """Get-or-create registry of named metrics, plus model scrapers."""

    def __init__(self):
        self._metrics: Dict[str, Any] = {}

    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name)
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}, "
                f"requested {cls.__name__}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    # -- scrapers: unify the stack's pre-existing ad-hoc counters --------

    def scrape_sim(self, sim) -> None:
        self.gauge("sim.events_processed").set(sim.events_processed)
        self.gauge("sim.now_s").set(sim.now)
        self.gauge("sim.failed_processes").set(len(sim.failed_processes))

    def scrape_nic(self, nic, prefix: Optional[str] = None) -> None:
        prefix = prefix or f"rnic.{nic.node.name}"
        self.gauge(f"{prefix}.tx_bytes").set(nic.tx_bytes)
        self.gauge(f"{prefix}.rx_bytes").set(nic.rx_bytes)
        self.gauge(f"{prefix}.tx_msgs").set(nic.tx_msgs)
        self.gauge(f"{prefix}.rx_msgs").set(nic.rx_msgs)
        self.gauge(f"{prefix}.qps").set(len(nic.qps))
        if nic.qos is not None:
            # Tenant QoS is part of the digested surface when installed:
            # metered bytes and throttle counts are results of the run.
            # Runs without QoS (nic.qos is None) emit nothing here, so
            # every pre-existing digest pin is untouched.
            for tenant, state in nic.qos.snapshot().items():
                qprefix = f"{prefix}.tenant.{tenant}"
                self.gauge(f"{qprefix}.tx_bytes").set(state["tx_bytes"])
                self.gauge(f"{qprefix}.msgs").set(state["reserved_msgs"])
                self.gauge(f"{qprefix}.qps").set(state["qps"])
                self.gauge(f"{qprefix}.throttle_events").set(
                    state["throttle_events"])
                self.gauge(f"{qprefix}.throttle_s").set(state["throttle_s"])
                self.gauge(f"{qprefix}.qp_denials").set(state["qp_denials"])

    def scrape_network(self, network) -> None:
        self.gauge("fabric.messages_sent").set(network.messages_sent)
        self.gauge("fabric.messages_dropped").set(network.messages_dropped)

    def scrape_lib(self, lib, prefix: Optional[str] = None) -> None:
        """One MigrRDMA guest lib: translation-cache and WBS/replay counts."""
        prefix = prefix or f"lib.pid{lib.process.pid}"
        self.gauge(f"{prefix}.rkey_cache_hits").set(lib.rkey_cache.hits)
        self.gauge(f"{prefix}.rkey_cache_misses").set(lib.rkey_cache.misses)
        self.gauge(f"{prefix}.fetch_rpcs").set(lib.fetch_rpcs)
        self.gauge(f"{prefix}.demand_fetches").set(lib.demand_fetches)
        self.gauge(f"{prefix}.wrs_intercepted").set(lib.wrs_intercepted)
        self.gauge(f"{prefix}.wrs_replayed").set(lib.wrs_replayed)
        self.gauge(f"{prefix}.wbs_absorbed_cqes").set(lib.wbs.absorbed_cqes)

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
                    self.gauge(f"resilience.{name}").set(value)
            # Heartbeat-detector behaviour (per-peer misses, suspicion
            # transitions, flap count) is part of the digested surface:
            # all three are simulated-time event counts, never wall-clock
            # quantities.  Peers whose counters are all zero emit nothing,
            # so fault-free runs keep their pre-existing digests
            # byte-identical (same trick as the tenant-QoS gauges above).
            detector_stats = getattr(world.control, "detector_stats", None)
            if detector_stats:
                for peer, counts in sorted(detector_stats.items()):
                    if not any(counts.values()):
                        continue
                    for key in ("misses", "suspicions", "flaps"):
                        self.gauge(
                            f"resilience.detector.{peer}.{key}"
                        ).set(counts[key])

    def scrape_fleet(self, fleet) -> None:
        """Fleet state store + fat-tree trunk accounting.

        Part of the digested surface: where containers ended up and how
        many bytes crossed each trunk are *results* of a fleet run, so
        same-seed runs must agree on them bit-for-bit across ``--jobs``
        settings.
        """
        state = fleet.state
        self.gauge("fleet.hosts").set(len(state.hosts))
        self.gauge("fleet.containers").set(len(state.containers))
        self.gauge("fleet.draining").set(len(state.draining))
        for name in state.hosts:
            self.gauge(f"fleet.host.{name}.containers").set(state.load(name))
            self.gauge(f"fleet.host.{name}.qps").set(state.qp_usage(name))
        topology = getattr(fleet, "topology", None)
        if topology is not None:
            for link, port in topology.trunk_ports().items():
                self.gauge(f"fleet.link.{link}.bytes").set(port.bytes_sent)

    def scrape_chaos(self, plan) -> None:
        """Injection counters from a :class:`repro.chaos.FaultPlan`."""
        for name, value in plan.stats.as_dict().items():
            self.gauge(f"chaos.{name}").set(value)
        self.gauge("chaos.rules").set(len(plan.rules))
        self.gauge("chaos.boundaries_seen").set(len(plan.boundaries_seen))

    # -- output ----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Plain dict of every metric (histograms become summary dicts)."""
        out: Dict[str, Any] = {}
        for name, metric in sorted(self._metrics.items()):
            if isinstance(metric, Histogram):
                out[name] = metric.summary()
            else:
                out[name] = metric.value
        return out

    def render(self) -> str:
        """Aligned text table of the snapshot."""
        rows = []
        for name, value in self.snapshot().items():
            if isinstance(value, dict):
                inner = " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                                 for k, v in value.items())
                rows.append((name, inner))
            elif isinstance(value, float):
                rows.append((name, f"{value:.6g}"))
            else:
                rows.append((name, str(value)))
        if not rows:
            return "(no metrics)"
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)
