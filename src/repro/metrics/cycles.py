"""Per-process CPU cycle accounting.

The data path of verbs (and of MigrRDMA's interposition layer) charges an
explicit cycle cost for every action it performs.  Charges accumulate in a
:class:`CpuContext`; application driver loops periodically convert accrued
cycles into simulated time (``yield sim.timeout(cpu.drain_seconds())``), so
CPU-bound workloads (small messages — the 512 B case of Figure 4b) are
CPU-limited in simulated time exactly as on real hardware, while the cycle
ledger doubles as the measurement source for Table 4.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import CpuConfig


@dataclass
class CycleSample:
    """One sampled operation cost (as perftest's cycle sampling records)."""

    op: str
    cycles: float


class CpuContext:
    """Cycle ledger for one application process (or interposition thread)."""

    def __init__(self, cpu_config: CpuConfig, seed: int = 0, record_samples: bool = False):
        self.config = cpu_config
        self._accrued_cycles = 0.0
        self.total_cycles = 0.0
        self.cycles_by_op: Dict[str, float] = defaultdict(float)
        self.count_by_op: Dict[str, int] = defaultdict(int)
        self.record_samples = record_samples
        self.samples: List[CycleSample] = []
        self._rng = random.Random(seed)
        self._pending_op: str = ""
        self._pending_cycles = 0.0
        #: ``wake(tick_first)`` of the poll loop parked on this ledger
        #: (DESIGN.md §12.5): anyone else's charge must first replay the
        #: polls that loop skipped, or the jitter stream would reorder.
        self.idle_waiter: Optional[Callable[[bool], None]] = None

    # -- charging ---------------------------------------------------------

    def charge(self, op: str, cycles: float) -> None:
        """Charge ``cycles`` with small measurement jitter, booked under ``op``."""
        if self.idle_waiter is not None:
            self.idle_waiter(False)
        noise = self.config.measurement_noise_frac
        if noise:
            # Inlined random.uniform(-noise, noise): uniform(a, b) is
            # a + (b - a) * random(), and noise - (-noise) == noise + noise
            # exactly in IEEE arithmetic, so the RNG stream is unchanged.
            cycles *= 1.0 + (-noise + (noise + noise) * self._rng.random())
        self._accrued_cycles += cycles
        self.total_cycles += cycles
        self.cycles_by_op[op] += cycles
        self.count_by_op[op] += 1
        if self._pending_op:
            self._pending_cycles += cycles

    def charge_base(self, op: str) -> None:
        """Charge the base data-path cost of ``op``: :meth:`charge`, inlined."""
        if self.idle_waiter is not None:
            self.idle_waiter(False)
        config = self.config
        cycles = config.base_cycles[op]
        noise = config.measurement_noise_frac
        if noise:
            cycles *= 1.0 + (-noise + (noise + noise) * self._rng.random())
        self._accrued_cycles += cycles
        self.total_cycles += cycles
        self.cycles_by_op[op] += cycles
        self.count_by_op[op] += 1
        if self._pending_op:
            self._pending_cycles += cycles

    def replay_idle_polls(self, op: str, t_next: float, now: float,
                          tick_first: bool, floor_s: float) -> Tuple[int, float]:
        """Book the empty polls a spinning loop would have made while parked:
        one ``charge_base(op)`` + :meth:`drain_seconds` at ``t_next`` and then
        every ``max(poll cost, floor_s)`` until ``now`` (a tick exactly at
        ``now`` counts only when ``tick_first``), draw for draw and addition
        for addition.  The ledger is drained and outside an operation sample:
        a loop parks in that state and any later charge wakes it first.
        Returns ``(ticks replayed, next tick instant)``."""
        config = self.config
        base = config.base_cycles[op]
        noise = config.measurement_noise_frac
        span = noise + noise
        clock_hz = config.clock_hz
        rand = self._rng.random
        total = self.total_cycles
        by_op = self.cycles_by_op[op]
        ticks = 0
        while t_next < now or (tick_first and t_next == now):
            cycles = base * (1.0 + (-noise + span * rand())) if noise else base
            total += cycles
            by_op += cycles
            ticks += 1
            t_next += max(cycles / clock_hz, floor_s)
        self.total_cycles = total
        self.cycles_by_op[op] = by_op
        self.count_by_op[op] += ticks
        return ticks, t_next

    # -- operation-scoped sampling (perftest extension, §5.5.1) -------------

    def begin_op_sample(self, op: str) -> None:
        self._pending_op = op
        self._pending_cycles = 0.0

    def end_op_sample(self) -> None:
        if self._pending_op and self.record_samples:
            self.samples.append(CycleSample(self._pending_op, self._pending_cycles))
        self._pending_op = ""
        self._pending_cycles = 0.0

    def mean_sample_cycles(self, op: str) -> float:
        values = [s.cycles for s in self.samples if s.op == op]
        if not values:
            raise ValueError(f"no samples recorded for op {op!r}")
        return sum(values) / len(values)

    # -- time conversion ------------------------------------------------------

    def drain_seconds(self) -> float:
        """Return accrued CPU time as seconds and reset the accumulator."""
        seconds = self._accrued_cycles / self.config.clock_hz
        self._accrued_cycles = 0.0
        return seconds

    def mean_cycles(self, op: str) -> float:
        count = self.count_by_op.get(op, 0)
        if count == 0:
            raise ValueError(f"no operations charged under {op!r}")
        return self.cycles_by_op[op] / count
