"""Shared machinery for the paper-reproduction benchmarks.

Each benchmark module regenerates one table or figure from the paper's
evaluation.  Wall-clock timing (what pytest-benchmark reports) is the cost
of running the simulation; the *paper metrics* are simulated-time results,
attached to each benchmark as ``extra_info`` and appended to plain-text
tables under ``benchmarks/results/``.

Sweep sizes default to laptop-friendly ranges; set ``REPRO_BENCH_FULL=1``
for the paper-scale points (4096 QPs etc.).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Optional

from repro import cluster
from repro.apps.perftest import PerftestEndpoint, connect_endpoints
from repro.beds import PerftestBed
from repro.config import Config, default_config
from repro.core import MigrRdmaWorld

RESULTS_DIR = Path(__file__).parent / "results"

FULL_MODE = os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0")

#: result files already (re)started by this pytest session — the first
#: write truncates, so partial re-runs refresh only their own tables.
_touched = set()


def record_result(filename: str, header: str, row: str) -> None:
    """Append a row to a results table, writing the header once per run."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / filename
    if filename not in _touched:
        _touched.add(filename)
        path.write_text(header.rstrip() + "\n")
    with path.open("a") as handle:
        handle.write(row.rstrip() + "\n")


class MigrationScenario(PerftestBed):
    """One migrating perftest container plus its partner: the benchmarks'
    adapter over :class:`repro.beds.PerftestBed` — built and set up in one
    step, with ``presetup`` chosen at construction."""

    def __init__(self, num_qps: int = 16, presetup: bool = True,
                 sender_extra_vmas: int = 0, **bed_kwargs):
        super().__init__(num_qps, **bed_kwargs)
        self.presetup = presetup
        self.run(self.setup(), limit=120.0)
        # perftest's sender allocates extra working memory (staging
        # buffers etc.), making its memory table more complicated than
        # the receiver's — the §5.2 sender/receiver asymmetry.
        for i in range(sender_extra_vmas):
            self.sender.process.space.mmap(4096, tag="data", name=f"staging{i}")

    @property
    def tb(self):
        """The testbed, as the benchmark files spell it: the bed is one."""
        return self

    def run_migration(self, warmup_s: float = 2e-3, settle_s: float = 2e-3):
        """Start traffic, migrate the mover, return the report."""
        return super().run_migration(self.presetup, warmup_s, settle_s)


def breakdown_row(label: str, report) -> Dict[str, float]:
    phases = dict(report.breakdown.ordered())
    return {
        "label": label,
        "DumpRDMA_ms": phases.get("DumpRDMA", 0.0) * 1e3,
        "DumpOthers_ms": phases.get("DumpOthers", 0.0) * 1e3,
        "Transfer_ms": phases.get("Transfer", 0.0) * 1e3,
        "RestoreRDMA_ms": phases.get("RestoreRDMA", 0.0) * 1e3,
        "FullRestore_ms": phases.get("FullRestore", 0.0) * 1e3,
        "blackout_ms": report.blackout_s * 1e3,
        "wbs_ms": report.wbs_elapsed_s * 1e3,
    }


def one_to_many_scenario(num_partners: int, msg_size: int = 4096, depth: int = 64,
                         config: Optional[Config] = None):
    """Figure 4(c): the migrated container talks to N partners, one QP each."""
    config = config or default_config()
    tb = cluster.build(config=config, num_partners=num_partners)
    world = MigrRdmaWorld(tb)
    mover = PerftestEndpoint(tb.source, name="tx", world=world, mode="write",
                             msg_size=msg_size, depth=depth)
    partners: List[PerftestEndpoint] = []

    def setup():
        yield from mover.setup(qp_budget=num_partners)
        for i in range(num_partners):
            partner = PerftestEndpoint(tb.partners[i], name=f"rx{i}", world=world,
                                       mode="write", msg_size=msg_size, depth=depth)
            yield from partner.setup(qp_budget=1)
            yield from connect_endpoints(mover, partner, qp_count=1)
            partners.append(partner)

    tb.run(setup(), limit=300.0)
    return tb, world, mover, partners
