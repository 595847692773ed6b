"""Shared machinery for the paper-reproduction benchmarks.

Each paper benchmark module runs one producer of :mod:`repro.experiments`
(the function ``python -m repro.experiments <fig>`` prints), writes its
formatted lines to a plain-text table under ``benchmarks/results/`` and
asserts the paper's shape claims on the returned rows.

Sweep sizes default to laptop-friendly ranges; set ``REPRO_BENCH_FULL=1``
for the paper-scale points (4096 QPs etc.).
"""

from __future__ import annotations

import os
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"

FULL_MODE = os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0")

#: result files already (re)started by this pytest session — the first
#: write truncates, so partial re-runs refresh only their own tables.
_touched = set()


def record_result(filename: str, header: str, *rows: str) -> None:
    """Append rows to a results table, writing the header once per run."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / filename
    if filename not in _touched:
        _touched.add(filename)
        path.write_text(header.rstrip() + "\n")
    with path.open("a") as handle:
        for row in rows:
            handle.write(row.rstrip() + "\n")
