"""§6: MigrRDMA vs MigrOS stop-and-copy comparison.

MigrOS needs RNIC modifications that do not exist in silicon, so — exactly
like the paper — the comparison combines a measured MigrRDMA migration
with an analytic model of MigrOS's extra stop-and-copy work (per-QP STOP
transition, context extraction and injection): ``repro.experiments.migros``.
Claim to reproduce: the MigrOS blackout is longer, and the gap widens with
the number of QPs.
"""

import pytest

from bench_common import FULL_MODE, record_result
from repro.experiments import format_migros, migros

QP_SWEEP = [16, 64, 256] if not FULL_MODE else [16, 64, 256, 1024]


@pytest.fixture(scope="module")
def rows():
    table = migros(QP_SWEEP)
    record_result("sec6_migros_comparison.txt", *format_migros(table))
    return table["rows"]


def test_sec6_migros_blackout_comparison(rows):
    for row in rows:
        assert row["migros_blackout_s"] > row["migrrdma_blackout_s"]


def test_sec6_gap_widens_with_qps(rows):
    assert rows[-1]["migros_slowdown"] > rows[0]["migros_slowdown"]
