"""Figure 6: migration of RDMA-based Hadoop (§5.6).

Runs TestDFSIO and EstimatePI under three maintenance strategies —
baseline (no maintenance), MigrRDMA live migration, and Hadoop's native
heartbeat failover — and reports DFSIO throughput and job completion
times (``repro.experiments.fig6``).  Claims to reproduce:

- MigrRDMA adds only a few seconds to the JCT (the paper: +3 s) versus
  ~20 s for failover (detection timeout + backup start + log replay),
- DFSIO throughput loss is modest with MigrRDMA (~12.5 % in the paper)
  versus a large loss (up to 65.8 %) with failover.

``REPRO_BENCH_FULL=1`` runs the paper-scale job; the default scales the
job down ~4x (``experiments fig6 --fast``: same shape, same mechanisms).
"""

import pytest

from bench_common import FULL_MODE, record_result
from repro.experiments import fig6, format_fig6


@pytest.fixture(scope="module")
def cells():
    fig = fig6(fast=not FULL_MODE)
    record_result("fig6_hadoop.txt", *format_fig6(fig))
    return {(row["task"], row["scenario"]): row for row in fig["rows"]}


def test_fig6a_dfsio_throughput(cells):
    # Figure 6(a): modest loss with MigrRDMA, large loss with failover.
    migr_loss = cells[("dfsio", "migrrdma")]["tput_loss"]
    assert migr_loss < 0.30
    assert cells[("dfsio", "failover")]["tput_loss"] > 2 * migr_loss


@pytest.mark.parametrize("task", ["dfsio", "estimatepi"])
def test_fig6bc_jct(cells, task):
    # Figure 6(b)/(c): a few extra seconds vs ~20 s of failover recovery.
    migr = cells[(task, "migrrdma")]["extra_s"]
    fail = cells[(task, "failover")]["extra_s"]
    assert 0 < migr < 6.0
    assert fail > 2 * migr


def test_fig6_migration_blackout_is_small(cells):
    assert cells[("dfsio", "migrrdma")]["blackout_s"] < 1.0
