"""Figure 3: breakdown of MigrRDMA's blackout time.

Reproduces the four subplots: migrating the sender / the receiver, with
and without RDMA pre-setup, sweeping the number of QPs
(``repro.experiments.fig3``).  The paper's claims to reproduce:

- RestoreRDMA grows with #QPs and dominates the no-pre-setup blackout
  (~50 % at the high end),
- pre-setup removes RestoreRDMA entirely, cutting blackout by up to ~58 %,
- DumpOthers grows with #QPs even with pre-setup, faster when migrating
  the sender.  The sender's extra growth is an input, not a result: the
  producer maps 4 staging VMAs per QP into the sender (§5.2's speculation
  that CRIU handles complicated memory structures inefficiently).
"""

import pytest

from bench_common import FULL_MODE, record_result
from repro.experiments import fig3, format_fig3

QP_SWEEP = [16, 64, 256, 1024] if FULL_MODE else [16, 64, 256]


@pytest.fixture(scope="module")
def fig():
    fig = fig3(QP_SWEEP)
    record_result("fig3_blackout_breakdown.txt", *format_fig3(fig))
    return fig


def test_fig3_presetup_removes_restore_rdma(fig):
    for row in fig["rows"]:
        if row["presetup"]:
            assert "RestoreRDMA" not in row["phases"]
        else:
            assert row["phases"]["RestoreRDMA"] > 0


def test_fig3_sender_dump_others_grows_faster(fig):
    dump = {(r["migrate"], r["num_qps"]): r["phases"]["DumpOthers"]
            for r in fig["rows"]}
    for side in ("sender", "receiver"):
        assert [dump[(side, n)] for n in QP_SWEEP] == sorted(
            dump[(side, n)] for n in QP_SWEEP)
    top = QP_SWEEP[-1]
    assert dump[("sender", top)] > dump[("receiver", top)]


def test_fig3_shape_restore_rdma_dominates_at_scale(fig):
    """At the top of the sweep, RestoreRDMA approaches ~half the blackout
    (the paper reports ~50 % at 4096 QPs)."""
    assert fig["restore_rdma_fraction"][1] > 0.30


def test_fig3_shape_presetup_reduces_blackout(fig):
    """Pre-setup reduces blackout substantially (paper: up to 58 %)."""
    assert fig["presetup_reduction"][1] > 0.25
