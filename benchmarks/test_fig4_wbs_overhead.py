"""Figure 4: overhead of wait-before-stop (queue depth 64).

Three sweeps, as in the paper: (a) number of QPs, (b) message size,
(c) number of partners (one-to-many perftest extension), run by
``repro.experiments.fig4``.  For each point: the measured WBS elapsed
time, the theoretical drain time ``inflight_bytes / link_rate`` (the
paper's footnote 2), and the communication blackout it is part of.

Claims to reproduce:

- WBS contributes little to the communication blackout,
- measured WBS tracks (and can undercut) the wire-drain theory for large
  inflight volumes,
- at 512 B the CPU cost of the WBS thread dominates: measured is a small
  multiple (~6x in the paper) of the tiny theoretical drain.

WBS duration does not depend on whether RDMA pre-setup is enabled, so the
sweeps run the no-pre-setup workflow (far fewer simulated messages);
a cross-check point verifies the equivalence.
"""

import pytest

from bench_common import FULL_MODE, record_result
from repro.experiments import fig4, format_fig4

QP_SWEEP = [1, 4, 16, 64] + ([256] if FULL_MODE else [])


@pytest.fixture(scope="module")
def fig():
    fig = fig4(qps=QP_SWEEP)
    record_result("fig4_wbs_overhead.txt", *format_fig4(fig))
    return fig


def _sweep(fig, name):
    return [row for row in fig["rows"] if row["sweep"] == name]


def test_fig4a_wbs_vs_qps(fig):
    for row in _sweep(fig, "qps"):
        # WBS is a small part of the communication blackout ...
        assert row["wbs_elapsed_s"] < 0.5 * row["comm_blackout_s"]
        # ... and within a small factor of the wire-drain theory.
        assert row["wbs_elapsed_s"] < 10 * row["theory_s"] + 50e-6


def test_fig4b_wbs_vs_message_size(fig):
    for row in _sweep(fig, "msgsize"):
        if row["point"] <= 512:
            # The paper's 512 B point: CPU cost dominates, measured >> theory.
            assert row["ratio"] > 2.0
        else:
            assert row["ratio"] < 4.0


def test_fig4c_wbs_vs_partners(fig):
    for row in _sweep(fig, "partners"):
        assert row["wbs_elapsed_s"] < 0.5 * row["comm_blackout_s"]


def test_fig4_crosscheck_presetup_independent(fig):
    """WBS elapsed is (nearly) the same with and without pre-setup."""
    with_pre, without = fig["crosscheck_wbs_s"]
    assert with_pre == pytest.approx(without, rel=0.6)
