"""Figure 5: partner-side real-time throughput during live migration.

Migrates a container running perftest with 2 MB one-sided WRITEs over 16
QPs while sampling the partner NIC's byte counters on the 5 ms grid the
paper uses (§5.5.2), via ``repro.experiments.fig5``.  Claims to
reproduce:

- before and after migration the partner sees (near) line rate,
- the brownout (partial restore / pre-setup) causes only slight dips —
  the RNIC-contention effect first reported by Kong et al.,
- the blackout is a short full stop (~150 ms in the paper's setup),
- migrating the receiver dips slightly more than migrating the sender
  (the partner then transmits while pre-establishing connections).
"""

import pytest

from bench_common import record_result
from repro.experiments import fig5, format_fig5, format_fig5_series


@pytest.fixture(scope="module")
def fig():
    fig = fig5()
    record_result("fig5_throughput_timeline.txt", *format_fig5(fig))
    for row in fig["rows"]:
        record_result(f"fig5_timeline_{row['migrate']}.txt",
                      *format_fig5_series(row))
    return fig


def test_fig5_partner_throughput_timeline(fig):
    for row in fig["rows"]:
        assert row["steady_gbps"] > 70.0  # 2MB writes run near line rate
        assert 0.01 < row["dip"] < 0.35  # a slight dip, not an outage
        assert 20.0 < row["stalled_ms"] < 400.0  # a short full stop
        # full recovery after migration
        assert row["recovered_gbps"] > 0.9 * row["steady_gbps"]


def test_fig5_receiver_migration_dips_more(fig):
    """Fig 5(b): the transmitting partner feels pre-setup more."""
    dips = {row["migrate"]: row["dip"] for row in fig["rows"]}
    assert dips["receiver"] >= dips["sender"] * 0.8  # at least comparable
