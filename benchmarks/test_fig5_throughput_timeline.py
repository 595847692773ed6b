"""Figure 5: partner-side real-time throughput during live migration.

Migrates a container running perftest with 2 MB one-sided WRITEs over 16
QPs while sampling the partner NIC's byte counters on the 5 ms grid the
paper uses (§5.5.2).  Claims to reproduce:

- before and after migration the partner sees (near) line rate,
- the brownout (partial restore / pre-setup) causes only slight dips —
  the RNIC-contention effect first reported by Kong et al.,
- the blackout is a short full stop (~150 ms in the paper's setup),
- migrating the receiver dips slightly more than migrating the sender
  (the partner then transmits while pre-establishing connections).
"""

import pytest

from bench_common import MigrationScenario, record_result
from repro.obs import ThroughputSampler

MSG_SIZE = 2 * 1024 * 1024
NUM_QPS = 16
DEPTH = 8

HEADER = (f"{'case':<10} {'steady_gbps':>12} {'brownout_gbps':>14} "
          f"{'dip':>7} {'blackout_ms':>12} {'recovered_gbps':>15}")


def run_timeline(migrate: str):
    scenario = MigrationScenario(num_qps=NUM_QPS, msg_size=MSG_SIZE, depth=DEPTH,
                                 mode="write", migrate=migrate)
    tb = scenario.tb
    partner_nic = tb.partners[0].rnic
    direction = "rx" if migrate == "sender" else "tx"
    sampler = ThroughputSampler.for_nic(tb.sim, partner_nic, interval_s=5e-3)
    sampler.start()
    report = scenario.run_migration(warmup_s=0.25, settle_s=0.3)
    sampler.stop()
    return report, sampler, direction


def analyze(report, sampler, direction):
    steady = sampler.mean_gbps(0.05, report.t_start, direction=direction)
    # Brownout: the worst 5 ms sample while the service is still up
    # (pre-copy + pre-setup, i.e. migration start to suspension).
    brownout = min(
        (s.rx_gbps if direction == "rx" else s.tx_gbps)
        for s in sampler.samples
        if report.t_start + 5e-3 < s.time_s < report.t_suspend)
    blackout_intervals = [
        (start, end) for start, end in sampler.blackout_intervals(
            threshold_gbps=1.0, direction=direction)
        if end > report.t_freeze - 0.02 and start < report.t_resume + 0.02
    ]
    blackout_ms = sum((end - start) for start, end in blackout_intervals) * 1e3
    recovered = sampler.mean_gbps(report.t_resume + 0.05, report.t_resume + 0.25,
                                  direction=direction)
    return steady, brownout, blackout_ms, recovered


@pytest.mark.parametrize("migrate", ["sender", "receiver"])
def test_fig5_partner_throughput_timeline(benchmark, migrate):
    report, sampler, direction = benchmark.pedantic(
        lambda: run_timeline(migrate), rounds=1, iterations=1)
    steady, brownout, blackout_ms, recovered = analyze(report, sampler, direction)
    dip = 1 - brownout / steady
    benchmark.extra_info.update(steady_gbps=steady, brownout_gbps=brownout,
                                blackout_ms=blackout_ms, recovered_gbps=recovered)
    record_result(
        "fig5_throughput_timeline.txt", HEADER,
        f"{migrate:<10} {steady:>12.1f} {brownout:>14.1f} {dip:>7.1%} "
        f"{blackout_ms:>12.1f} {recovered:>15.1f}")
    # Timeline series (for plotting), decimated to 20 ms.
    series = [f"{s.time_s:.3f}:{(s.rx_gbps if direction == 'rx' else s.tx_gbps):.1f}"
              for i, s in enumerate(sampler.samples) if i % 4 == 0]
    record_result(f"fig5_timeline_{migrate}.txt",
                  f"# time_s:gbps series, migrate={migrate}",
                  " ".join(series))

    # Paper shapes.
    assert steady > 70.0  # 2MB writes run near line rate
    assert 0.01 < dip < 0.35  # brownout is a slight dip, not an outage
    assert 20.0 < blackout_ms < 400.0  # a short full stop
    assert recovered > 0.9 * steady  # full recovery after migration


def test_fig5_receiver_migration_dips_more(benchmark):
    """Fig 5(b): the transmitting partner feels pre-setup more."""

    def run_both():
        out = {}
        for migrate in ("sender", "receiver"):
            report, sampler, direction = run_timeline(migrate)
            steady, brownout, _blk, _rec = analyze(report, sampler, direction)
            out[migrate] = 1 - brownout / steady
        return out

    dips = benchmark.pedantic(run_both, rounds=1, iterations=1)
    benchmark.extra_info.update(dips)
    record_result(
        "fig5_throughput_timeline.txt", HEADER,
        f"# brownout dip: migrate-sender {dips['sender']:.2%} vs "
        f"migrate-receiver {dips['receiver']:.2%}")
    assert dips["receiver"] >= dips["sender"] * 0.8  # at least comparable
