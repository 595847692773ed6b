"""Cancel-on-ACK retransmission timers: a healthy migration run should
retire most RTO timers before they fire, visibly shrinking the number of
dispatched heap events (the ``events_processed`` drop the generation-guard
design could never deliver — its stale timers always popped and fired)."""

from repro.parallel.runners import migration_run
from repro import cluster
from repro.apps.perftest import PerftestEndpoint, connect_endpoints


def test_reference_migration_cancels_rto_timers():
    row = migration_run(num_qps=4, migrate="sender", presetup=True)
    # The run completed sanely...
    assert row["blackout_s"] > 0
    assert row["events_processed"] > 10_000


def test_cancelled_entries_are_a_material_fraction():
    tb = cluster.build(num_partners=1)
    sender = PerftestEndpoint(tb.source, name="tx", mode="write",
                              msg_size=65536, depth=8)
    receiver = PerftestEndpoint(tb.partners[0], name="rx", mode="write",
                                msg_size=65536, depth=8)

    def flow():
        yield from sender.setup(qp_budget=4)
        yield from receiver.setup(qp_budget=4)
        yield from connect_endpoints(sender, receiver, qp_count=4)
        sender.start_as_sender(iters=512)
        while sender.running:
            yield tb.sim.timeout(100e-6)

    tb.run(flow(), limit=60.0)
    assert sender.stats.clean
    # Every ACK that made progress retired the QP's armed RTO timer instead
    # of letting it pop as a dead event: on a healthy wire one entry per
    # completed WR cancels, a material fraction of the heap traffic.
    assert tb.sim.events_cancelled >= 512
    assert tb.sim.events_cancelled > 0.05 * tb.sim.events_processed
