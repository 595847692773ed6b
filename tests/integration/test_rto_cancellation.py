"""Cancel-on-ACK retransmission timers.

Each RC QP arms one RTO timer while a WR that has left the port is
unacked, and the ACK that makes progress cancels it.  On a healthy wire
no timer fires: every acked WR retires exactly one armed timer, counted
in ``events_cancelled`` and never dispatched, so it adds nothing to
``events_processed``.  (The timers sit on the simulator's fixed-delay
queue, so a cancelled one does not stay in the heap either; DESIGN.md
§12.11.)
"""

from repro import cluster
from repro.apps.perftest import PerftestEndpoint, connect_endpoints
from repro.beds import PerftestBed
from repro.rnic.nic import RNIC


def test_reference_migration_cancels_rto_timers(monkeypatch):
    """The reference migration at 4 QPs: the sender stops and the run
    settles, so every WR it posted is acked, and each ACK cancels the
    timer its WR armed.  RTO cancellations equal the WRs posted; the two
    other cancellations of the run are a timeout and a poll-loop tick.
    No timer is left armed."""
    bed = PerftestBed(4)
    bed.run(bed.setup())
    sim = bed.sim
    cancelled = {}  # callback -> entries cancelled
    cancel = sim.cancel

    def counting_cancel(entry):
        callback = entry[2]
        done = cancel(entry)
        if done:
            key = getattr(callback, "__func__", callback)
            cancelled[key] = cancelled.get(key, 0) + 1
        return done

    monkeypatch.setattr(sim, "cancel", counting_cancel)
    report = bed.run_migration(presetup=True)
    assert report.blackout_s > 0
    assert sim.events_processed > 10_000
    posted = sum(conn.next_seq for conn in bed.sender.connections)
    assert posted > 7_000
    assert cancelled[RNIC._rto_expired] == posted
    assert sim.events_cancelled == sum(cancelled.values()) == posted + 2
    assert all(qp.rto_entry is None
               for server in bed.servers for qp in server.rnic.qps.values())


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
