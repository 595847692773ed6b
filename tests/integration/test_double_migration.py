"""Integration: both endpoints of a connection migrate (§3.1).

The paper supports concurrent migration of two mutually-connected
services.  Here both endpoints migrate during one run (back to back, the
deterministic schedule); after both moved, the same virtual QPs keep
carrying traffic with full correctness.  Also covers migrating the same
container twice (A -> B is a normal migration; the restored container is a
first-class citizen and can move again).
"""

import pytest

from repro import cluster
from repro.apps.perftest import PerftestEndpoint, connect_endpoints
from repro.core import LiveMigration, MigrRdmaWorld


def build(num_partners=2):
    tb = cluster.build(num_partners=num_partners)
    world = MigrRdmaWorld(tb)
    return tb, world


class TestBothSidesMigrate:
    def test_sender_then_receiver_migrate(self):
        tb, world = build(num_partners=2)
        sender = PerftestEndpoint(tb.source, name="tx", world=world,
                                  mode="write", msg_size=16384, depth=8)
        receiver = PerftestEndpoint(tb.partners[0], name="rx", world=world,
                                    mode="write", msg_size=16384, depth=8)

        def setup():
            yield from sender.setup(qp_budget=2)
            yield from receiver.setup(qp_budget=2)
            yield from connect_endpoints(sender, receiver, qp_count=2)

        tb.run(setup())
        sender.start_as_sender()

        def flow():
            yield tb.sim.timeout(5e-3)
            # First: the sender moves source -> destination.
            first = LiveMigration(world, sender.container, tb.destination)
            report1 = yield from first.run()
            yield tb.sim.timeout(10e-3)
            # Then: the receiver moves partner0 -> partner1.
            second = LiveMigration(world, receiver.container, tb.partners[1])
            report2 = yield from second.run()
            yield tb.sim.timeout(10e-3)
            sender.stop()
            yield tb.sim.timeout(5e-3)
            return report1, report2

        report1, report2 = tb.run(flow(), limit=300.0)
        assert sender.stats.clean, (sender.stats.order_errors[:3],
                                    sender.stats.status_errors[:3])
        assert sender.container.server is tb.destination
        assert receiver.container.server is tb.partners[1]
        assert sender.stats.completed > 0
        assert not report1.wbs_timed_out and not report2.wbs_timed_out
        assert not tb.sim.failed_processes, tb.sim.failed_processes[:3]

    def test_migrate_twice(self):
        """A restored container is migratable again (dest -> partner1)."""
        tb, world = build(num_partners=2)
        sender = PerftestEndpoint(tb.source, name="tx", world=world,
                                  mode="write", msg_size=16384, depth=8)
        receiver = PerftestEndpoint(tb.partners[0], name="rx", world=world,
                                    mode="write", msg_size=16384, depth=8)

        def setup():
            yield from sender.setup(qp_budget=1)
            yield from receiver.setup(qp_budget=1)
            yield from connect_endpoints(sender, receiver, qp_count=1)

        tb.run(setup())
        sender.start_as_sender()

        def flow():
            yield tb.sim.timeout(5e-3)
            hop1 = LiveMigration(world, sender.container, tb.destination)
            yield from hop1.run()
            yield tb.sim.timeout(10e-3)
            hop2 = LiveMigration(world, sender.container, tb.partners[1])
            report = yield from hop2.run()
            yield tb.sim.timeout(10e-3)
            sender.stop()
            yield tb.sim.timeout(5e-3)
            return report

        tb.run(flow(), limit=300.0)
        assert sender.stats.clean, (sender.stats.order_errors[:3],
                                    sender.stats.status_errors[:3])
        assert sender.container.server is tb.partners[1]
        assert not tb.sim.failed_processes, tb.sim.failed_processes[:3]


class TestResponderConnectionState:
    """A responder keeps one ``_ConnState`` per requester QP it hears from.
    Migrating the requester away and back again ("rolling it back" after
    switchover) shows the old requester's ssn stream never reaches the
    partner again: its QP is destroyed, the requester that replaces it
    gets a fresh QPN, and the partner QP that answered it is destroyed at
    switchover.  So the partner drops that state with the QP."""

    def test_old_requester_stream_is_gone_after_migrating_back(self):
        from repro.beds import PerftestBed

        bed = PerftestBed(4, verify_content=True)  # migrate_fanout's shape
        bed.run(bed.setup())
        source, partner = bed.source.rnic, bed.partners[0].rnic
        first_keys = {(bed.source.name, qpn) for qpn in source.qps}
        bed.start_traffic()

        def live_remotes():
            return {(qp.remote_node, qp.remote_qpn) for qp in partner.qps.values()}

        def flow():
            yield bed.sim.timeout(2e-3)
            there = yield from bed.migrate()
            yield bed.sim.timeout(2e-3)
            # migrate_fanout's end state: one entry per live connection
            assert set(partner._conn_state) == live_remotes()
            assert len(partner._conn_state) == 4
            back = yield from LiveMigration(bed.world, bed.mover.container,
                                            bed.source).run()
            yield bed.sim.timeout(2e-3)
            yield from bed.quiesce()
            return there, back

        there, back = bed.run(flow(), limit=100.0)
        assert there.failure is None and back.failure is None
        assert bed.mover.container.server is bed.source
        assert bed.sender.stats.clean
        # The old requesters are gone and their QPNs are not reused ...
        assert not first_keys & {(bed.source.name, qpn) for qpn in source.qps}
        # ... and no live responder QP on the partner answers them.
        live = live_remotes()
        assert len(live) == 4 and not first_keys & live
        # One connection state per live responder QP, none for dead ones.
        assert set(partner._conn_state) == live
        assert not source._conn_state and not bed.destination.rnic._conn_state
