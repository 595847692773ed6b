"""Idle-poll fast-forward on the real stack (DESIGN.md §12.5).

Each scenario runs twice: as shipped, where idle loops park, and with every
cycle ledger's waiter slot occupied, which keeps every loop spinning — the
behaviour before the fast-forward.  One test per wake source checks that
the two agree on what happened, when, on every ledger and on the kernel's
counts, and that the parked run really parked.
"""

import pytest

from repro import cluster
from repro.apps.kvstore import KvClient, KvServer, connect_kv
from repro.apps.perftest import PerftestEndpoint, connect_endpoints
from repro.chaos.torture import quiesce
from repro.core import LiveMigration, MigrRdmaWorld
from repro.metrics.cycles import CpuContext
from repro.obs import Tracer
from repro.rnic.errors import CQError


def both_ways(scenario):
    """Run ``scenario(mode)`` parked, then spinning, and require the same
    observations.  'spinning' occupies every ledger's waiter slot, so no
    loop can park."""
    observed = {}
    for mode in ("parked", "spinning"):
        with pytest.MonkeyPatch.context() as patch:
            if mode == "spinning":
                init = CpuContext.__init__

                def occupied_init(self, *args, **kwargs):
                    init(self, *args, **kwargs)
                    self.idle_waiter = lambda tick_first: None

                patch.setattr(CpuContext, "__init__", occupied_init)
            observed[mode] = scenario(mode)
    assert observed["parked"] == observed["spinning"]


def traced(tb):
    tb.tracer = Tracer(tb.sim).attach()
    return tb


def parks(tb, server):
    """Instants (simulated s) at which loops on ``server`` parked: the
    ``idle-park`` marks on its verbs lane."""
    lane = tb.tracer.lane(server.name, "verbs")
    return [event[3] / 1e6 for event in tb.tracer.events()
            if event[1] is lane and event[2] == "idle-park"]


def ledger(*endpoints):
    out = []
    for ep in endpoints:
        cpu = ep.process.cpu
        out.append((ep.name, cpu.total_cycles, dict(cpu.cycles_by_op),
                    dict(cpu.count_by_op), cpu._accrued_cycles, cpu._rng.random()))
    return out


def kernel(sim):
    return sim.now, sim.events_processed, sim.events_cancelled


def phys(ep):
    return getattr(ep.cq, "_phys", ep.cq)


def perftest_pair(world_cls=None, mode_="send", depth=4, msg_size=4096):
    tb = traced(cluster.build())
    world = world_cls(tb) if world_cls else None
    sender = PerftestEndpoint(tb.source, name="tx", world=world, mode=mode_,
                              msg_size=msg_size, depth=depth)
    receiver = PerftestEndpoint(tb.partners[0], name="rx", world=world,
                                mode=mode_, msg_size=msg_size, depth=depth)

    def setup():
        yield from sender.setup(qp_budget=1)
        yield from receiver.setup(qp_budget=1)
        yield from connect_endpoints(sender, receiver, qp_count=1)

    tb.run(setup())
    return tb, world, sender, receiver


class TestWakeSources:
    def test_push_and_stop(self):
        """An idle receiver parks; the first CQE wakes it at the tick the
        spinning loop would have seen it; stop() ends it at its next tick."""
        def scenario(mode):
            tb, _, sender, receiver = perftest_pair()
            handled = []
            handle = receiver._handle_recv_wc
            receiver._handle_recv_wc = lambda conn, wc: (
                handled.append((tb.sim.now, wc.wr_id)), handle(conn, wc))

            def flow():
                receiver.start_as_receiver()
                yield tb.sim.timeout(80e-6)
                parked_while_idle = receiver._park is not None
                sender.start_as_sender(iters=6)
                yield tb.sim.timeout(120e-6)
                sender.stop()
                receiver.stop()
                yield tb.sim.timeout(5e-6)
                return parked_while_idle

            assert tb.run(flow()) == (mode == "parked")
            assert len(handled) == 6 and receiver.stats.clean
            assert not sender.process.live_sim_processes()
            assert not receiver.process.live_sim_processes()
            assert bool(parks(tb, tb.partners[0])) == (mode == "parked")
            if mode == "parked":
                assert tb.sim.events_credited > 70  # ~80 idle ticks before traffic
            return handled, ledger(sender, receiver), kernel(tb.sim)

        both_ways(scenario)

    def test_freeze_interrupt(self):
        """Freezing a container whose loop is parked replays the skipped
        polls and accounts for the timeout the spinning loop had pending."""
        def scenario(mode):
            tb, _, sender, receiver = perftest_pair()

            def flow():
                receiver.start_as_receiver()
                yield tb.sim.timeout(40.25e-6)
                receiver.container.freeze()
                yield tb.sim.timeout(10e-6)

            tb.run(flow())
            assert receiver._park is None and phys(receiver).waiter is None
            assert not receiver.process.live_sim_processes()
            assert tb.sim.events_cancelled == 1
            assert len(parks(tb, tb.partners[0])) == (mode == "parked")
            return ledger(receiver), kernel(tb.sim)

        both_ways(scenario)

    def test_foreign_drain_from_quiesce(self):
        """quiesce() polls every endpoint from its own process: each foreign
        poll draws from the endpoint's jitter stream, so a parked loop must
        replay its skipped polls first."""
        def scenario(mode):
            tb, _, sender, receiver = perftest_pair()

            def flow():
                receiver.start_as_receiver()
                sender.start_as_sender(iters=40)
                yield tb.sim.timeout(300e-6)
                drained = yield from quiesce(tb, [sender, receiver])
                return drained

            assert tb.run(flow()) is True
            assert sender.stats.completed == receiver.stats.recv_completed == 40
            assert bool(parks(tb, tb.source)) == bool(parks(tb, tb.partners[0])) == (mode == "parked")
            return ledger(sender, receiver), kernel(tb.sim)

        both_ways(scenario)

    def test_cq_destroy_raises_at_the_same_instant(self):
        """Destroying the CQ under a parked loop wakes it: its next tick
        polls the destroyed CQ and dies with CQError, when the spinner would."""
        def scenario(mode):
            tb, _, sender, receiver = perftest_pair()
            raised_at = []
            cq = phys(receiver)
            poll = cq.poll

            def recording_poll(max_entries=1):
                try:
                    return poll(max_entries)
                except CQError:
                    raised_at.append(tb.sim.now)
                    raise

            cq.poll = recording_poll

            def flow():
                receiver.start_as_receiver()
                yield tb.sim.timeout(33.3e-6)
                cq.destroy()
                yield tb.sim.timeout(10e-6)

            tb.run(flow())
            assert len(raised_at) == 1
            (name, error), = tb.sim.failed_processes
            assert name == "rx:rx" and isinstance(error, CQError)
            assert receiver._park is None and cq.waiter is None
            assert len(parks(tb, tb.partners[0])) == (mode == "parked")
            return raised_at, ledger(receiver), kernel(tb.sim)

        both_ways(scenario)

    def test_cqe_during_wbs_surfaces_through_the_fake_cq(self):
        """The migrating sender waits parked on a full window; during
        wait-before-stop its CQEs are pushed to the physical CQ (waking
        it), absorbed by the WBS thread, and polled from the fake CQ."""
        def scenario(mode):
            tb, world, sender, receiver = perftest_pair(
                world_cls=MigrRdmaWorld, mode_="write", depth=4, msg_size=1 << 20)
            sender.start_as_sender()

            def flow():
                yield tb.sim.timeout(2e-3)
                report = yield from LiveMigration(world, sender.container,
                                                  tb.destination).run()
                yield tb.sim.timeout(2e-3)
                yield from quiesce(tb, [sender, receiver])
                return report

            report = tb.run(flow(), limit=300.0)
            assert not report.aborted and sender.stats.clean
            assert sender.container.server is tb.destination
            wbs_absorbed = sender.lib.wbs.absorbed_cqes
            assert wbs_absorbed > 0
            in_wbs = [t for t in parks(tb, tb.source)
                      if report.t_suspend < t < report.t_suspend + report.wbs_elapsed_s]
            assert bool(in_wbs) == (mode == "parked")
            return (sender.stats.completed, wbs_absorbed, report.blackout_s,
                    ledger(sender), kernel(tb.sim))

        both_ways(scenario)


class TestNeverParks:
    def build_kv(self, **client_kwargs):
        tb = traced(cluster.build())
        kv = KvServer(tb.partners[0], name="kv")
        client = KvClient(tb.source, kv, name="kv-c0", seed=7, **client_kwargs)

        def setup():
            yield from kv.setup(client_budget=1)
            kv.preload(client.keyspace, 32)
            yield from client.setup()
            yield from connect_kv(kv, client)

        tb.run(setup())
        return tb, kv, client

    def test_only_provably_inert_ticks_park(self):
        # A paced client may issue on every tick.
        tb, kv, client = self.build_kv(depth=2, pace_s=5e-6)
        kv.start()
        client.start()
        tb.sim.run(until=tb.sim.now + 300e-6)
        assert client.stats.gets + client.stats.puts > 10
        assert not parks(tb, tb.source)
        assert parks(tb, tb.partners[0])  # the idle server does

        # A client with window room (iterations exhausted below depth).
        tb, kv, client = self.build_kv(depth=4)
        kv.start()
        client.start(iters=2)
        tb.sim.run(until=tb.sim.now + 300e-6)
        assert not client.running and len(client.kv_history) + len(client.kv_cas) == 2
        assert not parks(tb, tb.source)

        # ... while the same client with a full window does park.
        tb, kv, client = self.build_kv(depth=4)
        kv.start()
        client.start()
        tb.sim.run(until=tb.sim.now + 300e-6)
        assert parks(tb, tb.source)

        # A sender whose idle-tick refill posts is not inert on that tick.
        for refill_posts in (True, False):
            tb, _, sender, receiver = perftest_pair()  # no RECVs: RNR, no CQEs
            if refill_posts:
                sender._refill = lambda: 1
            sender.start_as_sender()
            tb.sim.run(until=tb.sim.now + 100e-6)
            assert bool(parks(tb, tb.source)) != refill_posts


def test_tracer_shows_the_parked_interval():
    tb, _, sender, receiver = perftest_pair()

    def flow():
        receiver.start_as_receiver()
        yield tb.sim.timeout(50e-6)
        receiver.stop()
        yield tb.sim.timeout(5e-6)

    tb.run(flow())
    lane = tb.tracer.lane("partner0", "verbs")
    marks = [(event[2], event[4]) for event in tb.tracer.events()
             if event[1] is lane and event[2].startswith("idle-")]
    assert marks[0] == ("idle-park", None)
    skipped = [args["skipped"] for name, args in marks if name == "idle-wake"]
    assert skipped and sum(skipped) == tb.sim.events_credited > 40


def test_cq_waiter_slot_reports_the_tie_rule():
    """push: the CQE is already pollable, and a tick due now ran first;
    destroy: the caller's event may be older than the tick."""
    from repro.rnic.constants import Opcode, WCStatus
    from repro.rnic.cq import CQ, WorkCompletion
    from repro.sim import Simulator

    cq = CQ(Simulator(), 4)
    calls = []
    cq.waiter = lambda tick_first: calls.append((tick_first, len(cq), cq.destroyed))
    cq.push(WorkCompletion(wr_id=1, status=WCStatus.SUCCESS, opcode=Opcode.RECV, qp_num=1))
    cq.destroy()
    assert calls == [(True, 1, False), (False, 0, True)]
