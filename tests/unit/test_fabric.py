"""Unit tests for the fabric: ports, network delivery, loss, TCP channel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import default_config
from repro.fabric import Message, Network, Port, TcpChannel
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def net(sim):
    network = Network(sim, default_config())
    network.add_node("a")
    network.add_node("b")
    return network


class TestPort:
    def test_serialization_time(self, sim, net):
        port = net.node("a").port
        # 100 Gbps: 12500 bytes take 1 us.
        assert port.serialization_time(12500) == pytest.approx(1e-6)

    def test_transmissions_serialize(self, sim, net):
        port = net.node("a").port
        done = []
        port.transmit_cb(12500, lambda: done.append(sim.now))
        port.transmit_cb(12500, lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(1e-6), pytest.approx(2e-6)]

    def test_bytes_counter(self, sim, net):
        port = net.node("a").port
        port.transmit(1000)
        port.transmit(2000)
        sim.run()
        assert port.bytes_sent == 3000

    def test_bad_rate_rejected(self, sim):
        with pytest.raises(ValueError):
            Port(sim, 0)


def _run_port_script(form, script):
    """Drive one toy port with ``script`` = [(gap_us, size_bytes), ...]:
    transmission ``i`` arrives ``gap_us`` after the previous one and
    completes through ``form`` (event, cb or deferred).  Around every
    transmit call two unrelated markers are scheduled for the instant an
    idle port would finish it, so wire-dones collide with foreign entries.
    Returns (log, events_processed, events_credited)."""
    sim = Simulator()
    port = Port(sim, rate_bps=8e9)  # 1000 B = 1 us
    log = []

    def done(i):
        log.append(("done", i, sim.now))

    def marker(tag):
        log.append(("marker", tag, sim.now))

    def arrive(i, size):
        idle_finish = size * 8.0 / port.rate_bps
        sim.schedule(idle_finish, marker, (i, "before"))
        if form == "event":
            port.transmit(size).add_callback(lambda _event: done(i))
        elif form == "cb":
            port.transmit_cb(size, done, i)
        else:
            port.transmit_deferred(size, done, i)
        sim.schedule(idle_finish, marker, (i, "after"))

    at = 0.0
    for i, (gap_us, size) in enumerate(script):
        at += gap_us * 1e-6
        sim.schedule(at, arrive, i, size)
    sim.run()
    return log, sim.events_processed, sim.events_credited


class TestPortCompletionForms:
    """Event, callback-only and deferred-callback completions are one
    port model: same wire-done instants, same order of everything else
    scheduled for those instants, same ``events_processed``."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2),
                              st.sampled_from([0, 1000, 2000, 2500])),
                    min_size=1, max_size=8))
    def test_three_forms_agree(self, script):
        event_log, event_processed, event_credited = _run_port_script("event", script)
        cb_log, cb_processed, cb_credited = _run_port_script("cb", script)
        deferred_log, deferred_processed, deferred_credited = \
            _run_port_script("deferred", script)

        def dones(log):
            return sorted(entry[1:] for entry in log if entry[0] == "done")

        def markers(log):
            return [entry for entry in log if entry[0] == "marker"]

        # The deferred callback sits in exactly the event's heap slot.
        assert deferred_log == event_log
        # Callback-only runs inside the finish event, one slot earlier:
        # same instants, and nothing unrelated changes place.
        assert dones(cb_log) == dones(event_log)
        assert markers(cb_log) == markers(event_log)
        assert len(dones(event_log)) == len(script)
        assert event_processed == cb_processed == deferred_processed
        # Only the listener-less wire-done is elided, and it is credited.
        assert (event_credited, cb_credited, deferred_credited) == (0, len(script), 0)


class TestNetwork:
    def test_delivery_includes_propagation(self, sim, net):
        received = []
        net.node("b").register_handler("test", lambda m: received.append(sim.now))
        net.node("a").send(Message("a", "b", "test", 12500))
        sim.run()
        # 1 us serialization + 1 us propagation
        assert received == [pytest.approx(2e-6)]

    def test_unknown_destination_rejected(self, sim, net):
        with pytest.raises(LookupError):
            net.node("a").send(Message("a", "nowhere", "test", 10))

    @pytest.mark.parametrize("src, dst", [("a", "nowhere"), ("nowhere", "b")])
    def test_transmit_raw_rejects_unknown_node(self, sim, net, src, dst):
        """The RNIC's raw injection validates both ends before it counts or
        propagates anything."""
        with pytest.raises(LookupError, match="unknown node 'nowhere'"):
            net.transmit_raw(src, dst, 64, "test", None)
        assert net.messages_sent == 0
        sim.run()
        assert sim.events_processed == 0

    def test_wrong_src_rejected(self, sim, net):
        with pytest.raises(ValueError):
            net.node("a").send(Message("b", "a", "test", 10))

    def test_duplicate_node_rejected(self, sim, net):
        with pytest.raises(ValueError):
            net.add_node("a")

    def test_no_handler_raises_at_delivery(self, sim, net):
        net.node("a").send(Message("a", "b", "unhandled", 10))
        with pytest.raises(LookupError):
            sim.run()

    def test_duplicate_handler_rejected(self, sim, net):
        net.node("b").register_handler("p", lambda m: None)
        with pytest.raises(ValueError):
            net.node("b").register_handler("p", lambda m: None)

    def test_unregister_handler(self, sim, net):
        node = net.node("b")
        node.register_handler("p", lambda m: None)
        node.unregister_handler("p")
        # gone: delivery fails, and the protocol can be registered again
        net.node("a").send(Message("a", "b", "p", 10))
        with pytest.raises(LookupError):
            sim.run()
        node.register_handler("p", lambda m: None)

    def test_unregister_missing_handler_raises(self, sim, net):
        """Symmetric with register_handler's duplicate check: removing a
        handler that was never registered is an error, not a silent pass."""
        with pytest.raises(LookupError):
            net.node("b").unregister_handler("never-registered")

    def test_unregister_missing_ok(self, sim, net):
        net.node("b").unregister_handler("never-registered", missing_ok=True)
        node = net.node("b")
        node.register_handler("p", lambda m: None)
        node.unregister_handler("p", missing_ok=True)
        node.unregister_handler("p", missing_ok=True)  # idempotent

    def test_loss_drops_messages(self, sim, net):
        from repro.chaos import FaultPlan

        FaultPlan(seed=3).drop(0.999).install(net)
        received = []
        net.node("b").register_handler("test", received.append)
        for _ in range(50):
            net.node("a").send(Message("a", "b", "test", 100))
        sim.run()
        assert net.messages_dropped > 0
        assert len(received) < 50

    def test_reset_faults_clears_stale_state(self, sim, net):
        from repro.chaos import FaultPlan

        FaultPlan(seed=1).drop(1.0).install(net)
        net.reset_faults()
        assert net.fault_injector is None
        received = []
        net.node("b").register_handler("test", received.append)
        for _ in range(20):
            net.node("a").send(Message("a", "b", "test", 100))
        sim.run()
        assert len(received) == 20  # nothing leaks into the next scenario

    def test_negative_message_size_rejected(self):
        with pytest.raises(ValueError):
            Message("a", "b", "p", -1)


class TestTcpChannel:
    def test_transfer_time_matches_goodput(self, sim, net):
        channel = TcpChannel(net, "a", "b", rate_bps=40e9)
        nbytes = 100 * 1024 * 1024

        process = sim.spawn(channel.transfer(nbytes))
        elapsed = sim.run_until_complete(process)
        ideal = nbytes * 8 / 40e9
        assert elapsed >= ideal
        assert elapsed < ideal * 1.2

    def test_zero_byte_transfer_costs_overhead_only(self, sim, net):
        channel = TcpChannel(net, "a", "b")
        elapsed = sim.run_until_complete(sim.spawn(channel.transfer(0)))
        assert elapsed == pytest.approx(net.config.migration.per_message_overhead_s)

    def test_transfer_survives_loss(self, sim, net):
        from repro.chaos import FaultPlan

        FaultPlan(seed=5).drop(0.05).install(net)
        channel = TcpChannel(net, "a", "b", rate_bps=40e9)
        nbytes = 8 * 1024 * 1024
        elapsed = sim.run_until_complete(sim.spawn(channel.transfer(nbytes)))
        assert channel.bytes_delivered >= nbytes  # all segments arrived (some twice)
        clean = nbytes * 8 / 40e9
        assert elapsed > clean  # loss inflates the transfer

    def test_rpc_roundtrip(self, sim, net):
        channel = TcpChannel(net, "a", "b")
        channel.set_rpc_handler(lambda request: ({"echo": request}, 128))

        def client():
            response = yield from channel.rpc({"q": 1})
            return response

        assert sim.run_until_complete(sim.spawn(client())) == {"echo": {"q": 1}}

    def test_rpc_without_handler_raises(self, sim, net):
        channel = TcpChannel(net, "a", "b")
        process = sim.spawn(channel.rpc({"q": 1}))
        with pytest.raises(LookupError):
            sim.run_until_complete(process)

    def test_rpc_survives_loss(self, sim, net):
        from repro.chaos import FaultPlan

        FaultPlan(seed=9).drop(0.3).install(net)
        channel = TcpChannel(net, "a", "b")
        calls = []

        def handler(request):
            calls.append(request)
            return ("ok", 64)

        channel.set_rpc_handler(handler)
        result = sim.run_until_complete(sim.spawn(channel.rpc("ping")))
        assert result == "ok"

    def test_rpc_from_remote_side(self, sim, net):
        channel = TcpChannel(net, "a", "b")
        channel.set_rpc_handler(lambda request: ("pong", 64))
        result = sim.run_until_complete(sim.spawn(channel.rpc("ping", src="b")))
        assert result == "pong"

    def test_close_unregisters_handlers(self, sim, net):
        channel = TcpChannel(net, "a", "b")
        channel.close()
        TcpChannel(net, "a", "b")  # re-registering must not raise

    def test_double_close_is_idempotent(self, sim, net):
        channel = TcpChannel(net, "a", "b")
        channel.close()
        channel.close()  # teardown paths may race; must not raise

    def test_estimate_close_to_actual(self, sim, net):
        channel = TcpChannel(net, "a", "b", rate_bps=40e9)
        nbytes = 16 * 1024 * 1024
        estimate = channel.transfer_time_estimate(nbytes)
        actual = sim.run_until_complete(sim.spawn(channel.transfer(nbytes)))
        assert actual == pytest.approx(estimate, rel=0.25)
