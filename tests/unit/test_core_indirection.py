"""Unit tests for the indirection layer: logging, virtualization state,
suspension, resolution services."""

import pytest

from repro import cluster
from repro.core import ControlPlane, IndirectionLayer
from repro.rnic import AccessFlags, QPState, QPType


@pytest.fixture
def world():
    tb = cluster.build()
    control = ControlPlane(tb)
    layer = IndirectionLayer(tb.source, control)
    container = tb.source.create_container("app")
    process = container.add_process("worker")
    state = layer.register_process(process, container)
    return tb, control, layer, container, process, state


def run(tb, gen):
    return tb.run(gen)


class TestLogging:
    def test_control_path_calls_are_logged(self, world):
        tb, control, layer, container, process, state = world

        def flow():
            pd, pd_rid = yield from layer.alloc_pd(state)
            cq, cq_rid = yield from layer.create_cq(state, 64)
            vma = process.space.mmap(8192, tag="data")
            mr, mr_rid, vl, vr = yield from layer.reg_mr(
                state, process, pd_rid, vma.start, 8192, AccessFlags.all_remote())
            qp, qp_rid, vqpn = yield from layer.create_qp(
                state, pd_rid, QPType.RC, cq_rid, cq_rid, 16, 16)
            return pd_rid, cq_rid, mr_rid, qp_rid

        rids = run(tb, flow())
        kinds = [r.kind for r in state.log.in_creation_order()]
        assert kinds == ["pd", "cq", "mr", "qp"]
        # Dependencies recorded.
        mr_record = state.log.get(rids[2])
        assert rids[0] in mr_record.deps
        qp_record = state.log.get(rids[3])
        assert set(qp_record.deps) >= {rids[0], rids[1]}

    def test_destroy_removes_log_and_tables(self, world):
        tb, control, layer, container, process, state = world

        def flow():
            pd, pd_rid = yield from layer.alloc_pd(state)
            cq, cq_rid = yield from layer.create_cq(state, 64)
            qp, qp_rid, vqpn = yield from layer.create_qp(
                state, pd_rid, QPType.RC, cq_rid, cq_rid, 16, 16)
            yield from layer.destroy_qp(state, qp_rid)
            return qp, qp_rid, vqpn

        qp, qp_rid, vqpn = run(tb, flow())
        assert qp_rid not in state.log
        assert vqpn not in layer.vqpn_index
        with pytest.raises(LookupError):
            layer.qpn_table.lookup(qp.qpn)

    def test_dereg_mr_releases_virtual_keys(self, world):
        tb, control, layer, container, process, state = world

        def flow():
            pd, pd_rid = yield from layer.alloc_pd(state)
            vma = process.space.mmap(4096, tag="data")
            mr, mr_rid, vl, vr = yield from layer.reg_mr(
                state, process, pd_rid, vma.start, 4096, AccessFlags.all_remote())
            yield from layer.dereg_mr(state, mr_rid)
            return vl, vr

        vl, vr = run(tb, flow())
        with pytest.raises(LookupError):
            state.lkey_table.lookup(vl)
        with pytest.raises(LookupError):
            state.rkey_table.lookup(vr)

    def test_virtual_keys_dense_per_process(self, world):
        tb, control, layer, container, process, state = world

        def flow():
            pd, pd_rid = yield from layer.alloc_pd(state)
            vkeys = []
            for _ in range(3):
                vma = process.space.mmap(4096, tag="data")
                _mr, _rid, vl, vr = yield from layer.reg_mr(
                    state, process, pd_rid, vma.start, 4096, AccessFlags.all_remote())
                vkeys.append((vl, vr))
            return vkeys

        vkeys = run(tb, flow())
        assert [vl for vl, _ in vkeys] == [0, 1, 2]
        assert [vr for _, vr in vkeys] == [0, 1, 2]


class TestSuspension:
    def _with_qp(self, world):
        tb, control, layer, container, process, state = world

        def flow():
            pd, pd_rid = yield from layer.alloc_pd(state)
            cq, cq_rid = yield from layer.create_cq(state, 64)
            qp, qp_rid, vqpn = yield from layer.create_qp(
                state, pd_rid, QPType.RC, cq_rid, cq_rid, 16, 16)
            return vqpn

        return run(tb, flow())

    def test_raise_all_and_clear(self, world):
        tb, control, layer, container, process, state = world
        vqpn = self._with_qp(world)
        assert state.suspended[vqpn] is False
        layer.raise_suspension(process.pid)
        assert state.suspended[vqpn] is True
        layer.clear_suspension(process.pid)
        assert state.suspended[vqpn] is False

    def test_raise_scoped_to_vqpns(self, world):
        tb, control, layer, container, process, state = world
        vqpn1 = self._with_qp(world)
        vqpn2 = self._with_qp(world)
        layer.raise_suspension(process.pid, {vqpn2})
        assert state.suspended[vqpn1] is False
        assert state.suspended[vqpn2] is True

    def test_signal_fires_waiters(self, world):
        tb, control, layer, container, process, state = world
        vqpn = self._with_qp(world)
        woken = []

        def waiter():
            targets = yield state.suspend_signal.wait()
            woken.append(targets)

        tb.sim.spawn(waiter())
        tb.sim.schedule(1e-3, lambda: layer.raise_suspension(process.pid))
        tb.sim.run(until=2e-3)
        assert woken == [{vqpn}]


class TestResolutionServices:
    def test_resolve_qpn(self, world):
        tb, control, layer, container, process, state = world

        def flow():
            pd, pd_rid = yield from layer.alloc_pd(state)
            cq, cq_rid = yield from layer.create_cq(state, 64)
            qp, qp_rid, vqpn = yield from layer.create_qp(
                state, pd_rid, QPType.RC, cq_rid, cq_rid, 16, 16)
            return qp, vqpn

        qp, vqpn = run(tb, flow())
        result = layer._srv_resolve_qpn({"vqpn": vqpn})
        assert result == {"found": True, "pqpn": qp.qpn,
                          "service_id": container.container_id}
        assert layer._srv_resolve_qpn({"vqpn": 0xABCDEF}) == {"found": False}

    def test_resolve_rkey_and_batch(self, world):
        tb, control, layer, container, process, state = world

        def flow():
            pd, pd_rid = yield from layer.alloc_pd(state)
            vma = process.space.mmap(4096, tag="data")
            mr, mr_rid, vl, vr = yield from layer.reg_mr(
                state, process, pd_rid, vma.start, 4096, AccessFlags.all_remote())
            return mr, vr

        mr, vr = run(tb, flow())
        service = container.container_id
        single = layer._srv_resolve_rkey({"service_id": service, "vrkey": vr})
        assert single == {"found": True, "rkey": mr.rkey}
        batch = layer._srv_resolve_rkey_batch(
            {"service_id": service, "vrkeys": [vr, 999]})
        assert batch["found"] and batch["mappings"] == {vr: mr.rkey}
        assert layer._srv_resolve_rkey(
            {"service_id": "nope", "vrkey": vr}) == {"found": False}

    def test_record_n_sent(self, world):
        tb, control, layer, container, process, state = world

        def flow():
            pd, pd_rid = yield from layer.alloc_pd(state)
            cq, cq_rid = yield from layer.create_cq(state, 64)
            qp, qp_rid, vqpn = yield from layer.create_qp(
                state, pd_rid, QPType.RC, cq_rid, cq_rid, 16, 16)
            return vqpn

        vqpn = run(tb, flow())
        assert layer._srv_record_n_sent({"vqpn": vqpn, "n_sent": 7})["found"]
        assert state.expected_n_sent[vqpn] == 7
        # Values only move forward (retransmitted reports).
        layer._srv_record_n_sent({"vqpn": vqpn, "n_sent": 3})
        assert state.expected_n_sent[vqpn] == 7


class TestControlPlaneNegotiation:
    def test_supports_probe(self, world):
        # The §6 hybrid negotiation is the resolve_qpn call itself: a
        # MigrRDMA daemon answers it (a server without one raises, see
        # test_unsupported_op_raises).
        tb, control, layer, container, process, state = world

        def flow():
            result = yield from control.call(
                tb.destination.name, tb.source.name, "resolve_qpn", {"vqpn": 1})
            return result

        assert run(tb, flow()) == {"found": False}

    def test_unsupported_op_raises(self, world):
        tb, control, layer, container, process, state = world

        def flow():
            result = yield from control.call(
                tb.source.name, tb.destination.name, "resolve_qpn", {"vqpn": 1})
            return result

        with pytest.raises(LookupError):
            run(tb, flow())

    def test_local_call_short_circuits(self, world):
        tb, control, layer, container, process, state = world

        def flow():
            start = tb.sim.now
            result = yield from control.call_local_or_remote(
                tb.source.name, tb.source.name, "resolve_qpn", {"vqpn": 1})
            return result, tb.sim.now - start

        result, elapsed = run(tb, flow())
        assert result == {"found": False}
        assert elapsed == 0.0  # shared memory, no round trip
