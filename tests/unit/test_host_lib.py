"""Unit tests for the restore APIs (HostLib, Table 3): replaying the
creation log onto a destination NIC and the staged-plan semantics."""

import pytest

from repro import cluster
from repro.core import ControlPlane, IndirectionLayer
from repro.core.host_lib import HostLib
from repro.core.plugin import mr_memory_unmapped
from repro.core.records import ResourceRecord
from repro.mem import AddressSpace
from repro.rnic import AccessFlags, QPType


@pytest.fixture
def world():
    tb = cluster.build()
    control = ControlPlane(tb)
    src_layer = IndirectionLayer(tb.source, control)
    dst_layer = IndirectionLayer(tb.destination, control)
    container = tb.source.create_container("app")
    process = container.add_process("worker")
    state = src_layer.register_process(process, container)
    return tb, src_layer, dst_layer, container, process, state


def build_resources(tb, layer, process, state, with_dm=False):
    def flow():
        pd, pd_rid = yield from layer.alloc_pd(state)
        cq, cq_rid = yield from layer.create_cq(state, 64)
        vma = process.space.mmap(8192, tag="data")
        mr, mr_rid, vl, vr = yield from layer.reg_mr(
            state, process, pd_rid, vma.start, 8192, AccessFlags.all_remote())
        qp, qp_rid, vqpn = yield from layer.create_qp(
            state, pd_rid, QPType.RC, cq_rid, cq_rid, 16, 16)
        dm_rid = None
        if with_dm:
            dm, dm_rid = yield from layer.alloc_dm(state, process, 4096)
        return {"pd_rid": pd_rid, "cq_rid": cq_rid, "mr_rid": mr_rid,
                "qp_rid": qp_rid, "vqpn": vqpn, "mr": mr, "qp": qp,
                "vl": vl, "vr": vr, "mr_addr": vma.start, "dm_rid": dm_rid}

    return tb.run(flow())


def make_dest_process(tb, process, handles):
    """A 'restored' process with the MR memory pinned at original addrs."""
    restored = cluster.AppProcess("restored", tb.config)
    restored.pid = process.pid
    restored.space.mmap(8192, addr=handles["mr_addr"], tag="data")
    return restored


class TestRestoreProcess:
    def test_replay_builds_all_resources(self, world):
        tb, src_layer, dst_layer, container, process, state = world
        handles = build_resources(tb, src_layer, process, state)
        host = HostLib(dst_layer)
        dest_process = make_dest_process(tb, process, handles)

        plan = tb.run(host.restore_process(state, dest_process))
        for key in ("pd_rid", "cq_rid", "mr_rid", "qp_rid"):
            assert plan.is_restored(handles[key])
        new_qp = plan.resources[handles["qp_rid"]]
        # New physical QPN on the destination NIC, same virtual QPN.
        assert new_qp.qpn in dst_layer.rnic.qps
        assert dst_layer.qpn_table.lookup(new_qp.qpn) == handles["vqpn"]

    def test_mr_restored_at_original_address_with_staged_keys(self, world):
        tb, src_layer, dst_layer, container, process, state = world
        handles = build_resources(tb, src_layer, process, state)
        host = HostLib(dst_layer)
        dest_process = make_dest_process(tb, process, handles)
        plan = tb.run(host.restore_process(state, dest_process))

        new_mr = plan.resources[handles["mr_rid"]]
        assert new_mr.addr == handles["mr"].addr  # original virtual address
        assert new_mr.lkey != handles["mr"].lkey  # new physical keys
        # Staged, not yet applied: the live table still points at the old key.
        assert state.lkey_table.lookup(handles["vl"]) == handles["mr"].lkey
        host.apply_plan(plan)
        assert state.lkey_table.lookup(handles["vl"]) == new_mr.lkey
        assert state.rkey_table.lookup(handles["vr"]) == new_mr.rkey

    def test_apply_plan_swaps_resources_in_place(self, world):
        tb, src_layer, dst_layer, container, process, state = world
        handles = build_resources(tb, src_layer, process, state)
        host = HostLib(dst_layer)
        dest_process = make_dest_process(tb, process, handles)
        plan = tb.run(host.restore_process(state, dest_process))

        old_qp = state.resources[handles["qp_rid"]]
        host.apply_plan(plan)
        assert state.resources[handles["qp_rid"]] is not old_qp
        assert state.resources[handles["qp_rid"]] is plan.resources[handles["qp_rid"]]

    def test_deferred_mr_path(self, world):
        """An MR whose memory is not at its original address yet is
        deferred (restorer conflict, §3.2) and registered later."""
        tb, src_layer, dst_layer, container, process, state = world
        handles = build_resources(tb, src_layer, process, state)
        host = HostLib(dst_layer)
        dest_process = cluster.AppProcess("restored", tb.config)
        dest_process.pid = process.pid  # MR memory NOT mapped yet

        plan = tb.run(host.restore_process(
            state, dest_process, defer_conflict=lambda record: True))
        assert not plan.is_restored(handles["mr_rid"])
        assert handles["mr_rid"] in state.deferred_mr_rids

        # Stop-and-copy: memory is home now; register the deferred MRs.
        dest_process.space.mmap(8192, addr=handles["mr_addr"], tag="data")
        tb.run(host.restore_deferred(plan))
        assert plan.is_restored(handles["mr_rid"])
        assert not state.deferred_mr_rids

    def test_connected_qp_waits_for_exchange(self, world):
        tb, src_layer, dst_layer, container, process, state = world
        handles = build_resources(tb, src_layer, process, state)

        # Connect the source QP to a fake partner so the record carries
        # connection metadata.
        def connect():
            from repro.rnic import QPState

            yield from src_layer.modify_qp(state, handles["qp_rid"], QPState.INIT)
            yield from src_layer.modify_qp(
                state, handles["qp_rid"], QPState.RTR,
                remote_node="partner0", remote_pqpn=0x777, remote_vqpn=0x777)
            yield from src_layer.modify_qp(state, handles["qp_rid"], QPState.RTS)

        tb.run(connect())
        host = HostLib(dst_layer)
        dest_process = make_dest_process(tb, process, handles)
        plan = tb.run(host.restore_process(state, dest_process))

        new_qp = plan.resources[handles["qp_rid"]]
        from repro.rnic import QPState

        assert new_qp.state is QPState.RESET  # not connected yet
        assert plan.exchange_index == {("partner0", 0x777): handles["qp_rid"]}
        # The exchange arrives with the partner's new physical QPN.
        tb.run(host.connect_restored_qp(plan, handles["qp_rid"], "partner0", 0x888))
        assert new_qp.state is QPState.RTS
        assert new_qp.remote_qpn == 0x888
        assert handles["qp_rid"] in plan.connected

    def test_dm_restored_with_original_mapping(self, world):
        tb, src_layer, dst_layer, container, process, state = world
        handles = build_resources(tb, src_layer, process, state, with_dm=True)
        src_dm = state.resources[handles["dm_rid"]]
        host = HostLib(dst_layer)
        dest_process = make_dest_process(tb, process, handles)
        dest_process.space.mmap(4096, addr=src_dm.mapped_addr, tag="on-chip")
        plan = tb.run(host.restore_process(state, dest_process))
        new_dm = plan.resources[handles["dm_rid"]]
        assert new_dm.mapped_addr == src_dm.mapped_addr
        assert dst_layer.rnic.dm_allocated >= 4096


class TestPresetupDefer:
    """Pre-setup defers an MR registration only when its memory is not
    mapped at the original address yet; a malformed record is a bug."""

    @pytest.fixture
    def space(self):
        space = AddressSpace(name="dest")
        space.mmap(8192, addr=0x10000, tag="data")
        return space

    @staticmethod
    def _mr(**args):
        return ResourceRecord(rid=1, kind="mr", pid=1, args=args)

    def test_mapped_range_is_not_deferred(self, space):
        assert mr_memory_unmapped(space, self._mr(addr=0x10000, length=8192)) is False

    def test_unmapped_range_is_deferred(self, space):
        assert mr_memory_unmapped(space, self._mr(addr=0x40000, length=4096)) is True

    def test_malformed_record_raises(self, space):
        with pytest.raises(KeyError):
            mr_memory_unmapped(space, self._mr(length=4096))
