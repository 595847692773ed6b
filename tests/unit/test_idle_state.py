"""What idle state costs: a QP nobody posts to, a page nobody collects.

Linux soft-dirty semantics for :class:`~repro.mem.PageStore` (no dirty set
until the first pre-dump clears the bits) and the RNIC engine's one-shot
doorbell flag, plus the per-QP footprint both keep small.
"""

import gc
import tracemalloc

from repro import cluster
from repro.beds import PerftestBed
from repro.config import PAGE_SIZE
from repro.mem import AddressSpace, PageStore
from repro.migration.images import snapshot_process
from repro.rnic import Opcode, SendWR, WCStatus
from repro.rnic.nic import RNIC
from repro.verbs.api import make_sge

from tests.helpers import build_pair, poll_until

#: Per-QP setup bytes (CPython 3.11): ~8.5 KiB with list queues, a
#: doorbell flag, no engine process and soft-dirty stores; ~10.1 KiB with
#: an engine ``Process`` per QP; ~19.8 KiB with deques, a kick ``Queue``
#: per QP and a dirty set on every store.
PER_QP_BOUND_BYTES = 12 * 1024


def _setup_bytes(num_qps: int) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        bed = PerftestBed(num_qps)
        bed.run(bed.setup())
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()


def test_per_qp_setup_footprint():
    per_qp = (_setup_bytes(256) - _setup_bytes(16)) / 240
    assert per_qp < PER_QP_BOUND_BYTES, f"{per_qp / 1024:.1f} KiB per QP"


class TestSoftDirty:
    def test_never_collected_store_holds_no_dirty_set(self):
        store = PageStore(8 * PAGE_SIZE)
        store.write(0, b"a")
        store.write(3 * PAGE_SIZE, b"b" * (2 * PAGE_SIZE))
        assert store._dirty is None
        assert store.dirty_pages == {0, 3, 4}
        assert store.collect_dirty() == {0, 3, 4}
        store.write(PAGE_SIZE, b"c")
        assert store.dirty_pages == {1}

    def test_install_keeps_earlier_writes_dirty(self):
        store = PageStore(4 * PAGE_SIZE)
        store.write(0, b"written")
        store.install_pages({2: b"installed"})
        assert store.dirty_pages == {0}
        assert store.collect_dirty() == {0}
        assert store.read(2 * PAGE_SIZE, 9) == b"installed"

    def test_clone_and_mark_all_dirty_keep_soft_dirty_semantics(self):
        store = PageStore(4 * PAGE_SIZE)
        store.write(PAGE_SIZE, b"x")
        copy = store.clone()
        copy.write(2 * PAGE_SIZE, b"y")
        assert store.dirty_pages == {1} and copy.dirty_pages == {1, 2}
        store.collect_dirty()
        store.write(0, b"z")
        store.mark_all_dirty()
        assert store.dirty_pages == {0, 1}

    def test_vma_mapped_after_first_predump_ships_whole(self):
        space = AddressSpace("p1")
        old = space.mmap(4 * PAGE_SIZE, addr=0x1000_0000)
        space.write(old.start, b"first")
        full = space.collect_dirty()
        assert set(full) == {old.start}
        new = space.mmap(4 * PAGE_SIZE, addr=0x2000_0000)
        space.write(new.start, b"n" * (3 * PAGE_SIZE))
        diff = space.collect_dirty()
        assert set(diff) == {new.start}
        assert set(diff[new.start]) == {0, 1, 2}
        assert space.collect_dirty() == {}

    def test_incremental_process_image_carries_a_new_vma(self):
        tb = cluster.build()
        process = tb.source.create_container("app").add_process("worker")
        heap = process.space.mmap(4 * PAGE_SIZE, name="heap")
        process.space.write(heap.start, b"heap")
        assert snapshot_process(process, full=True).memory.page_count == 1
        late = process.space.mmap(2 * PAGE_SIZE, name="late")
        process.space.write(late.start, b"l" * (2 * PAGE_SIZE))
        image = snapshot_process(process, full=False)
        assert image.memory.pages.keys() == {late.start}
        assert image.memory.page_count == 2


class TestDoorbell:
    def _mid_wr(self, tb, a, b, wakes):
        """Post WR 0 to the parked engine and run into its WQE fetch."""
        qp = a.qp
        assert qp.doorbell and not _engine_entries(tb.sim, qp)  # parked: holds nothing
        a.lib.post_send(qp, _write(a, b, 0))
        assert not qp.doorbell and len(wakes) == 1  # one post wakes it once
        rnic = tb.source.rnic.config.rnic
        tb.sim.run(until=tb.sim.now + (rnic.doorbell_s + rnic.per_wqe_processing_s) / 2)
        assert not qp.doorbell and not qp.sq_pending  # engine holds WR 0

    def test_posts_while_mid_wr_wake_nothing_and_all_complete(self, monkeypatch):
        tb, a, b = build_pair(depth=8)
        wakes = _engine_wakeups(tb, monkeypatch)
        self._mid_wr(tb, a, b, wakes)
        a.lib.post_send(a.qp, _write(a, b, 1))
        a.lib.post_send(a.qp, _write(a, b, 2))
        assert not a.qp.doorbell and len(wakes) == 1  # the engine is busy
        wcs = tb.run(poll_until(tb, a.lib, a.cq, 3))
        assert [wc.wr_id for wc in wcs] == [0, 1, 2]
        assert all(wc.status is WCStatus.SUCCESS for wc in wcs)
        # the engine drained all three, then parked and is still parked
        assert len(wakes) == 1 and a.qp.doorbell
        assert not _engine_entries(tb.sim, a.qp)

    def test_flush_while_mid_wr_leaves_no_stale_wakeup(self, monkeypatch):
        tb, a, b = build_pair(depth=8)
        wakes = _engine_wakeups(tb, monkeypatch)
        self._mid_wr(tb, a, b, wakes)
        a.lib.post_send(a.qp, _write(a, b, 1))
        a.lib.post_send(a.qp, _write(a, b, 2))
        a.qp.force_error()
        tb.source.rnic._flush_sq(a.qp)
        wcs = tb.run(poll_until(tb, a.lib, a.cq, 3))
        assert sorted(wc.wr_id for wc in wcs) == [0, 1, 2]
        assert all(wc.status is WCStatus.WR_FLUSH_ERR for wc in wcs)
        tb.sim.run(until=tb.sim.now + 1e-3)
        assert len(wakes) == 1 and a.qp.doorbell
        assert not _engine_entries(tb.sim, a.qp)


def _engine_wakeups(tb, monkeypatch):
    """Every schedule entry that wakes a parked RNIC engine (the one a
    post to it rings)."""
    wakes = []
    schedule = tb.sim.schedule

    def spy(delay, callback, *args):
        entry = schedule(delay, callback, *args)
        if getattr(callback, "__func__", None) is RNIC._engine_next:
            wakes.append(entry)
        return entry

    monkeypatch.setattr(tb.sim, "schedule", spy)
    return wakes


def _engine_entries(sim, qp):
    """Pending schedule entries of ``qp``'s send engine."""
    return [entry for entry in sim._heap
            if getattr(entry[2], "__name__", "").startswith("_engine_")
            and entry[3][:1] == (qp,)]


def _write(a, b, wr_id):
    return SendWR(wr_id=wr_id, opcode=Opcode.RDMA_WRITE, sges=[make_sge(a.mr, 0, 8)],
                  remote_addr=b.mr.addr, rkey=b.mr.rkey)
