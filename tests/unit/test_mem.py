"""Unit tests for the virtual-memory substrate (pages, VMAs, address spaces)."""

import tracemalloc

import pytest

from repro.config import PAGE_SIZE
from repro.mem import AddressSpace, MemoryError_, PageRun, PageStore, align_down, align_up


class TestAlignment:
    def test_align_up(self):
        assert align_up(0) == 0
        assert align_up(1) == PAGE_SIZE
        assert align_up(PAGE_SIZE) == PAGE_SIZE
        assert align_up(PAGE_SIZE + 1) == 2 * PAGE_SIZE

    def test_align_down(self):
        assert align_down(PAGE_SIZE - 1) == 0
        assert align_down(PAGE_SIZE) == PAGE_SIZE
        assert align_down(2 * PAGE_SIZE + 5) == 2 * PAGE_SIZE


class TestPageStore:
    def test_unwritten_reads_zero(self):
        store = PageStore(2 * PAGE_SIZE)
        assert store.read(100, 16) == b"\x00" * 16

    def test_write_read_roundtrip(self):
        store = PageStore(PAGE_SIZE)
        store.write(10, b"hello world")
        assert store.read(10, 11) == b"hello world"

    def test_write_spanning_pages(self):
        store = PageStore(2 * PAGE_SIZE)
        data = bytes(range(256)) * 8  # 2048 bytes
        start = PAGE_SIZE - 1024
        store.write(start, data)
        assert store.read(start, len(data)) == data
        assert store.dirty_pages == {0, 1}

    def test_out_of_range_rejected(self):
        store = PageStore(PAGE_SIZE)
        with pytest.raises(ValueError):
            store.read(PAGE_SIZE - 4, 8)
        with pytest.raises(ValueError):
            store.write(-1, b"x")

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            PageStore(100)
        with pytest.raises(ValueError):
            PageStore(0)

    def test_collect_dirty_clears(self):
        store = PageStore(4 * PAGE_SIZE)
        store.write(0, b"a")
        store.write(2 * PAGE_SIZE, b"b")
        assert store.collect_dirty() == {0, 2}
        assert store.collect_dirty() == set()

    def test_snapshot_and_install_roundtrip(self):
        src = PageStore(2 * PAGE_SIZE)
        src.write(5, b"payload")
        images = src.snapshot_pages(src.collect_dirty())
        dst = PageStore(2 * PAGE_SIZE)
        dst.install_pages(images)
        assert dst.read(5, 7) == b"payload"

    def test_install_bad_page_size_rejected(self):
        store = PageStore(PAGE_SIZE)
        with pytest.raises(ValueError):
            store.install_pages({0: b"x" * (PAGE_SIZE + 1)})
        assert store.touched_pages == 0
        store.install_pages({0: b"short"})  # an image stands for its page, zero-padded
        assert store.read(0, PAGE_SIZE) == b"short" + bytes(PAGE_SIZE - 5)

    def test_snapshot_out_of_range_page(self):
        store = PageStore(PAGE_SIZE)
        with pytest.raises(ValueError):
            store.snapshot_pages([5])
        # a page table is a list: -1 would silently name the last page
        store.write(0, b"last page")
        with pytest.raises(ValueError):
            store.snapshot_pages([-1])
        with pytest.raises(ValueError):
            store.install_pages({-1: b"x"})
        assert store.read(0, 9) == b"last page"

    def test_mark_all_dirty_only_touches_materialised(self):
        store = PageStore(4 * PAGE_SIZE)
        store.write(0, b"x")
        store.collect_dirty()
        store.mark_all_dirty()
        assert store.dirty_pages == {0}

    def test_partial_write_snapshots_as_short_image(self):
        store = PageStore(2 * PAGE_SIZE)
        store.write(PAGE_SIZE, b"sixteen bytes!!!")
        assert store.snapshot_pages(store.collect_dirty()) == {1: b"sixteen bytes!!!"}

    def test_zero_write_over_last_byte_trims_image(self):
        store = PageStore(PAGE_SIZE)
        store.write(0, b"keep")
        store.write(100, b"drop")
        assert len(store.snapshot_pages([0])[0]) == 104
        store.write(100, b"\0\0\0\0")
        assert store.snapshot_pages([0]) == {0: b"keep"}
        store.write(0, b"\0\0\0\0")
        assert store.snapshot_pages([0]) == {0: b""}
        assert store.touched_pages == 1
        assert store.read(0, PAGE_SIZE) == bytes(PAGE_SIZE)

    def test_pages_pass_by_reference_from_gather_to_install(self):
        src = PageStore(2 * PAGE_SIZE)
        src.write(0, b"slot header: 16B")  # a page written in part
        src.write(PAGE_SIZE, b"\1" * PAGE_SIZE)
        before = src.read(0, 2 * PAGE_SIZE)
        mid = PageStore(2 * PAGE_SIZE)
        run = src.read(0, 2 * PAGE_SIZE, as_run=True)
        mid.write(0, run)
        images = mid.snapshot_pages(mid.collect_dirty())
        dst = PageStore(2 * PAGE_SIZE)
        dst.install_pages(images)
        first = src.snapshot_pages([0])[0]
        assert run.pages[0] is first and images[0] is first
        assert dst.snapshot_pages([0])[0] is first
        src.write(5, b"source only")
        assert dst.read(0, 2 * PAGE_SIZE) == before
        assert src.read(0, 16) == b"slot source only"

    def test_clone_is_independent(self):
        store = PageStore(PAGE_SIZE)
        store.write(0, b"orig")
        copy = store.clone()
        copy.write(0, b"copy")
        assert store.read(0, 4) == b"orig"
        assert copy.read(0, 4) == b"copy"

    def test_empty_read_at_end_of_store(self):
        # the DMA edge hypothesis found: ('dma', 0, 16384, 0, 0)
        store = PageStore(4 * PAGE_SIZE)
        assert store.read(4 * PAGE_SIZE, 0) == b""
        assert store.read(4 * PAGE_SIZE, 0, as_run=True) == b""
        with pytest.raises(ValueError):
            store.read(4 * PAGE_SIZE + 1, 0)
        with pytest.raises(ValueError):
            store.read(0, -1)

    def test_aligned_run_of_unwritten_pages_materialises(self):
        src = PageStore(4 * PAGE_SIZE)
        dst = PageStore(4 * PAGE_SIZE)
        run = src.read(PAGE_SIZE, 2 * PAGE_SIZE, as_run=True)
        assert run.pages == [b"", b""]
        dst.write(PAGE_SIZE, run)
        assert dst.touched_pages == 2
        assert dst.dirty_pages == {1, 2}
        assert dst.read(0, 4 * PAGE_SIZE) == bytes(4 * PAGE_SIZE)
        assert src.touched_pages == 0

    def test_dense_page_table_footprint(self):
        # 32 768 pages of one shared image: the table holds one pointer a
        # page (256 KiB), and no key object per page.
        pages = 32768
        run = PageRun([b"\1" * PAGE_SIZE] * pages)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            store = PageStore(pages * PAGE_SIZE)
            store.write(0, run)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert store.touched_pages == pages
        assert held < 400 * 1024, held


class TestPageRun:
    """A run answers every question the payload path asks exactly as the
    ``bytes`` it stands for would."""

    PAGES = [bytes([i]) * PAGE_SIZE for i in range(1, 5)]
    FLAT = b"".join(PAGES)

    def test_len_bool_bytes_eq(self):
        run = PageRun(list(self.PAGES))
        assert len(run) == len(self.FLAT)
        assert run
        assert bytes(run) == self.FLAT
        assert run == self.FLAT and self.FLAT == run
        assert run == bytearray(self.FLAT)
        assert run == PageRun(list(self.PAGES))
        assert run != self.FLAT[:-1] and run != self.FLAT[:-1] + b"x"
        assert run != PageRun(self.PAGES[:3])

    @pytest.mark.parametrize("start", [None, 0, PAGE_SIZE, 2 * PAGE_SIZE, 4 * PAGE_SIZE,
                                       9 * PAGE_SIZE, -PAGE_SIZE, 5, PAGE_SIZE + 1])
    @pytest.mark.parametrize("stop", [None, 0, PAGE_SIZE, 3 * PAGE_SIZE, 4 * PAGE_SIZE,
                                      9 * PAGE_SIZE, -PAGE_SIZE, 7, 2 * PAGE_SIZE - 1])
    def test_slices_match_bytes(self, start, stop):
        run = PageRun(list(self.PAGES))
        piece = run[start:stop]
        assert piece == self.FLAT[start:stop]
        assert len(piece) == len(self.FLAT[start:stop])
        assert bool(piece) == bool(self.FLAT[start:stop])

    def test_equality_ignores_trimming(self):
        whole = PageRun([bytes(PAGE_SIZE)] * 2)
        trimmed = PageRun([b"", b""])
        assert whole == trimmed == bytes(2 * PAGE_SIZE)
        assert bytes(trimmed) == bytes(2 * PAGE_SIZE)
        assert trimmed[:PAGE_SIZE] == bytes(PAGE_SIZE)
        assert PageRun([b"a", b""]) == PageRun([b"a" + bytes(PAGE_SIZE - 1), b""])
        assert PageRun([b"a", b""]) != PageRun([b"", b"a"])

    def test_page_aligned_slices_copy_nothing(self):
        run = PageRun(list(self.PAGES))
        assert run[:] is run
        assert run[:4 * PAGE_SIZE] is run
        assert run[PAGE_SIZE:2 * PAGE_SIZE] is self.PAGES[1]
        tail = run[2 * PAGE_SIZE:]
        assert type(tail) is PageRun
        assert tail.pages[0] is self.PAGES[2] and tail.pages[1] is self.PAGES[3]
        assert run[4 * PAGE_SIZE:] == b""
        assert type(run[1:PAGE_SIZE]) is bytes  # any other slice materialises
        assert run[::2] == self.FLAT[::2] and run[5] == self.FLAT[5]

    def test_store_gathers_runs_only_when_asked(self):
        store = PageStore(4 * PAGE_SIZE)
        store.write(0, self.FLAT[:2 * PAGE_SIZE])
        store.write(PAGE_SIZE + 1, b"partial write")
        assert type(store.read(0, 4 * PAGE_SIZE)) is bytes
        assert type(store.read(0, PAGE_SIZE, as_run=True)) is bytes
        assert type(store.read(1, 2 * PAGE_SIZE, as_run=True)) is bytes
        run = store.read(0, 4 * PAGE_SIZE, as_run=True)
        assert type(run) is PageRun
        assert run == store.read(0, 4 * PAGE_SIZE)
        assert run.pages[0] is store.read(0, PAGE_SIZE)  # the stored image itself
        assert all(type(page) is bytes for page in run.pages)
        assert run.pages[2] is run.pages[3] == b""  # never written: the empty image
        # A write replaces images, so later writes do not reach the run.
        before = bytes(run)
        store.write(PAGE_SIZE + 1, b"changed again")
        store.write(0, b"x")
        assert bytes(run) == before

    def test_aligned_run_write_shares_pages_copy_on_write(self):
        src = PageStore(4 * PAGE_SIZE)
        src.write(0, self.FLAT)
        src.collect_dirty()
        dst = PageStore(8 * PAGE_SIZE)
        dst.write(2 * PAGE_SIZE, src.read(0, 4 * PAGE_SIZE, as_run=True))
        assert dst.dirty_pages == {2, 3, 4, 5} and dst.touched_pages == 4
        assert src.dirty_pages == set()
        assert dst.read(2 * PAGE_SIZE, 4 * PAGE_SIZE) == self.FLAT
        dst.write(2 * PAGE_SIZE + 3, b"dst only")
        src.write(PAGE_SIZE + 3, b"src only")
        assert src.read(0, PAGE_SIZE) == self.PAGES[0]
        assert dst.read(3 * PAGE_SIZE, PAGE_SIZE) == self.PAGES[1]
        assert src.read(PAGE_SIZE + 3, 8) == b"src only"
        assert dst.read(2 * PAGE_SIZE + 3, 8) == b"dst only"

    def test_unaligned_run_write_materialises(self):
        dst = PageStore(8 * PAGE_SIZE)
        dst.write(100, PageRun(list(self.PAGES)))
        assert dst.read(100, 4 * PAGE_SIZE) == self.FLAT
        assert dst.read(0, 100) == bytes(100)
        assert dst.dirty_pages == {0, 1, 2, 3, 4}

    def test_zero_page_is_never_mutated(self):
        a, b = PageStore(2 * PAGE_SIZE), PageStore(2 * PAGE_SIZE)
        b.write(0, a.read(0, 2 * PAGE_SIZE, as_run=True))  # two zero pages
        b.write(5, b"scribble")
        assert a.read(0, 2 * PAGE_SIZE) == bytes(2 * PAGE_SIZE)
        assert b.read(PAGE_SIZE, PAGE_SIZE) == bytes(PAGE_SIZE)
        assert PageStore(PAGE_SIZE).read(0, 16) == bytes(16)


class TestAddressSpace:
    def test_mmap_without_address_picks_free_slot(self):
        space = AddressSpace("p1")
        a = space.mmap(PAGE_SIZE)
        b = space.mmap(PAGE_SIZE)
        assert a.end <= b.start or b.end <= a.start

    def test_mmap_fixed_address(self):
        space = AddressSpace("p1")
        vma = space.mmap(2 * PAGE_SIZE, addr=0x1000_0000)
        assert vma.start == 0x1000_0000
        assert vma.end == 0x1000_0000 + 2 * PAGE_SIZE

    def test_overlapping_mmap_rejected(self):
        space = AddressSpace("p1")
        space.mmap(2 * PAGE_SIZE, addr=0x1000_0000)
        with pytest.raises(MemoryError_):
            space.mmap(PAGE_SIZE, addr=0x1000_1000)

    def test_unaligned_fixed_address_rejected(self):
        space = AddressSpace("p1")
        with pytest.raises(MemoryError_):
            space.mmap(PAGE_SIZE, addr=123)

    def test_length_rounded_up(self):
        space = AddressSpace("p1")
        vma = space.mmap(100)
        assert vma.length == PAGE_SIZE

    def test_write_read_through_space(self):
        space = AddressSpace("p1")
        vma = space.mmap(PAGE_SIZE, addr=0x2000_0000)
        space.write(0x2000_0000 + 64, b"data here")
        assert space.read(0x2000_0000 + 64, 9) == b"data here"
        assert vma.store.read(64, 9) == b"data here"

    def test_read_unmapped_faults(self):
        space = AddressSpace("p1")
        with pytest.raises(MemoryError_, match="fault"):
            space.read(0xDEAD_0000, 4)

    def test_write_spanning_adjacent_vmas(self):
        space = AddressSpace("p1")
        space.mmap(PAGE_SIZE, addr=0x3000_0000)
        space.mmap(PAGE_SIZE, addr=0x3000_0000 + PAGE_SIZE)
        data = b"z" * 256
        space.write(0x3000_0000 + PAGE_SIZE - 128, data)
        assert space.read(0x3000_0000 + PAGE_SIZE - 128, 256) == data

    def test_write_into_hole_raises_before_mutating(self):
        space = AddressSpace("p1")
        vma = space.mmap(PAGE_SIZE, addr=0x3000_0000)
        space.write(0x3000_0000, b"before")
        vma.store.collect_dirty()
        with pytest.raises(MemoryError_, match="write fault at 0x30001000"):
            space.write(0x3000_0000 + PAGE_SIZE - 128, b"z" * 256)
        assert space.read(0x3000_0000, PAGE_SIZE) == b"before" + bytes(PAGE_SIZE - 6)
        assert vma.store.dirty_pages == set()

    def test_run_spanning_adjacent_vmas_stays_by_reference(self):
        src = AddressSpace("src")
        src.mmap(4 * PAGE_SIZE, addr=0x1000_0000)
        pages = [bytes([i]) * PAGE_SIZE for i in range(1, 5)]
        src.write(0x1000_0000, b"".join(pages))
        run = src.read(0x1000_0000, 4 * PAGE_SIZE, as_run=True)
        assert type(run) is PageRun
        assert type(src.read(0x1000_0000, 4 * PAGE_SIZE)) is bytes
        dst = AddressSpace("dst")
        first = dst.mmap(PAGE_SIZE, addr=0x3000_0000)
        second = dst.mmap(4 * PAGE_SIZE, addr=0x3000_0000 + PAGE_SIZE)
        dst.write(0x3000_0000, run)
        assert dst.read(0x3000_0000, 4 * PAGE_SIZE) == b"".join(pages)
        assert first.store.dirty_pages == {0} and second.store.dirty_pages == {0, 1, 2}
        # a read spanning VMAs is materialised even for the DMA path
        assert type(dst.read(0x3000_0000, 4 * PAGE_SIZE, as_run=True)) is bytes

    def test_munmap_removes(self):
        space = AddressSpace("p1")
        space.mmap(PAGE_SIZE, addr=0x4000_0000)
        space.munmap(0x4000_0000)
        assert space.find(0x4000_0000) is None

    def test_munmap_wrong_address_rejected(self):
        space = AddressSpace("p1")
        space.mmap(2 * PAGE_SIZE, addr=0x4000_0000)
        with pytest.raises(MemoryError_):
            space.munmap(0x4000_1000)  # middle, not start

    def test_mremap_moves_keeping_contents(self):
        space = AddressSpace("p1")
        space.mmap(PAGE_SIZE, addr=0x5000_0000)
        space.write(0x5000_0000, b"persistent")
        moved = space.mremap(0x5000_0000, 0x6000_0000)
        assert moved.start == 0x6000_0000
        assert space.find(0x5000_0000) is None
        assert space.read(0x6000_0000, 10) == b"persistent"

    def test_mremap_to_occupied_rolls_back(self):
        space = AddressSpace("p1")
        space.mmap(PAGE_SIZE, addr=0x5000_0000)
        space.mmap(PAGE_SIZE, addr=0x6000_0000)
        with pytest.raises(MemoryError_):
            space.mremap(0x5000_0000, 0x6000_0000)
        assert space.find(0x5000_0000) is not None

    def test_find_range_requires_single_vma(self):
        space = AddressSpace("p1")
        space.mmap(PAGE_SIZE, addr=0x7000_0000)
        space.mmap(PAGE_SIZE, addr=0x7000_0000 + PAGE_SIZE)
        with pytest.raises(MemoryError_):
            space.find_range(0x7000_0000 + PAGE_SIZE - 8, 16)

    def test_collect_dirty_by_vma(self):
        space = AddressSpace("p1")
        space.mmap(PAGE_SIZE, addr=0x8000_0000, tag="rdma")
        space.mmap(PAGE_SIZE, addr=0x9000_0000)
        space.write(0x8000_0000, b"d")
        dirty = space.collect_dirty()
        assert list(dirty.keys()) == [0x8000_0000]
        assert space.dirty_page_count() == 0

    def test_layout_reports_tags(self):
        space = AddressSpace("p1")
        space.mmap(PAGE_SIZE, addr=0x8000_0000, tag="rdma-queue", name="sq")
        layout = space.layout()
        assert layout == [(0x8000_0000, PAGE_SIZE, "rdma-queue", "sq")]

    def test_shared_store_mapping(self):
        """Mapping an existing store models restore-time shared backing."""
        space_a = AddressSpace("a")
        vma = space_a.mmap(PAGE_SIZE, addr=0x1000_0000)
        space_a.write(0x1000_0000, b"shared!")
        space_b = AddressSpace("b")
        space_b.mmap(PAGE_SIZE, addr=0x2000_0000, store=vma.store)
        assert space_b.read(0x2000_0000, 7) == b"shared!"

    def test_mmap_store_length_mismatch_rejected(self):
        space = AddressSpace("a")
        store = PageStore(PAGE_SIZE)
        with pytest.raises(MemoryError_):
            space.mmap(2 * PAGE_SIZE, store=store)
