"""Property-based tests: the memory substrate behaves like flat bytes."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import PAGE_SIZE
from repro.mem import AddressSpace, MemoryError_, PageStore

STORE_PAGES = 4
STORE_LEN = STORE_PAGES * PAGE_SIZE

write_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=STORE_LEN - 1),
        st.binary(min_size=1, max_size=512),
    ),
    min_size=1, max_size=30,
)


@settings(max_examples=60, deadline=None)
@given(ops=write_ops)
def test_pagestore_matches_flat_buffer(ops):
    """A PageStore is indistinguishable from one flat bytearray."""
    store = PageStore(STORE_LEN)
    reference = bytearray(STORE_LEN)
    for offset, data in ops:
        data = data[: STORE_LEN - offset]
        store.write(offset, data)
        reference[offset:offset + len(data)] = data
    assert store.read(0, STORE_LEN) == bytes(reference)


@settings(max_examples=60, deadline=None)
@given(ops=write_ops)
def test_snapshot_install_roundtrip(ops):
    """Migrating all dirty pages reproduces the source exactly."""
    src = PageStore(STORE_LEN)
    for offset, data in ops:
        src.write(offset, data[: STORE_LEN - offset])
    dst = PageStore(STORE_LEN)
    dst.install_pages(src.snapshot_pages(src.dirty_pages))
    assert dst.read(0, STORE_LEN) == src.read(0, STORE_LEN)


class FlatModel:
    """What a PageStore must be indistinguishable from: one flat bytearray,
    plus the page sets a write touches and dirties."""

    def __init__(self):
        self.flat = bytearray(STORE_LEN)
        self.touched = set()
        self.dirty = set()

    def write(self, offset, data):
        self.flat[offset:offset + len(data)] = data
        if data:
            pages = range(offset // PAGE_SIZE, (offset + len(data) - 1) // PAGE_SIZE + 1)
            self.touched.update(pages)
            self.dirty.update(pages)

    def check(self, store):
        assert store.read(0, STORE_LEN) == bytes(self.flat)
        assert store.read(0, STORE_LEN, as_run=True) == bytes(self.flat)
        assert store.touched_pages == len(self.touched)
        assert store.dirty_pages == self.dirty
        # one canonical image per page: at most a page, zero tail dropped
        for image in store.snapshot_pages(range(STORE_PAGES)).values():
            assert len(image) <= PAGE_SIZE and not image.endswith(b"\0")


#: offsets and sizes that are page-aligned about half of the time, so runs,
#: single pages and byte payloads all cross between the two stores
maybe_aligned = st.one_of(
    st.integers(min_value=0, max_value=STORE_PAGES).map(lambda p: p * PAGE_SIZE),
    st.integers(min_value=0, max_value=STORE_LEN),
)
sides = st.integers(min_value=0, max_value=1)
exchange_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), sides,
                  st.integers(min_value=0, max_value=STORE_LEN - 1),
                  st.binary(min_size=1, max_size=512)),
        st.tuples(st.just("dma"), sides, maybe_aligned, maybe_aligned, maybe_aligned),
        st.tuples(st.just("collect"), sides),
        st.tuples(st.just("clone"), sides),
    ),
    min_size=1, max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(ops=exchange_ops)
def test_two_stores_exchanging_pages_match_flat_buffers(ops):
    """Two stores trading ranges the way the NIC's DMA path does (gather a
    payload from one, write it into the other — page runs by reference when
    aligned), interleaved with partial writes to either side, each stay
    indistinguishable from their own flat bytearray: a write replaces an
    image and never mutates a shared one, every image stays in its
    canonical form (zero tail dropped), and the touched/dirty
    bookkeeping is what byte-copying writes would have produced."""
    stores = [PageStore(STORE_LEN), PageStore(STORE_LEN)]
    models = [FlatModel(), FlatModel()]
    for op, side, *args in ops:
        if op == "write":
            offset, data = args
            data = data[: STORE_LEN - offset]
            stores[side].write(offset, data)
            models[side].write(offset, data)
        elif op == "dma":
            src_off, dst_off, size = args
            size = min(size, STORE_LEN - src_off, STORE_LEN - dst_off)
            payload = stores[side].read(src_off, size, as_run=True)
            assert payload == bytes(models[side].flat[src_off:src_off + size])
            stores[1 - side].write(dst_off, payload)
            models[1 - side].write(dst_off, bytes(payload))
        elif op == "collect":
            assert stores[side].collect_dirty() == models[side].dirty
            models[side].dirty = set()
        else:  # the clone carries on; the original must not see its writes
            original, stores[side] = stores[side], stores[side].clone()
            stores[side].write(1, b"clone only")
            models[side].check(original)
            models[side].write(1, b"clone only")
        for store, model in zip(stores, models):
            model.check(store)
    assert PageStore(PAGE_SIZE).read(0, PAGE_SIZE) == bytes(PAGE_SIZE)
    for store, model in zip(stores, models):
        # the pre-copy hand-off: dirty page images rebuild the same bytes
        images = store.snapshot_pages(store.collect_dirty())
        assert {i: image.ljust(PAGE_SIZE, b"\0") for i, image in images.items()} == {
            i: bytes(model.flat[i * PAGE_SIZE:(i + 1) * PAGE_SIZE]) for i in model.dirty}
        restored = PageStore(STORE_LEN)
        restored.install_pages(images)
        assert restored.dirty_pages == set()
        for i in model.dirty:
            assert restored.read(i * PAGE_SIZE, PAGE_SIZE) == images[i].ljust(PAGE_SIZE, b"\0")


@settings(max_examples=60, deadline=None)
@given(ops=write_ops, moves=st.integers(min_value=1, max_value=4))
def test_mremap_preserves_contents(ops, moves):
    """Contents survive any chain of mremap relocations (the §3.2/§3.3
    restore primitive)."""
    space = AddressSpace("prop")
    base = 0x1000_0000
    space.mmap(STORE_LEN, addr=base)
    reference = bytearray(STORE_LEN)
    for offset, data in ops:
        data = data[: STORE_LEN - offset]
        space.write(base + offset, data)
        reference[offset:offset + len(data)] = data
    addr = base
    for i in range(moves):
        new_addr = base + (i + 1) * 0x100_0000
        space.mremap(addr, new_addr)
        addr = new_addr
    assert space.read(addr, STORE_LEN) == bytes(reference)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(
    st.lists(
        st.tuples(st.sampled_from(["mmap", "mmap", "mmap_any", "mremap", "munmap"]),
                  st.integers(min_value=0, max_value=47),
                  st.integers(min_value=1, max_value=6)),
        min_size=1, max_size=40,
    )
)
def test_address_space_never_overlaps(ops):
    """No operation sequence can produce overlapping VMAs.  A fixed-address
    ``mmap`` / ``mremap`` is rejected exactly when a linear scan over a
    model of the live ranges says it overlaps (and a rejected ``mremap``
    leaves the VMA where it was), a hint-free ``mmap`` lands clear of all
    of them, and ``vmas`` stays sorted and disjoint after every step.
    Fixed placements sit at page granularity on the hint-free region, so
    partial overlaps and the free-slot search meet."""
    space = AddressSpace("prop")
    base = AddressSpace.MMAP_BASE
    model = []  # live (start, end) ranges, in creation order

    def clashes(start, end, ignore=None):
        return any(s < end and start < e for s, e in model if (s, e) != ignore)

    for op, page, pages in ops:
        addr = base + page * PAGE_SIZE
        length = pages * PAGE_SIZE
        if op == "mmap":
            if clashes(addr, addr + length):
                with pytest.raises(MemoryError_):
                    space.mmap(length, addr=addr)
            else:
                assert space.mmap(length, addr=addr).start == addr
                model.append((addr, addr + length))
        elif op == "mmap_any":
            vma = space.mmap(length)
            assert vma.length == length
            assert not clashes(vma.start, vma.end)
            model.append((vma.start, vma.end))
        elif op == "mremap" and model:
            old = model[page % len(model)]
            size = old[1] - old[0]
            if clashes(addr, addr + size, ignore=old):
                with pytest.raises(MemoryError_):
                    space.mremap(old[0], addr)
            else:
                space.mremap(old[0], addr)
                model[model.index(old)] = (addr, addr + size)
        elif op == "munmap":
            live = [r for r in model if r[0] == addr]
            if live:
                space.munmap(addr)
                model.remove(live[0])
            else:
                with pytest.raises(MemoryError_):
                    space.munmap(addr)
        vmas = space.vmas
        assert [(v.start, v.end) for v in vmas] == sorted(model)
        for a, b in zip(vmas, vmas[1:]):
            assert a.end <= b.start
        for start, end in model:
            assert space.find(start).start == start
            assert space.find(end - 1).start == start


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_reads_never_cross_into_unmapped(data):
    space = AddressSpace("prop")
    space.mmap(2 * PAGE_SIZE, addr=0x3000_0000)
    offset = data.draw(st.integers(min_value=0, max_value=2 * PAGE_SIZE))
    size = data.draw(st.integers(min_value=1, max_value=3 * PAGE_SIZE))
    if offset + size <= 2 * PAGE_SIZE:
        assert len(space.read(0x3000_0000 + offset, size)) == size
    else:
        with pytest.raises(MemoryError_):
            space.read(0x3000_0000 + offset, size)
