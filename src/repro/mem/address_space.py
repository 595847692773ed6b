"""Virtual address spaces and VMAs.

An :class:`AddressSpace` is an ordered, non-overlapping set of
:class:`VMA` regions, each backed by a :class:`~repro.mem.paging.PageStore`.
The operations mirror what CRIU and the RDMA driver do on Linux:

- ``mmap`` with or without a fixed address (the restorer maps images at a
  temporary location; applications map at chosen addresses),
- ``mremap`` to move a VMA to a new virtual address *keeping its backing
  store* — used to put RDMA memory structures back at the application's
  original addresses during partial restore (§3.2) and to relocate on-chip
  memory mappings (§3.3),
- byte-level ``read``/``write`` that may span VMAs (RDMA data movement).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.config import PAGE_SIZE
from repro.mem.paging import PageStore, Payload


class MemoryError_(Exception):
    """Address-space misuse: overlaps, unmapped access, bad alignment."""


def align_up(value: int, alignment: int = PAGE_SIZE) -> int:
    return (value + alignment - 1) // alignment * alignment


def align_down(value: int, alignment: int = PAGE_SIZE) -> int:
    return value // alignment * alignment


class VMA:
    """A contiguous mapped virtual range backed by a page store."""

    __slots__ = ("start", "store", "tag", "name")

    def __init__(self, start: int, store: PageStore, tag: str = "anon", name: str = ""):
        if start % PAGE_SIZE != 0:
            raise MemoryError_(f"VMA start {start:#x} is not page aligned")
        self.start = start
        self.store = store
        self.tag = tag
        self.name = name

    @property
    def length(self) -> int:
        return self.store.length

    @property
    def end(self) -> int:
        return self.start + self.length

    def contains(self, addr: int, size: int = 1) -> bool:
        return self.start <= addr and addr + size <= self.end

    def __repr__(self) -> str:
        return f"<VMA {self.start:#x}-{self.end:#x} tag={self.tag} name={self.name!r}>"


class AddressSpace:
    """A process's virtual memory: sorted, non-overlapping VMAs."""

    #: Default placement base for address-hint-free mmap, like mmap_min_addr
    #: plus a healthy offset.
    MMAP_BASE = 0x7F00_0000_0000

    def __init__(self, name: str = ""):
        self.name = name
        self._vmas: List[VMA] = []  # kept sorted by start
        self._next_hint = self.MMAP_BASE
        self._hot_vma: Optional[VMA] = None  # last find() hit

    # -- lookup ------------------------------------------------------------

    def __iter__(self):
        return iter(self._vmas)

    def __len__(self) -> int:
        return len(self._vmas)

    @property
    def vmas(self) -> List[VMA]:
        return list(self._vmas)

    def find(self, addr: int) -> Optional[VMA]:
        """The VMA containing ``addr``, or None."""
        vma = self._hot_vma
        if vma is not None and vma.start <= addr < vma.start + vma.store.length:
            return vma
        vmas = self._vmas
        lo, hi = 0, len(vmas)
        while lo < hi:
            mid = (lo + hi) // 2
            vma = vmas[mid]
            if addr < vma.start:
                hi = mid
            elif addr >= vma.start + vma.store.length:
                lo = mid + 1
            else:
                self._hot_vma = vma
                return vma
        return None

    def find_range(self, addr: int, size: int) -> VMA:
        """The single VMA fully containing [addr, addr+size), else raise."""
        vma = self.find(addr)
        if vma is None or not vma.contains(addr, max(size, 1)):
            raise MemoryError_(
                f"{self.name}: range [{addr:#x}, {addr + size:#x}) not contained in one VMA"
            )
        return vma

    def _first_ending_above(self, addr: int) -> int:
        """Index of the first VMA that ends above ``addr``.  The list is
        sorted by start and disjoint, so it is sorted by end too: this one
        bisect finds where an overlap with ``[addr, ...)`` would begin, and
        where a mapping starting at ``addr`` belongs."""
        vmas = self._vmas
        lo, hi = 0, len(vmas)
        while lo < hi:
            mid = (lo + hi) // 2
            vma = vmas[mid]
            if vma.start + vma.store.length <= addr:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def vmas_overlapping(self, start: int, end: int) -> List[VMA]:
        vmas = self._vmas
        first = last = self._first_ending_above(start)
        while last < len(vmas) and vmas[last].start < end:
            last += 1
        return vmas[first:last]

    # -- mapping operations --------------------------------------------------

    def _insert(self, vma: VMA) -> VMA:
        vmas = self._vmas
        index = self._first_ending_above(vma.start)
        if index < len(vmas) and vmas[index].start < vma.end:
            raise MemoryError_(f"{self.name}: mapping at {vma.start:#x} overlaps an existing VMA")
        vmas.insert(index, vma)
        return vma

    def mmap(
        self,
        length: int,
        addr: Optional[int] = None,
        tag: str = "anon",
        name: str = "",
        store: Optional[PageStore] = None,
    ) -> VMA:
        """Map a new region.  With ``addr`` the placement is fixed (and must
        be free); otherwise the space picks the next free slot.  An existing
        ``store`` can be supplied to map shared/restored backing memory.
        """
        length = align_up(length)
        if length <= 0:
            raise MemoryError_("mmap length must be positive")
        if store is not None and store.length != length:
            raise MemoryError_("supplied store length does not match mapping length")
        if addr is None:
            addr = self._find_free(length)
        elif addr % PAGE_SIZE != 0:
            raise MemoryError_(f"fixed mmap address {addr:#x} is not page aligned")
        return self._insert(VMA(addr, store or PageStore(length), tag=tag, name=name))

    def _find_free(self, length: int) -> int:
        addr = self._next_hint
        while True:
            blocking = self.vmas_overlapping(addr, addr + length)
            if not blocking:
                break
            addr = align_up(blocking[-1].end)  # sorted: the last ends highest
        self._next_hint = addr + length
        return addr

    def munmap(self, addr: int) -> VMA:
        """Unmap the VMA starting exactly at ``addr``; returns it."""
        for i, vma in enumerate(self._vmas):
            if vma.start == addr:
                self._hot_vma = None
                return self._vmas.pop(i)
        raise MemoryError_(f"{self.name}: no VMA starts at {addr:#x}")

    def mremap(self, old_addr: int, new_addr: int) -> VMA:
        """Move a VMA to ``new_addr``, keeping its backing store.

        This is the Linux ``mremap(MREMAP_FIXED)`` semantics §3.3 relies on:
        "only changes the virtual memory address and keeps the physical
        address unchanged".
        """
        vma = self.munmap(old_addr)
        try:
            vma_new = VMA(new_addr, vma.store, tag=vma.tag, name=vma.name)
            return self._insert(vma_new)
        except MemoryError_:
            self._insert(vma)  # roll back
            raise

    # -- data access ---------------------------------------------------------

    def _spans(self, addr: int, size: int, op: str) -> List[Tuple[VMA, int, int]]:
        """``(vma, offset, length)`` pieces covering ``[addr, addr+size)``;
        raises on a hole, before the caller has touched anything."""
        spans = []
        while size > 0:
            vma = self.find(addr)
            if vma is None:
                raise MemoryError_(f"{self.name}: {op} fault at {addr:#x}")
            take = min(size, vma.end - addr)
            spans.append((vma, addr - vma.start, take))
            addr += take
            size -= take
        return spans

    def read(self, addr: int, size: int, as_run: bool = False) -> Payload:
        """Read bytes, spanning VMAs if contiguous; raises on holes.

        Applications always get ``bytes``.  The NIC's DMA path passes
        ``as_run`` and may get a :class:`~repro.mem.paging.PageRun`.
        """
        vma = self.find(addr)
        if vma is None:
            raise MemoryError_(f"{self.name}: read fault at {addr:#x}")
        if addr + size <= vma.start + vma.store.length:
            # Fast path: the whole range lives in one VMA.
            return vma.store.read(addr - vma.start, size, as_run)
        return b"".join(vma.store.read(offset, take)
                        for vma, offset, take in self._spans(addr, size, "read"))

    def write(self, addr: int, data: Payload) -> None:
        """Write bytes, spanning VMAs if contiguous; raises on holes
        without having written anything."""
        size = len(data)
        vma = self.find(addr)
        if vma is not None and addr + size <= vma.start + vma.store.length:
            # Fast path: the whole range lives in one VMA.
            vma.store.write(addr - vma.start, data, size)
            return
        pos = 0
        for vma, offset, take in self._spans(addr, size, "write"):
            vma.store.write(offset, data[pos:pos + take], take)
            pos += take

    # -- migration support -----------------------------------------------------

    def total_mapped_bytes(self) -> int:
        return sum(v.length for v in self._vmas)

    def mark_all_dirty(self) -> None:
        for vma in self._vmas:
            vma.store.mark_all_dirty()

    def collect_dirty(self) -> Dict[int, Dict[int, bytes]]:
        """Dirty page images keyed by VMA start address then page index."""
        out: Dict[int, Dict[int, bytes]] = {}
        for vma in self._vmas:
            dirty = vma.store.collect_dirty()
            if dirty:
                out[vma.start] = vma.store.snapshot_pages(dirty)
        return out

    def dirty_page_count(self) -> int:
        return sum(len(v.store.dirty_pages) for v in self._vmas)

    def layout(self) -> List[Tuple[int, int, str, str]]:
        """(start, length, tag, name) tuples — the 'memory table' CRIU dumps."""
        return [(v.start, v.length, v.tag, v.name) for v in self._vmas]
