"""Process virtual-memory substrate.

Models what CRIU manipulates during live migration: page-granular virtual
address spaces made of VMAs backed by page stores.  Page contents are real
bytes, so that RDMA operations move actual bytes and the correctness
checks (no loss/duplication/corruption across migration) are meaningful.
A page is one immutable image with its zero tail dropped; a write replaces
it, so stores, payloads and checkpoint images share images by reference.
A store indexes its pages in a dense table, one slot a page (DESIGN.md
§12.9).
``mremap`` relocates a VMA's virtual range while keeping its backing
store — the primitive the paper relies on to restore MR memory and
on-chip memory at the application's original virtual addresses (§3.2,
§3.3).  Bulk RDMA payloads cross from one store to another as a
:class:`PageRun` — the page images themselves, by reference (DESIGN.md
§12.3).
"""

from repro.mem.paging import PageRun, PageStore, Payload
from repro.mem.address_space import VMA, AddressSpace, MemoryError_, align_down, align_up

__all__ = [
    "VMA",
    "AddressSpace",
    "MemoryError_",
    "PageRun",
    "PageStore",
    "Payload",
    "align_down",
    "align_up",
]
