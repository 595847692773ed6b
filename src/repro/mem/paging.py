"""Page store: the "physical" backing of a VMA.

A page is one immutable ``bytes`` image of at most ``PAGE_SIZE`` bytes with
its trailing zero bytes dropped; a page never written is ``None``, and both
read as zeros.  A write replaces a page's image and never mutates one, so
any number of stores, payloads and checkpoint images may hold the same
image by reference.

A store indexes its pages the way an MMU page table (or CRIU's pagemap)
does: a dense ``list`` with one slot per page, 8 bytes a page whether
written or not.  An aligned bulk write is one slice assignment, and no
per-page key object exists.  A list also accepts negative indices, so
every entry point range-checks its offsets and page indices first.

Dirty tracking follows Linux soft-dirty bits, which CRIU's iterative
pre-dump reads: every page a process has touched counts as dirty until the
first pre-dump clears the bits.  So a store holds no dirty set until its
first :meth:`PageStore.collect_dirty` (or after
:meth:`PageStore.mark_all_dirty`); until then every materialised page is
dirty, and a buffer that never migrates never pays for a set.  From then
on the set records which pages changed since the last collection — the
hook the pre-copy loop uses.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, Optional, Set, Union

from repro.config import PAGE_SIZE

#: Zeros for reads of never-written ranges.
_ZERO_PAGE = bytes(PAGE_SIZE)


class PageRun:
    """A bulk payload: consecutive whole page images, held by reference.

    What the NIC's DMA path carries from one :class:`PageStore` to another
    in place of one joined ``bytes``.  The pages are immutable ``bytes`` of
    at most ``PAGE_SIZE`` bytes, each standing for itself zero-padded to a
    whole page, so a run is fixed once built and any number of stores may
    hold the same page objects.  It answers what a payload is asked —
    ``len()``, truthiness, ``bytes()``, ``==`` against bytes or another run,
    and slicing; a slice on page boundaries is again a run (or the one
    page, padded, or ``b""``), any other slice materialises.
    """

    __slots__ = ("pages", "_nbytes")

    def __init__(self, pages: List[bytes]):
        self.pages = pages
        self._nbytes = len(pages) * PAGE_SIZE  # a run is fixed once built

    def __len__(self) -> int:
        return self._nbytes

    def __bytes__(self) -> bytes:
        return b"".join(map(bytes.ljust, self.pages, repeat(PAGE_SIZE), repeat(b"\0")))

    def __eq__(self, other) -> bool:
        if type(other) is PageRun:
            return self.pages == other.pages or (
                len(other) == len(self) and bytes(self) == bytes(other))
        if isinstance(other, (bytes, bytearray, memoryview)):
            return len(other) == len(self) and bytes(self) == other
        return NotImplemented

    def __getitem__(self, key):
        if type(key) is slice:
            start, stop, step = key.indices(len(self))
            if step == 1 and start % PAGE_SIZE == 0 and stop % PAGE_SIZE == 0:
                pages = self.pages[start // PAGE_SIZE:stop // PAGE_SIZE]
                if len(pages) == len(self.pages):
                    return self
                if len(pages) > 1:
                    return PageRun(pages)
                return pages[0].ljust(PAGE_SIZE, b"\0") if pages else b""
        return bytes(self)[key]

    def __repr__(self) -> str:
        return f"<PageRun {len(self.pages)} pages>"


#: What a read may return and a write accepts.
Payload = Union[bytes, PageRun]


class PageStore:
    """Page-indexed byte storage with dirty tracking.

    Offsets are relative to the start of the owning VMA; the store survives
    ``mremap`` untouched, which is exactly the "physical address unchanged"
    semantics the paper depends on.
    """

    def __init__(self, length: int):
        if length <= 0 or length % PAGE_SIZE != 0:
            raise ValueError(f"length must be a positive multiple of {PAGE_SIZE}, got {length}")
        self.length = length
        #: one slot per page: its image (trailing zeros dropped), or None for
        #: a page never written; both read as zeros
        self._pages: List[Optional[bytes]] = [None] * (length // PAGE_SIZE)
        #: pages written since the last collection; None while every
        #: materialised page is dirty (soft-dirty bits never cleared)
        self._dirty: Optional[Set[int]] = None

    @property
    def num_pages(self) -> int:
        return self.length // PAGE_SIZE

    @property
    def touched_pages(self) -> int:
        return len(self._pages) - self._pages.count(None)

    def _materialised(self) -> Set[int]:
        """Indices of every page ever written."""
        return {index for index, page in enumerate(self._pages) if page is not None}

    def _check_range(self, offset: int, size: int) -> None:
        if offset < 0 or size < 0 or offset + size > self.length:
            raise ValueError(f"range [{offset}, {offset + size}) outside store of length {self.length}")

    def read(self, offset: int, size: int, as_run: bool = False) -> Payload:
        """Read ``size`` bytes at ``offset``.

        Always ``bytes`` unless ``as_run`` (the NIC's DMA path): then a
        page-aligned range of two or more whole pages comes back as a
        :class:`PageRun` of the page images themselves — no payload byte
        is copied, and since a write replaces an image rather than
        mutating it, the payload is fixed at gather time.
        """
        if offset < 0 or size <= 0 or offset + size > self.length:
            self._check_range(offset, size)  # raises, unless an empty read
            return b""  # (its offset may be one past the last page)
        pages = self._pages
        index, within = divmod(offset, PAGE_SIZE)
        if within + size <= PAGE_SIZE:
            # Fast path: the read stays within one page.
            page = pages[index]
            if page is None:
                return _ZERO_PAGE[:size]
            end = within + size
            if page[end - 1:end]:
                return page[within:end]  # the image covers the range
            return page[within:end].ljust(size, b"\0")
        if within == 0 and size % PAGE_SIZE == 0:
            # Page-aligned whole pages (the bulk-transfer common case): one
            # slice of the table, every image taken by reference.
            span = pages[index:index + size // PAGE_SIZE]
            if None in span:
                span = [b"" if page is None else page for page in span]
            run = PageRun(span)
            return run if as_run else bytes(run)
        chunks = []
        while size > 0:
            take = PAGE_SIZE - within
            if take > size:
                take = size
            chunks.append((pages[index] or b"")[within:within + take].ljust(take, b"\0"))
            size -= take
            index += 1
            within = 0
        return b"".join(chunks)

    def write(self, offset: int, data: Payload, size: Optional[int] = None) -> None:
        """Write ``data`` at ``offset``; ``size`` is ``len(data)``, passed
        by a caller that has it already (the address space)."""
        if size is None:
            size = len(data)
        if offset < 0 or offset + size > self.length:
            self._check_range(offset, size)  # raises
        pages = self._pages
        dirty = self._dirty
        index, within = divmod(offset, PAGE_SIZE)
        if type(data) is not bytes:
            if type(data) is PageRun and within == 0:
                # Aligned run: install the page images themselves.
                end = index + size // PAGE_SIZE
                pages[index:end] = data.pages
                if dirty is not None:
                    dirty.update(range(index, end))
                return
            data = bytes(data)  # images are immutable
        pos = 0
        while pos < size:
            take = PAGE_SIZE - within
            if take > size - pos:
                take = size - pos
            if take == PAGE_SIZE:
                page = data if size == PAGE_SIZE else data[pos:pos + PAGE_SIZE]
                tail = b""
            else:
                # A partial write builds a new image: the old one's head
                # (zero-padded up to the write) and tail around the bytes.
                page = pages[index] or b""
                tail = page[within + take:]
                if within:
                    page = page[:within].ljust(within, b"\0") + data[pos:pos + take] + tail
                else:
                    page = data[pos:pos + take] + tail
            if not tail and not data[pos + take - 1]:
                page = page.rstrip(b"\0")  # the image ends in written zeros
            pages[index] = page
            if dirty is not None:
                dirty.add(index)
            pos += take
            index += 1
            within = 0

    # -- dirty tracking ----------------------------------------------------

    @property
    def dirty_pages(self) -> Set[int]:
        return self._materialised() if self._dirty is None else set(self._dirty)

    def collect_dirty(self) -> Set[int]:
        """Return and clear the set of dirty page indices."""
        dirty, self._dirty = self._dirty, set()
        return self._materialised() if dirty is None else dirty

    def mark_all_dirty(self) -> None:
        """Mark every materialised page dirty (first pre-copy iteration)."""
        self._dirty = None

    # -- snapshot / restore --------------------------------------------------

    def snapshot_pages(self, indices) -> Dict[int, bytes]:
        """The given pages' images, by reference (``b""`` for a page never
        written)."""
        indices = list(indices)
        if indices and (min(indices) < 0 or max(indices) >= self.num_pages):
            bad = next(i for i in indices if not 0 <= i < self.num_pages)
            raise ValueError(f"page index {bad} outside store")
        pages = self._pages
        return {index: pages[index] or b"" for index in indices}

    def install_pages(self, pages: Dict[int, bytes]) -> None:
        """Install page images (from a migration transfer) into the store.

        An image may be any length up to ``PAGE_SIZE``; the rest of its page
        reads as zeros.  Installed pages are not dirty."""
        if self._dirty is None:
            self._dirty = self._materialised()  # earlier writes stay dirty
        for index, content in pages.items():
            if len(content) > PAGE_SIZE:
                raise ValueError(f"page image must be at most {PAGE_SIZE} bytes, got {len(content)}")
            if index < 0 or index >= self.num_pages:
                raise ValueError(f"page index {index} outside store")
            self._pages[index] = bytes(content).rstrip(b"\0")

    def clone(self) -> "PageStore":
        other = PageStore(self.length)
        other._pages = list(self._pages)
        other._dirty = None if self._dirty is None else set(self._dirty)
        return other
