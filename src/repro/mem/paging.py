"""Page store: the "physical" backing of a VMA.

Pages are materialised lazily (a page never written reads as zeros) and a
dirty set records which pages changed since the last
:meth:`PageStore.collect_dirty` — the hook the pre-copy loop uses.
"""

from __future__ import annotations

from typing import Dict, List, Set, Union

from repro.config import PAGE_SIZE

#: Shared zero page for reads of never-written ranges.
_ZERO_PAGE = bytes(PAGE_SIZE)


class PageRun:
    """A bulk payload: consecutive whole page images, held by reference.

    What the NIC's DMA path carries from one :class:`PageStore` to another
    in place of one joined ``bytes``.  The pages are immutable ``bytes``,
    so a run is fixed once built and any number of stores may hold the same
    page objects.  It answers what a payload is asked — ``len()``,
    truthiness, ``bytes()``, ``==`` against bytes, and slicing; a slice on
    page boundaries is again a run (or the one page, or ``b""``), any other
    slice materialises.
    """

    __slots__ = ("pages", "_nbytes")

    def __init__(self, pages: List[bytes]):
        self.pages = pages
        self._nbytes = len(pages) * PAGE_SIZE  # a run is fixed once built

    def __len__(self) -> int:
        return self._nbytes

    def __bytes__(self) -> bytes:
        return b"".join(self.pages)

    def __eq__(self, other) -> bool:
        if type(other) is PageRun:
            return self.pages == other.pages
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
                return pages[0] if pages else b""
        return bytes(self)[key]

    def __repr__(self) -> str:
        return f"<PageRun {len(self.pages)} pages>"


#: What a read may return and a write accepts.
Payload = Union[bytes, PageRun]


class PageStore:
    """Sparse page-indexed byte storage with dirty tracking.

    Offsets are relative to the start of the owning VMA; the store survives
    ``mremap`` untouched, which is exactly the "physical address unchanged"
    semantics the paper depends on.
    """

    def __init__(self, length: int):
        if length <= 0 or length % PAGE_SIZE != 0:
            raise ValueError(f"length must be a positive multiple of {PAGE_SIZE}, got {length}")
        self.length = length
        #: Whole-page writes are stored as immutable ``bytes`` (zero-copy to
        #: read back); partially-written pages are mutable bytearrays.
        self._pages: Dict[int, Union[bytes, bytearray]] = {}
        self._dirty: Set[int] = set()

    @property
    def num_pages(self) -> int:
        return self.length // PAGE_SIZE

    @property
    def touched_pages(self) -> int:
        return len(self._pages)

    def _page(self, index: int) -> bytearray:
        """Materialise page ``index`` as a mutable bytearray.

        Pages written whole are stored as immutable ``bytes`` (cheap to
        store and to read back); this converts such a page copy-on-write.
        """
        page = self._pages.get(index)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[index] = page
        elif type(page) is bytes:
            page = bytearray(page)
            self._pages[index] = page
        return page

    def _check_range(self, offset: int, size: int) -> None:
        if offset < 0 or size < 0 or offset + size > self.length:
            raise ValueError(f"range [{offset}, {offset + size}) outside store of length {self.length}")

    def read(self, offset: int, size: int, as_run: bool = False) -> Payload:
        """Read ``size`` bytes at ``offset``.

        Always ``bytes`` unless ``as_run`` (the NIC's DMA path): then a
        page-aligned range of two or more whole pages comes back as a
        :class:`PageRun` of the page images themselves — no payload byte
        is copied except for pages that are mutable right now, which are
        snapshotted so the payload is fixed at gather time.
        """
        if offset < 0 or size < 0 or offset + size > self.length:
            self._check_range(offset, size)  # raises
        pages = self._pages
        index, within = divmod(offset, PAGE_SIZE)
        if within + size <= PAGE_SIZE:
            # Fast path: the read stays within one page.
            page = pages.get(index)
            if page is None:
                return _ZERO_PAGE[:size]
            if size == PAGE_SIZE and type(page) is bytes:
                return page  # whole immutable page: zero-copy
            return bytes(page[within:within + size])
        if within == 0 and size % PAGE_SIZE == 0:
            # Page-aligned whole pages (the bulk-transfer common case):
            # one lookup per page, immutable pages taken by reference.
            images = [
                page if type(page) is bytes
                else (_ZERO_PAGE if page is None else bytes(page))
                for page in map(pages.get, range(index, index + size // PAGE_SIZE))]
            return PageRun(images) if as_run else b"".join(images)
        chunks = []
        while size > 0:
            take = PAGE_SIZE - within
            if take > size:
                take = size
            page = pages.get(index)
            if page is None:
                chunks.append(_ZERO_PAGE[:take])
            elif take == PAGE_SIZE:
                chunks.append(page if type(page) is bytes else bytes(page))
            else:
                chunks.append(bytes(page[within:within + take]))
            size -= take
            index += 1
            within = 0
        return b"".join(chunks)

    def write(self, offset: int, data: Payload) -> None:
        size = len(data)
        if offset < 0 or offset + size > self.length:
            self._check_range(offset, size)  # raises
        pages = self._pages
        dirty = self._dirty
        index, within = divmod(offset, PAGE_SIZE)
        if type(data) is PageRun:
            if within == 0:
                # Aligned run: install the page images themselves.  They
                # may now be shared with the store they were gathered
                # from; both sides only ever mutate a copy (see _page).
                span = range(index, index + size // PAGE_SIZE)
                pages.update(zip(span, data.pages))
                dirty.update(span)
                return
            data = bytes(data)
        pos = 0
        while pos < size:
            take = PAGE_SIZE - within
            if take > size - pos:
                take = size - pos
            if take == PAGE_SIZE:
                # Whole-page store: keep the immutable slice itself (bytes
                # for a bytes source is zero-copy; partial writes convert
                # copy-on-write via _page).
                if size == PAGE_SIZE:
                    pages[index] = bytes(data)
                else:
                    pages[index] = bytes(data[pos:pos + PAGE_SIZE])
            else:
                self._page(index)[within:within + take] = data[pos:pos + take]
            dirty.add(index)
            pos += take
            index += 1
            within = 0

    # -- dirty tracking ----------------------------------------------------

    @property
    def dirty_pages(self) -> Set[int]:
        return set(self._dirty)

    def collect_dirty(self) -> Set[int]:
        """Return and clear the set of dirty page indices."""
        dirty, self._dirty = self._dirty, set()
        return dirty

    def mark_all_dirty(self) -> None:
        """Mark every materialised page dirty (first pre-copy iteration)."""
        self._dirty = set(self._pages.keys())

    # -- snapshot / restore --------------------------------------------------

    def snapshot_pages(self, indices) -> Dict[int, bytes]:
        """Copy out the given pages (zeros for never-written pages)."""
        out = {}
        for index in indices:
            if index < 0 or index >= self.num_pages:
                raise ValueError(f"page index {index} outside store")
            page = self._pages.get(index)
            out[index] = bytes(page) if page is not None else b"\x00" * PAGE_SIZE
        return out

    def install_pages(self, pages: Dict[int, bytes]) -> None:
        """Write page images (from a migration transfer) into the store."""
        for index, content in pages.items():
            if len(content) != PAGE_SIZE:
                raise ValueError(f"page image must be {PAGE_SIZE} bytes, got {len(content)}")
            if index < 0 or index >= self.num_pages:
                raise ValueError(f"page index {index} outside store")
            self._pages[index] = bytes(content)

    def clone(self) -> "PageStore":
        other = PageStore(self.length)
        # Immutable pages can be shared; mutable ones must be copied.
        other._pages = {i: p if type(p) is bytes else bytearray(p)
                        for i, p in self._pages.items()}
        other._dirty = set(self._dirty)
        return other
