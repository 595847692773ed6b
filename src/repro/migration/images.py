"""Checkpoint image structures.

An image is what CRIU writes to disk and what the live-migration tool ships
to the destination: the VMA table, page contents, and opaque per-process
state.  Sizes are explicit so transfer time falls out of the TCP model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.config import PAGE_SIZE
from repro.cluster import AppProcess, Container

#: Estimated serialized size of one VMA table row and of misc process state.
VMA_ROW_BYTES = 64
PROCESS_MISC_BYTES = 24 * 1024


@dataclass
class MemoryImage:
    """Pages and layout of one process's address space at one instant."""

    #: (start, length, tag, name) rows — CRIU's "memory table".
    layout: List[Tuple[int, int, str, str]] = field(default_factory=list)
    #: vma start -> {page index -> page image}
    pages: Dict[int, Dict[int, bytes]] = field(default_factory=dict)
    #: opaque heap bytes (content-free bulk memory, e.g. a JVM heap)
    synthetic_bytes: int = 0

    @property
    def page_count(self) -> int:
        return sum(len(p) for p in self.pages.values())

    @property
    def size_bytes(self) -> int:
        return (self.page_count * PAGE_SIZE + len(self.layout) * VMA_ROW_BYTES
                + self.synthetic_bytes)

    def merge(self, newer: "MemoryImage") -> None:
        """Overlay a later (incremental) image onto this one."""
        if newer.layout:
            self.layout = newer.layout
        for start, pages in newer.pages.items():
            self.pages.setdefault(start, {}).update(pages)


@dataclass
class ProcessImage:
    """One process: memory plus opaque task state (fds, creds, sigmask...)."""

    pid: int
    name: str
    memory: MemoryImage = field(default_factory=MemoryImage)
    misc_bytes: int = PROCESS_MISC_BYTES

    @property
    def size_bytes(self) -> int:
        return self.memory.size_bytes + self.misc_bytes


@dataclass
class ContainerImage:
    """The unit shipped between migration source and destination."""

    container_id: str
    name: str
    processes: List[ProcessImage] = field(default_factory=list)
    #: Opaque RDMA dump produced by the MigrRDMA plugin (bytes size only —
    #: the actual record objects travel alongside in `rdma_records`).
    rdma_bytes: int = 0
    rdma_records: object = None

    @property
    def size_bytes(self) -> int:
        return sum(p.size_bytes for p in self.processes) + self.rdma_bytes

    def merge(self, newer: "ContainerImage") -> None:
        by_pid = {p.pid: p for p in self.processes}
        for image in newer.processes:
            if image.pid in by_pid:
                by_pid[image.pid].memory.merge(image.memory)
            else:
                self.processes.append(image)
        if newer.rdma_bytes:
            self.rdma_bytes = newer.rdma_bytes
        if newer.rdma_records is not None:
            self.rdma_records = newer.rdma_records


def snapshot_container(container: Container, full: bool, now: float = 0.0) -> ContainerImage:
    """Build an image from current memory (full or dirty-only pages)."""
    image = ContainerImage(container_id=container.container_id, name=container.name)
    for process in container.processes:
        image.processes.append(snapshot_process(process, full=full, now=now))
    return image


def snapshot_process(process: AppProcess, full: bool, now: float = 0.0) -> ProcessImage:
    memory = MemoryImage(layout=process.space.layout())
    if full:
        process.space.mark_all_dirty()
    memory.pages = process.space.collect_dirty()
    memory.synthetic_bytes = process.synthetic_dirty_bytes(now, full)
    return ProcessImage(pid=process.pid, name=process.name, memory=memory)
