"""The CRIU-like checkpoint/restore engine.

Implements what the paper's modified CRIU does (§4):

- iterative memory pre-copy with dirty-page tracking,
- the **partial restore / full restore split**: during partial restore the
  destination maps the application's memory at a *temporary* location (the
  reason naive MR registration is impossible during pre-copy, §2.2), and
  only the final full restore ``mremap``s everything to the original
  virtual addresses,
- a plugin interface with the hooks MigrRDMA needs: pin chosen VMAs at
  their original addresses *before* memory restoration starts, dump/restore
  opaque RDMA state, and run post-restore fixups,
- the restorer's own temporary memory, which can conflict with MRs the
  source registered after pre-copy began (those MRs must be restored after
  full restore releases the restorer memory).

Costs follow :class:`repro.config.MigrationConfig`; the superlinear
per-VMA dump term models the "inefficient CRIU implementation for large
and complicated memory structures" the paper observes in Figure 3.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

from repro.cluster import AppProcess, Container, Server
from repro.config import Config
from repro.mem import PageStore
from repro.migration.images import (
    ContainerImage,
    ProcessImage,
    snapshot_container,
)
from repro.sim import Simulator

#: Non-pinned VMAs are parked at original + TEMP_OFFSET during partial
#: restore, then mremap-ed home at full restore.
TEMP_OFFSET = 0x0400_0000_0000

#: Size of the restorer's own working memory per process.
RESTORER_BYTES = 4 * 1024 * 1024


class CriuPlugin:
    """Hook protocol for checkpoint/restore extensions (all optional).

    MigrRDMA's plugin (:mod:`repro.core.plugin`) implements these; the
    default implementation is inert so the engine also works for plain
    containers.
    """

    def pre_dump_rdma(self, container: Container):
        """Generator: dump RDMA state at pre-copy start; returns (records, nbytes)."""
        yield from ()
        return None, 0

    def dump_rdma_diff(self, container: Container):
        """Generator: dump the stop-and-copy RDMA diff; returns (records, nbytes)."""
        yield from ()
        return None, 0

    def pinned_ranges(self, session: "RestoreSession", image: ProcessImage) -> List[Tuple[int, int]]:
        """Address ranges that must be mapped at their original virtual
        addresses before memory restoration starts (RDMA memory, §3.2)."""
        return []

    def pre_restore(self, session: "RestoreSession"):
        """Generator: runs after pinned mapping, before page restoration
        (MigrRDMA performs RDMA pre-setup here)."""
        yield from ()

    def post_restore(self, session: "RestoreSession"):
        """Generator: runs after full restore (map new resources, replay WRs)."""
        yield from ()


class RestoreSession:
    """State of one in-progress restore on the destination server."""

    def __init__(self, engine: "CriuEngine", image: ContainerImage, dest: Server):
        self.engine = engine
        self.image = image
        self.dest = dest
        self.container = Container(image.name, dest)
        self.container.container_id = image.container_id
        #: pid -> restored AppProcess
        self.processes: Dict[int, AppProcess] = {}
        #: (pid, original vma start) currently mapped at the original address
        self.pinned: Set[Tuple[int, int]] = set()
        #: (pid, original vma start) -> mapped-at address (temp or original)
        self.mapped_at: Dict[Tuple[int, int], int] = {}
        #: pid -> restorer temporary VMA start
        self.restorer_at: Dict[int, int] = {}
        self.fully_restored = False
        #: scratch area for plugins (MigrRDMA stashes its restore state here)
        self.plugin_state: dict = {}

    def process_for(self, pid: int) -> AppProcess:
        return self.processes[pid]


class CriuEngine:
    """Checkpoint/restore primitives, costed in simulated time."""

    def __init__(self, sim: Simulator, config: Config):
        self.sim = sim
        self.config = config

    def _trace_span(self, name: str, args: Optional[dict] = None):
        """Open an observability span on the CRIU lane (None untraced)."""
        tracer = self.sim.tracer
        if tracer is None or not tracer.enabled:
            return None
        return tracer.begin_span(tracer.lane("migration", "criu"), name, args)

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------

    def _vma_count(self, container: Container) -> int:
        return sum(len(p.space) for p in container.processes)

    def dump_pages_time(self, image: ContainerImage) -> float:
        mig = self.config.migration
        nvmas = sum(len(p.memory.layout) for p in image.processes)
        return (
            mig.dump_base_s
            + image.size_bytes / 4096 * mig.dump_per_page_s
            + nvmas * mig.dump_per_vma_s
        )

    def dump_others_time(self, container: Container) -> float:
        """CRIU's task-state dump: superlinear in memory-structure count."""
        mig = self.config.migration
        nvmas = self._vma_count(container)
        superlinear = mig.dump_vma_superlinear_s * nvmas * max(1.0, math.log2(max(nvmas, 2)))
        return mig.dump_base_s + nvmas * mig.dump_per_vma_s + superlinear * nvmas ** 0.5

    def restore_pages_time(self, npages: int, nvmas: int) -> float:
        mig = self.config.migration
        return mig.restore_base_s + npages * mig.restore_per_page_s + nvmas * mig.restore_per_vma_s

    def full_restore_time(self, session: RestoreSession) -> float:
        mig = self.config.migration
        nvmas = sum(len(p.space) for p in session.processes.values())
        return mig.full_restore_base_s + nvmas * mig.full_restore_per_vma_s

    # ------------------------------------------------------------------
    # Checkpoint side
    # ------------------------------------------------------------------

    def checkpoint_memory(self, container: Container, full: bool):
        """Generator: snapshot memory (full or dirty-only) with dump cost.

        CRIU seizes the task tree while dumping, so the container's compute
        loops pause for the dump duration (part of the brownout cost).
        """
        image = snapshot_container(container, full=full, now=self.sim.now)
        dump_time = self.dump_pages_time(image)
        span = self._trace_span("dump-pages",
                                {"bytes": image.size_bytes, "full": full})
        container.pause_for(self.sim, dump_time)
        yield self.sim.timeout(dump_time)
        if span is not None:
            span.end()
        return image

    def checkpoint_others(self, container: Container):
        """Generator: dump non-memory task state (the DumpOthers phase)."""
        span = self._trace_span("dump-others",
                                {"vmas": self._vma_count(container)})
        yield self.sim.timeout(self.dump_others_time(container))
        if span is not None:
            span.end()

    def freeze(self, container: Container) -> None:
        container.freeze()

    # ------------------------------------------------------------------
    # Restore side
    # ------------------------------------------------------------------

    def create_session(self, image: ContainerImage, dest: Server) -> RestoreSession:
        return RestoreSession(self, image, dest)

    def partial_restore(self, session: RestoreSession, plugin: Optional[CriuPlugin] = None):
        """Generator: build process skeletons and restore the first image.

        Pinned ranges (from the plugin) are mapped at their original virtual
        addresses *before* anything else; the restorer then claims its own
        working memory and maps the remaining VMAs at temporary addresses.
        """
        plugin = plugin or CriuPlugin()
        span = self._trace_span("partial-restore",
                                {"processes": len(session.image.processes)})
        for pimage in session.image.processes:
            process = AppProcess(pimage.name, self.config)
            process.pid = pimage.pid  # restored processes keep their pid
            session.processes[pimage.pid] = process
            session.container.processes.append(process)

            pins = plugin.pinned_ranges(session, pimage)
            pinned_starts = self._pin_vmas(session, pimage, pins)

            # The restorer places its working memory in a hole of the final
            # layout: just past the highest VMA the image knows about.  It
            # therefore never collides with memory that existed at pre-copy
            # start — but MRs the source registers *later* grow upward into
            # exactly this region and may collide with it (§3.2).
            layout_top = max((s + l for s, l, _, _ in pimage.memory.layout),
                             default=process.space.MMAP_BASE)
            restorer_vma = process.space.mmap(
                RESTORER_BYTES, addr=layout_top + 4096 * 16,
                tag="restorer", name="criu-restorer")
            session.restorer_at[pimage.pid] = restorer_vma.start

            for start, length, tag, name in pimage.memory.layout:
                if start in pinned_starts:
                    continue
                self._map_at_temp(session, process, pimage.pid, start, length, tag, name)

        # MigrRDMA hook: RDMA pre-setup happens before page restoration.
        yield from plugin.pre_restore(session)
        yield from self.apply_image(session, session.image)
        if span is not None:
            span.end()

    def _pin_vmas(self, session: RestoreSession, pimage: ProcessImage,
                  pins: List[Tuple[int, int]]) -> Set[int]:
        """Map every VMA overlapping a pinned range at its original address."""
        process = session.processes[pimage.pid]
        pinned_starts: Set[int] = set()
        for start, length, tag, name in pimage.memory.layout:
            if any(start < pe and ps < start + length for ps, pe in pins):
                process.space.mmap(length, addr=start, tag=tag, name=name)
                session.pinned.add((pimage.pid, start))
                session.mapped_at[(pimage.pid, start)] = start
                pinned_starts.add(start)
        return pinned_starts

    def _map_at_temp(self, session: RestoreSession, process: AppProcess, pid: int,
                     start: int, length: int, tag: str, name: str) -> None:
        temp = start + TEMP_OFFSET
        process.space.mmap(length, addr=temp, tag=tag, name=name)
        session.mapped_at[(pid, start)] = temp

    def apply_image(self, session: RestoreSession, image: ContainerImage):
        """Generator: write page images into the (partially) restored spaces.

        New VMAs that appeared since the previous iteration are mapped at
        temporary addresses first.
        """
        npages = 0
        nvmas = 0
        for pimage in image.processes:
            process = session.processes.get(pimage.pid)
            if process is None:
                continue
            for start, length, tag, name in pimage.memory.layout:
                key = (pimage.pid, start)
                if key not in session.mapped_at:
                    self._map_at_temp(session, process, pimage.pid, start, length, tag, name)
                    nvmas += 1
            for start, pages in pimage.memory.pages.items():
                mapped = session.mapped_at.get((pimage.pid, start))
                if mapped is None:
                    continue
                vma = process.space.find(mapped)
                if vma is None:
                    raise RuntimeError(f"restore session lost mapping for {start:#x}")
                vma.store.install_pages(pages)
                npages += len(pages)
        span = self._trace_span("restore-pages",
                                {"pages": npages, "new_vmas": nvmas})
        yield self.sim.timeout(self.restore_pages_time(npages, nvmas))
        if span is not None:
            span.end()

    def full_restore(self, session: RestoreSession):
        """Generator: final step — move every temp VMA home and release the
        restorer memory."""
        span = self._trace_span("full-restore")
        yield self.sim.timeout(self.full_restore_time(session))
        if span is not None:
            span.end()
        for pid, process in session.processes.items():
            process.space.munmap(session.restorer_at[pid])
            for (owner_pid, start), mapped in list(session.mapped_at.items()):
                if owner_pid != pid or mapped == start:
                    continue
                process.space.mremap(mapped, start)
                session.mapped_at[(owner_pid, start)] = start
        session.fully_restored = True
        session.dest.adopt_container(session.container)


class PrecopyDecision:
    """The three rungs of the degradation ladder, as string constants so
    reports and logs read naturally."""

    CONTINUE = "continue"
    STOP_COPY = "stop-copy"
    POSTPONE = "postpone"


class PrecopyWatchdog:
    """Per-round convergence tracking for the iterative pre-copy loop.

    CRIU-style pre-copy only terminates usefully when each round ships
    dirty pages faster than the workload re-dirties them.  A hot writer
    or a degraded uplink breaks that: rounds stop shrinking, every extra
    iteration burns transfer bytes without reducing the eventual
    stop-and-copy blackout.  The watchdog observes every round
    (``dirty pages at round start``, ``bytes shipped``, ``round
    duration``) and, when the ladder is armed, walks three rungs:

    1. **adaptive round cap** — after ``precopy_divergence_rounds``
       consecutive rounds in which the dirty set *grew* by at least
       ``precopy_divergence_ratio``, stop iterating early instead of
       grinding out the full ``precopy_max_iterations``;
    2. **bounded stop-and-copy** — capping is only allowed when the
       projected blackout (final ship of the remaining dirty set plus
       the full-restore tail) fits ``precopy_blackout_budget_s``;
    3. **postpone** — otherwise the migration is hopeless right now:
       :class:`~repro.resilience.errors.PrecopyDiverged` rolls the
       transaction back and the fleet scheduler requeues with backoff.

    The ladder is armed only when ``precopy_blackout_budget_s`` is
    finite.  With the default (``inf``) budget the watchdog is a pure
    observer — zero RNG draws, zero scheduled events, zero behaviour
    change — so every pre-existing fault-free timestamp and digest pin
    stays bit-identical.
    """

    def __init__(self, mig):
        self.mig = mig
        #: (dirty_pages_at_round_start, shipped_bytes, round_duration_s)
        self.rounds: List[Tuple[int, int, float]] = []
        self.shipped_bytes_total = 0
        self._bad_streak = 0
        self.capped = False

    @property
    def armed(self) -> bool:
        return math.isfinite(self.mig.precopy_blackout_budget_s)

    def observe(self, dirty_pages_before: int, shipped_bytes: int,
                round_s: float) -> None:
        """Record one completed pre-copy round."""
        self.rounds.append((dirty_pages_before, shipped_bytes, round_s))
        self.shipped_bytes_total += shipped_bytes

    def est_blackout_s(self, dirty_pages: int) -> float:
        """Lower-bound stop-and-copy blackout if we froze right now: ship
        the remaining dirty set at the configured goodput, then pay the
        full-restore tail.  (Freeze/final-dump costs come on top, so a
        POSTPONE verdict is conservative in the safe direction.)"""
        from repro.config import PAGE_SIZE

        ship_s = dirty_pages * PAGE_SIZE * 8.0 / self.mig.transfer_rate_bps
        return ship_s + self.mig.full_restore_base_s

    def decide(self, dirty_pages: int) -> str:
        """Verdict for the round about to start, given the current dirty
        set.  Synchronous and side-effect-free on the simulation."""
        if self.rounds:
            prev_dirty = self.rounds[-1][0]
            if dirty_pages >= prev_dirty * self.mig.precopy_divergence_ratio:
                self._bad_streak += 1
            else:
                self._bad_streak = 0
        if not self.armed:
            return PrecopyDecision.CONTINUE
        if self._bad_streak < self.mig.precopy_divergence_rounds:
            return PrecopyDecision.CONTINUE
        if self.est_blackout_s(dirty_pages) <= self.mig.precopy_blackout_budget_s:
            self.capped = True
            return PrecopyDecision.STOP_COPY
        return PrecopyDecision.POSTPONE
