"""Unit tests for the CRIU-like engine: pre-copy images, partial/full
restore split, pinning, restorer conflicts, runc commands."""

import pytest

from repro import cluster
from repro.config import PAGE_SIZE
from repro.migration import CriuEngine, CriuPlugin, Runc
from repro.migration.criu import RESTORER_BYTES, TEMP_OFFSET
from repro.migration.images import snapshot_container


@pytest.fixture
def world():
    tb = cluster.build()
    container = tb.source.create_container("app")
    process = container.add_process("worker")
    vma = process.space.mmap(16 * PAGE_SIZE, tag="data", name="heap")
    process.space.write(vma.start, b"original contents")
    engine = CriuEngine(tb.sim, tb.config)
    return tb, container, process, vma, engine


class TestSnapshots:
    def test_full_snapshot_includes_touched_pages(self, world):
        tb, container, process, vma, _ = world
        image = snapshot_container(container, full=True)
        assert image.processes[0].memory.page_count == 1  # one touched page
        assert image.processes[0].memory.layout[0][0] == vma.start

    def test_incremental_snapshot_only_dirty(self, world):
        tb, container, process, vma, _ = world
        snapshot_container(container, full=True)  # clears dirty
        assert snapshot_container(container, full=False).processes[0].memory.page_count == 0
        process.space.write(vma.start + 5 * PAGE_SIZE, b"new dirt")
        image = snapshot_container(container, full=False)
        assert image.processes[0].memory.page_count == 1

    def test_image_merge_overlays_pages(self, world):
        tb, container, process, vma, _ = world
        base = snapshot_container(container, full=True)
        process.space.write(vma.start, b"updated contents!")
        newer = snapshot_container(container, full=False)
        base.merge(newer)
        page = base.processes[0].memory.pages[vma.start][0]
        assert page.startswith(b"updated contents!")


class TestRestore:
    def _roundtrip(self, world, plugin=None):
        tb, container, process, vma, engine = world
        runc = Runc(engine, plugin)

        def flow():
            image = yield from runc.checkpoint_rdma(container)
            session = yield from runc.partial_restore(image, tb.destination)
            # Source keeps running: dirty a page, ship the diff.
            process.space.write(vma.start + PAGE_SIZE, b"precopy diff")
            diff = yield from runc.checkpoint_memory_only(container)
            yield from runc.apply_iteration(session, diff)
            yield from runc.full_restore(session)
            return session

        return tb.run(flow()), tb, container, process, vma

    def test_partial_restore_maps_at_temp(self, world):
        tb, container, process, vma, engine = world
        runc = Runc(engine)

        def flow():
            image = yield from runc.checkpoint_rdma(container)
            session = yield from runc.partial_restore(image, tb.destination)
            return session

        session = tb.run(flow())
        restored = session.process_for(process.pid)
        assert restored.space.find(vma.start) is None  # not home yet
        temp = restored.space.find(vma.start + TEMP_OFFSET)
        assert temp is not None
        assert temp.store.read(0, 17) == b"original contents"

    def test_full_restore_moves_home_and_releases_restorer(self, world):
        session, tb, container, process, vma = self._roundtrip(world)
        restored = session.process_for(process.pid)
        assert restored.space.read(vma.start, 17) == b"original contents"
        assert restored.space.read(vma.start + PAGE_SIZE, 12) == b"precopy diff"
        assert restored.space.find(vma.start + TEMP_OFFSET) is None
        # Restorer memory is gone.
        assert all(v.tag != "restorer" for v in restored.space)
        assert session.fully_restored
        assert session.container.name in tb.destination.containers

    def test_pinned_vmas_map_at_original_address(self, world):
        tb, container, process, vma, engine = world

        class PinAll(CriuPlugin):
            def pinned_ranges(self, session, image):
                return [(vma.start, vma.end)]

        runc = Runc(engine, PinAll())

        def flow():
            image = yield from runc.checkpoint_rdma(container)
            session = yield from runc.partial_restore(image, tb.destination)
            return session

        session = tb.run(flow())
        restored = session.process_for(process.pid)
        home = restored.space.find(vma.start)
        assert home is not None
        assert (process.pid, vma.start) in session.pinned

    def test_restorer_conflict_detection(self, world):
        tb, container, process, vma, engine = world
        runc = Runc(engine)

        def flow():
            image = yield from runc.checkpoint_rdma(container)
            session = yield from runc.partial_restore(image, tb.destination)
            return session

        session = tb.run(flow())
        space = session.process_for(process.pid).space
        start = session.restorer_at[process.pid]
        restorer = space.find(start + 100)
        assert restorer.start == start and restorer.tag == "restorer"
        assert restorer.length == RESTORER_BYTES
        # No restored VMA overlaps the restorer's working memory.
        assert space.vmas_overlapping(start, restorer.end) == [restorer]
        assert space.find(restorer.end + PAGE_SIZE) is None

    def test_new_vma_in_later_iteration_is_mapped(self, world):
        tb, container, process, vma, engine = world
        runc = Runc(engine)

        def flow():
            image = yield from runc.checkpoint_rdma(container)
            session = yield from runc.partial_restore(image, tb.destination)
            # Source maps and dirties brand-new memory mid-pre-copy.
            new_vma = process.space.mmap(4 * PAGE_SIZE, tag="data", name="late")
            process.space.write(new_vma.start, b"late arrival")
            diff = yield from runc.checkpoint_memory_only(container)
            yield from runc.apply_iteration(session, diff)
            yield from runc.full_restore(session)
            return session, new_vma

        session, new_vma = tb.run(flow())
        restored = session.process_for(process.pid)
        assert restored.space.read(new_vma.start, 12) == b"late arrival"

    def test_exec_requires_full_restore(self, world):
        tb, container, process, vma, engine = world
        runc = Runc(engine)

        def flow():
            image = yield from runc.checkpoint_rdma(container)
            session = yield from runc.partial_restore(image, tb.destination)
            return session

        session = tb.run(flow())
        with pytest.raises(RuntimeError):
            runc.exec_restore(session)

    def test_checkpoint_rdma_is_incremental_after_first(self, world):
        tb, container, process, vma, engine = world
        runc = Runc(engine)

        def flow():
            first = yield from runc.checkpoint_rdma(container)
            process.space.write(vma.start, b"x")
            second = yield from runc.checkpoint_rdma(container)
            return first, second

        first, second = tb.run(flow())
        assert first.processes[0].memory.page_count == 1
        assert second.processes[0].memory.page_count == 1  # only the dirty page
        # Layout row count identical but second is a diff (page set smaller or equal).
        assert second.size_bytes <= first.size_bytes


class TestCosts:
    def test_dump_others_superlinear_in_vmas(self, world):
        tb, container, process, vma, engine = world
        t_small = engine.dump_others_time(container)
        for i in range(200):
            process.space.mmap(PAGE_SIZE, tag="data", name=f"buf{i}")
        t_large = engine.dump_others_time(container)
        assert t_large > t_small
        # Superlinear: 200x VMAs cost much more than 200x of marginal row cost.
        assert (t_large - t_small) > 200 * tb.config.migration.dump_per_vma_s

    def test_freeze_interrupts_processes(self, world):
        tb, container, process, vma, engine = world
        ticks = []

        def loop():
            while True:
                yield tb.sim.timeout(1e-3)
                ticks.append(tb.sim.now)

        process.attach(tb.sim.spawn(loop()))

        def flow():
            yield tb.sim.timeout(5.5e-3)
            engine.freeze(container)
            yield tb.sim.timeout(10e-3)

        tb.run(flow())
        assert process.frozen
        assert len(ticks) == 5


class TestPrecopyWatchdog:
    """The convergence watchdog + degradation ladder (DESIGN.md §15)."""

    def mig(self, **overrides):
        from repro.config import default_config

        mig = default_config().migration
        for name, value in overrides.items():
            setattr(mig, name, value)
        return mig

    def test_default_budget_is_pure_observer(self):
        import math

        from repro.migration import PrecopyDecision, PrecopyWatchdog

        watchdog = PrecopyWatchdog(self.mig())
        assert not watchdog.armed
        dirty = 1000
        for _ in range(6):  # dirty set doubling every round: divergence
            assert watchdog.decide(dirty) == PrecopyDecision.CONTINUE
            watchdog.observe(dirty, dirty * PAGE_SIZE, 1e-3)
            dirty *= 2
        assert not watchdog.capped
        assert math.isinf(self.mig().precopy_blackout_budget_s)

    def test_divergence_within_budget_caps_to_stop_copy(self):
        from repro.migration import PrecopyDecision, PrecopyWatchdog

        watchdog = PrecopyWatchdog(self.mig(precopy_blackout_budget_s=1.0))
        assert watchdog.armed
        assert watchdog.decide(1000) == PrecopyDecision.CONTINUE
        watchdog.observe(1000, 1000 * PAGE_SIZE, 1e-3)
        assert watchdog.decide(1200) == PrecopyDecision.CONTINUE  # streak 1
        watchdog.observe(1200, 1200 * PAGE_SIZE, 1e-3)
        # streak 2 == precopy_divergence_rounds, and 1400 pages ship well
        # inside a 1s budget: rung 2, bounded stop-and-copy.
        assert watchdog.decide(1400) == PrecopyDecision.STOP_COPY
        assert watchdog.capped

    def test_divergence_over_budget_postpones(self):
        from repro.migration import PrecopyDecision, PrecopyWatchdog

        # Budget below even the full-restore tail: no dirty set fits.
        mig = self.mig(precopy_blackout_budget_s=1e-3)
        watchdog = PrecopyWatchdog(mig)
        watchdog.decide(1000)
        watchdog.observe(1000, 1000 * PAGE_SIZE, 1e-3)
        watchdog.decide(1200)
        watchdog.observe(1200, 1200 * PAGE_SIZE, 1e-3)
        assert watchdog.decide(1400) == PrecopyDecision.POSTPONE
        assert not watchdog.capped

    def test_converging_round_resets_the_streak(self):
        from repro.migration import PrecopyDecision, PrecopyWatchdog

        watchdog = PrecopyWatchdog(self.mig(precopy_blackout_budget_s=1e-3))
        watchdog.decide(1000)
        watchdog.observe(1000, 1000 * PAGE_SIZE, 1e-3)
        watchdog.decide(1200)                       # streak 1
        watchdog.observe(1200, 1200 * PAGE_SIZE, 1e-3)
        assert watchdog.decide(600) == PrecopyDecision.CONTINUE  # shrank
        watchdog.observe(600, 600 * PAGE_SIZE, 1e-3)
        assert watchdog._bad_streak == 0
        # Divergence must re-accumulate from scratch after convergence.
        assert watchdog.decide(700) == PrecopyDecision.CONTINUE
        watchdog.observe(700, 700 * PAGE_SIZE, 1e-3)
        assert watchdog.decide(800) == PrecopyDecision.POSTPONE

    def test_est_blackout_is_ship_time_plus_restore_tail(self):
        from repro.migration import PrecopyWatchdog

        mig = self.mig()
        watchdog = PrecopyWatchdog(mig)
        dirty = 2048
        expected = (dirty * PAGE_SIZE * 8.0 / mig.transfer_rate_bps
                    + mig.full_restore_base_s)
        assert watchdog.est_blackout_s(dirty) == pytest.approx(expected)

    def test_constant_dirty_set_is_not_divergence(self):
        # perftest-style workloads re-dirty the same pages every round;
        # a flat dirty set must never trip the ladder (ratio > 1.0).
        from repro.migration import PrecopyDecision, PrecopyWatchdog

        watchdog = PrecopyWatchdog(self.mig(precopy_blackout_budget_s=1e-3))
        for _ in range(6):
            assert watchdog.decide(1000) == PrecopyDecision.CONTINUE
            watchdog.observe(1000, 1000 * PAGE_SIZE, 1e-3)
