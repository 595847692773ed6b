"""Unit tests for remaining migration-substrate edges: image lookups,
runc's include_others flag, report properties."""

import pytest

from repro import cluster
from repro.config import PAGE_SIZE
from repro.core.orchestrator import MigrationReport, presetup_budget_s
from repro.migration import CriuEngine, Runc
from repro.migration.images import ContainerImage, ProcessImage


class TestImages:
    def test_container_merge_adds_new_processes(self):
        older = ContainerImage(container_id="c", name="n")
        older.processes.append(ProcessImage(pid=1, name="a"))
        newer = ContainerImage(container_id="c", name="n")
        newer.processes.append(ProcessImage(pid=2, name="b"))
        newer.rdma_bytes = 512
        older.merge(newer)
        assert {p.pid for p in older.processes} == {1, 2}
        assert older.rdma_bytes == 512

    def test_size_includes_synthetic(self):
        image = ProcessImage(pid=1, name="p")
        image.memory.synthetic_bytes = 10 * PAGE_SIZE
        assert image.size_bytes >= 10 * PAGE_SIZE


class TestRuncFlags:
    def test_checkpoint_rdma_include_others_costs_more(self):
        tb = cluster.build()
        container = tb.source.create_container("c")
        process = container.add_process("p")
        process.space.mmap(PAGE_SIZE, tag="data")
        engine = CriuEngine(tb.sim, tb.config)
        runc = Runc(engine)

        def flow():
            start = tb.sim.now
            yield from runc.checkpoint_rdma(container)
            without = tb.sim.now - start
            start = tb.sim.now
            yield from runc.checkpoint_rdma(container, include_others=True)
            with_others = tb.sim.now - start
            return without, with_others

        without, with_others = tb.run(flow())
        assert with_others > without


class TestMigrationReport:
    def test_blackout_windows(self):
        report = MigrationReport()
        report.t_start = 1.0
        report.t_suspend = 2.0
        report.t_freeze = 2.5
        report.t_resume = 3.0
        report.t_end = 3.5
        assert report.blackout_s == pytest.approx(0.5)
        assert report.communication_blackout_s == pytest.approx(1.0)
        assert report.total_s == pytest.approx(2.5)

    def test_defaults_are_unaborted(self):
        report = MigrationReport()
        assert not report.aborted
        assert not report.wbs_timed_out


class TestPresetupBudget:
    """The pre-setup deadline follows the fan-out (~1.4 ms of serial
    firmware time per partner QP), so no runner has to override it."""

    def test_default_deadline_holds_below_the_knee(self):
        partners = {"partner0": list(range(100))}
        assert presetup_budget_s(2.0, partners) == 2.0

    def test_budget_scales_with_total_partner_qps(self):
        assert presetup_budget_s(2.0, {"partner0": list(range(4096))}) == 6.144
        split = {"a": list(range(1024)), "b": list(range(3072))}
        assert presetup_budget_s(2.0, split) == 6.144

    def test_no_partners_keeps_the_configured_deadline(self):
        assert presetup_budget_s(2.0, {}) == 2.0
