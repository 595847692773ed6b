"""Unit tests for the comparison models (MigrOS, LubeRDMA, FreeFlow)."""

import pytest

from repro.baselines import (
    FreeFlowCostModel,
    LubeRdmaKeyTable,
    MigrOsModel,
    MigrRdmaKeyTable,
)
from repro.baselines.keytables import hot_cold_access_pattern, uniform_access_pattern
from repro.core.orchestrator import MigrationReport


class TestMigrOsModel:
    def test_extra_cost_scales_with_qps(self):
        model = MigrOsModel()
        assert model.extra_stop_and_copy_s(100) == pytest.approx(
            10 * model.extra_stop_and_copy_s(10))

    def test_migros_blackout_longer(self):
        """§6's conclusion: MigrOS blackout > MigrRDMA blackout."""
        model = MigrOsModel()
        report = MigrationReport()
        report.t_freeze, report.t_resume = 0.0, 0.150
        report.t_suspend = -0.05
        comparison = model.compare(report, num_qps=64)
        assert comparison["migros_blackout_s"] > comparison["migrrdma_blackout_s"]
        assert comparison["migros_slowdown"] > 1.0

    def test_extra_grows_into_dominance(self):
        model = MigrOsModel()
        report = MigrationReport()
        report.t_freeze, report.t_resume = 0.0, 0.150
        small = model.compare(report, 16)["migros_slowdown"]
        large = model.compare(report, 4096)["migros_slowdown"]
        assert large > small
        assert large > 2.0  # thousands of QPs: state injection dominates


class TestKeyTables:
    def test_lookup_agreement(self):
        array = MigrRdmaKeyTable()
        linked = LubeRdmaKeyTable()
        physical = [0x1000 * (i + 1) for i in range(32)]
        for p in physical:
            assert array.register(p) == linked.register(p)
        for v in range(32):
            assert array.lookup(v) == linked.lookup(v)

    def test_array_cost_constant(self):
        table = MigrRdmaKeyTable()
        for i in range(128):
            table.register(i)
        assert table.lookup_cost_cycles(0) == table.lookup_cost_cycles(127)

    def test_linked_list_cost_grows_with_mr_count(self):
        """§6: LubeRDMA 'suffers from performance declines if the
        application accesses different MRs'."""
        few = LubeRdmaKeyTable()
        many = LubeRdmaKeyTable()
        for i in range(4):
            few.register(i)
        for i in range(128):
            many.register(i)
        few_cost = few.mean_lookup_cycles(uniform_access_pattern(4, 2000))
        many_cost = many.mean_lookup_cycles(uniform_access_pattern(128, 2000))
        assert many_cost > 4 * few_cost

    def test_move_to_front_helps_hot_access(self):
        table = LubeRdmaKeyTable()
        for i in range(128):
            table.register(i)
        hot = table.mean_lookup_cycles(hot_cold_access_pattern(128, 2000))
        table2 = LubeRdmaKeyTable()
        for i in range(128):
            table2.register(i)
        uniform = table2.mean_lookup_cycles(uniform_access_pattern(128, 2000))
        assert hot < uniform

    def test_array_beats_linked_list_on_uniform_access(self):
        cpu_cost_array = MigrRdmaKeyTable().cpu.lkey_array_lookup_cycles
        table = LubeRdmaKeyTable()
        for i in range(64):
            table.register(i)
        linked_cost = table.mean_lookup_cycles(uniform_access_pattern(64, 2000))
        assert linked_cost > 10 * cpu_cost_array


class TestFreeFlow:
    def test_queue_copy_dominates(self):
        """FreeFlow virtualizes the whole queue => per-WR overhead far above
        MigrRDMA's few-cycle translations (§6 / related work)."""
        model = FreeFlowCostModel()
        base_send = model.cpu.base_cycles["send"]
        assert model.per_wr_overhead_cycles() > 50 * model.cpu.lkey_array_lookup_cycles
        assert model.overhead_fraction(base_send) > 1.0  # >100% overhead
