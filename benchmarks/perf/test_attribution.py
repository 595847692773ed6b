"""The attributor: path -> layer bucketing, built-ins charged to their
callers, self-times that add up, and counts that repeat exactly."""

import pytest

import attribution
import ledger
import run
import scenarios

SIM = ("/x/src/repro/sim/core.py", 10, "_advance")
MEM = ("/x/src/repro/mem/paging.py", 99, "write")
APPEND = ("~", 0, "<method 'append' of 'list' objects>")
JOIN = ("~", 0, "<method 'join' of 'bytes' objects>")
MAP = ("~", 0, "<built-in method builtins.map>")


@pytest.mark.parametrize("path, layer", [
    ("/x/src/repro/sim/core.py", "sim"),
    ("/x/src/repro/rnic/engine.py", "rnic"),
    ("/x/src/repro/mem/paging.py", "mem"),
    ("C:\\x\\repro\\apps\\kvstore.py", "apps"),
    ("/x/src/repro/cluster.py", "other"),            # top-level module
    ("/x/src/repro/parallel/engine.py", "other"),    # package without a row
    ("/usr/lib/python3.11/random.py", "other"),      # stdlib
    ("/x/benchmarks/perf/scenarios.py", "other"),    # this harness
    ("~", "other"),
])
def test_path_to_layer(path, layer):
    assert attribution.layer_of_path(path) == layer


def synthetic_stats():
    # pstats rows: (cc, nc, tt, ct, {caller: (nc, cc, tt, ct)})
    return {
        SIM: (10, 10, 1.0, 2.0, {}),
        MEM: (5, 5, 0.5, 0.9, {SIM: (5, 5, 0.5, 0.9)}),
        # called 3x from sim (0.3 s) and 1x from mem (0.1 s)
        APPEND: (4, 4, 0.4, 0.4, {SIM: (3, 3, 0.3, 0.3),
                                  MEM: (1, 1, 0.1, 0.1)}),
        # a built-in called by a built-in is charged to *that* one's callers
        MAP: (2, 2, 0.2, 0.4, {MEM: (2, 2, 0.2, 0.4)}),
        JOIN: (6, 6, 0.2, 0.2, {MAP: (6, 6, 0.2, 0.2)}),
    }


def test_builtins_are_charged_to_the_calling_package():
    rows = attribution.attribute(synthetic_stats())
    assert rows["sim"]["self_s"] == pytest.approx(1.0 + 0.3)
    assert rows["mem"]["self_s"] == pytest.approx(0.5 + 0.1 + 0.2 + 0.2)
    assert rows["sim"]["calls"] == 10 + 3
    assert rows["mem"]["calls"] == 5 + 1 + 2 + 6
    assert rows["other"] == {"self_s": 0.0, "calls": 0.0}


def test_builtin_without_a_caller_lands_in_other():
    rows = attribution.attribute({APPEND: (1, 1, 0.25, 0.25, {})})
    assert rows["other"] == {"self_s": 0.25, "calls": 1.0}


def test_synthetic_self_times_sum_to_the_total():
    stats = synthetic_stats()
    rows = attribution.attribute(stats)
    assert sum(r["self_s"] for r in rows.values()) == pytest.approx(
        attribution.profile_total_s(stats))
    assert sum(r["calls"] for r in rows.values()) == sum(
        row[1] for row in stats.values())


@pytest.fixture(scope="module")
def traced_rounds():
    """Two traced migrate_ref rounds: [(RoundResult, pstats table), ...]."""
    return [run.one_round(scenarios.MigrateRef, 7, traced=True)
            for _ in range(2)]


def test_self_times_sum_to_the_profile_total(traced_rounds):
    _result, stats = traced_rounds[0]
    metrics = attribution.traced_metrics(stats)
    attributed = sum(metrics[f"{layer}.self_s"]
                     for layer in (*attribution.LAYERS, attribution.OTHER))
    assert attributed == pytest.approx(attribution.profile_total_s(stats),
                                       rel=0.01)
    # the bulk-payload workload spends real time in the layers it names
    for layer in ("sim", "rnic", "mem", "core"):
        assert metrics[f"{layer}.self_s"] > 0.02 * attributed


def test_calls_and_page_counts_repeat_exactly(traced_rounds):
    first, second = (attribution.traced_metrics(stats)
                     for _result, stats in traced_rounds)
    exact = [key for key in first
             if key.endswith(".calls") or key.startswith("mem.page_")]
    assert len(exact) == len(attribution.LAYERS) + 1 + 2
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}
    assert first["mem.page_writes"] > 0 and first["mem.page_reads"] > 0


def test_traced_metrics_are_all_declared(traced_rounds):
    declared = {metric.name for metric in ledger.PER_LAYER}
    assert set(attribution.traced_metrics(traced_rounds[0][1])) <= declared


@pytest.mark.parametrize("name", ["migrate_ref", "fleet_drain", "kv_noisy"])
def test_fig3_phases_sum_to_the_blackout(checked_round, name):
    result = checked_round(name)
    phases = sum(result.counters[f"migration.{phase}_ms"]
                 for phase in ("dump_rdma", "dump_others", "transfer",
                               "restore_rdma", "full_restore"))
    assert phases == pytest.approx(result.counters["migration.blackout_ms"], rel=1e-9)
    assert result.failed == 0, result.notes
