"""Seed plumbing: a seed fixes the run, different seeds differ, and seed 7
rebuilds the legacy benches' scenarios exactly."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ledger
import scenarios

RUN = Path(__file__).resolve().parent / "run.py"


def _run_process(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True)
    digest = re.search(r"digest=([0-9a-f]{64})", proc.stdout).group(1)
    return digest, json.loads(proc.stdout.strip().splitlines()[-1])


def _exact(result, metrics):
    """The simulated metrics and counts of a result line (host times vary)."""
    traced = re.compile(r"\.(self_s|calls)$|^mem\.page_")
    return {m.name: result["metrics"][m.name]["value"] for m in metrics
            if m.kind != "host" and not traced.search(m.name)}


def test_same_seed_repeats_exactly_across_processes():
    first = _run_process("fleet_drain", 11, trace=1)
    second = _run_process("fleet_drain", 11, trace=1)
    assert first[0] == second[0]
    assert set(first[1]["metrics"]) == {m.name for m in ledger.PER_LAYER}
    assert _exact(first[1], ledger.PER_LAYER) == _exact(second[1], ledger.PER_LAYER)
    assert first[1]["correct"] and first[1]["failed"] == 0

    first = _run_process("fleet_drain", 11, trace=0)
    second = _run_process("fleet_drain", 11, trace=0)
    assert set(first[1]["metrics"]) == {m.name for m in ledger.END_TO_END}
    assert _exact(first[1], ledger.END_TO_END) == _exact(second[1], ledger.END_TO_END)
    assert all(m["value"] != 0 for m in first[1]["metrics"].values())


@pytest.mark.parametrize("name", ["fleet_drain", "kv_noisy"])
def test_seeds_7_and_8_differ(checked_round, name):
    assert checked_round(name, 7).digest != checked_round(name, 8).digest


def test_seed_shifts_the_migration_instant():
    assert scenarios.seed_offset_s(7) == 0.0
    assert scenarios.MigrateRef(7).trigger_s == 2e-3
    assert scenarios.MigrateRef(8).trigger_s == pytest.approx(2e-3 + 1e-6)
    assert scenarios.MigrateFanout(6).trigger_s == pytest.approx(2e-3 + 999e-6)


# -- seed 7 is the legacy benches' scenario -------------------------------

def test_migrate_ref_reproduces_bench_simperf(checked_round):
    result = checked_round("migrate_ref")
    assert result.counters["migration.blackout_ms"] == pytest.approx(68.430, abs=5e-4)
    bench = json.loads((RUN.parents[2] / "BENCH_simperf.json").read_text())
    assert result.counters["migration.blackout_ms"] == pytest.approx(bench["blackout_ms"],
                                                      rel=1e-12)


def test_migrate_fanout_reproduces_bench_scale(checked_round):
    result = checked_round("migrate_fanout")
    assert result.counters["migration.blackout_ms"] == pytest.approx(82.712, abs=5e-4)
    assert result.counters["core.wbs_ms"] * 1e3 == pytest.approx(10878.03, abs=5e-3)
    assert result.counters["sim.events_processed"] == 783513
    assert result.failed == 0, result.notes


def test_fleet_drain_reproduces_bench_fleet(checked_round):
    from repro.parallel.runners import fleet_run

    result = checked_round("fleet_drain")
    assert result.counters["fleet.drain_ms"] == pytest.approx(254.0, abs=5e-2)
    assert result.counters["sim.events_processed"] == 154323
    assert result.counters["fabric.trunk_peak_backlog_bytes"] == 5828456
    # BENCH_fleet.json's digest predates the 12th invariant; the legacy
    # runner at this commit is the reference
    legacy = fleet_run(racks=2, hosts_per_rack=2, containers=16,
                       policy="drain", target="rack0", seed=7, concurrency=4,
                       oversubscription=4.0)
    assert result.digest == legacy["digest"]


def test_kv_noisy_reproduces_bench_kv(checked_round):
    from repro.parallel.runners import kvstore_run

    result = checked_round("kv_noisy")
    assert result.counters["apps.get_p99_us"] == pytest.approx(13.0, abs=5e-4)
    assert result.counters["apps.gets"] == 9437
    assert result.counters["rnic.qos_throttle_events"] == 3876
    legacy = kvstore_run(seed=7, n_clients=1, keyspace=24, depth=2,
                         noise_msg_size=131072, noise_depth=4, settle_s=2e-3,
                         readback_keys=4, noise=True, noise_limit_gbps=40.0)
    assert result.digest == legacy["digest"]
