"""BENCHMARK.json and the ledger's tables say the same thing."""

import json
import statistics
from pathlib import Path

import ledger

ROOT = Path(__file__).resolve().parents[2]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def _rows(metrics, with_bound):
    keys = ("name", "unit", "better") + (("bound",) if with_bound else ())
    return [{key: getattr(m, key) for key in keys} for m in metrics]


def test_manifest_lists_the_ledgers_metrics():
    assert MANIFEST["end_to_end"] == _rows(ledger.END_TO_END, with_bound=True)
    assert MANIFEST["per_layer"] == _rows(ledger.PER_LAYER, with_bound=False)
    assert [w["name"] for w in MANIFEST["workloads"]] == list(ledger.WORKLOADS)


def test_manifest_meets_the_drivers_limits():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert MANIFEST["paths"] == ["benchmarks/perf"]
    assert MANIFEST["command"] == ["python3", "benchmarks/perf/run.py"]
    names = [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]]
    assert len(names) == len(set(names))
    assert len(MANIFEST["per_layer"]) <= 128
    bounds = {m["name"]: m["bound"] for m in MANIFEST["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in MANIFEST["workloads"])
    runs = 4 + 22 * len(MANIFEST["workloads"])
    assert runs * MANIFEST["run_seconds"] < 3420


def test_summarize_uses_the_drivers_quartiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    stats = ledger.summarize(values)
    assert (stats["q1"], stats["median"], stats["q3"]) == (q1, median, q3)
    assert (stats["n"], stats["min"], stats["max"]) == (7, 1.0, 9.0)
    assert ledger.summarize([2.0])["q1"] == 2.0
