"""The correctness gate can fail: a WBS that drops drained CQEs must turn
the benchmark red, and the same round must be green without the fault."""

import json
import re

import repro.core.wbs as wbs

import run

ARGS = ["--workload", "migrate_ref", "--seconds", "0"]


def _run(capsys):
    code = run.main(ARGS)
    out = capsys.readouterr().out
    return code, out, json.loads(out.strip().splitlines()[-1])


def test_dropped_cqes_fail_the_benchmark(monkeypatch, capsys):
    monkeypatch.setattr(wbs, "CHAOS_DROP_DRAINED_CQES", True)
    code, out, result = _run(capsys)
    assert code != 0
    assert result["failed"] > 0 and result["correct"] is False
    # Dropped CQEs cannot be left behind in a fake CQ, so the checker that
    # names the loss is cqe-conservation (tests/unit/test_chaos.py accepts
    # either, for the same reason).
    assert re.search(r"FAILED: invariant (cqe-conservation|wbs-drained) x\d+", out)


def test_same_round_is_clean_without_the_fault(capsys):
    assert wbs.CHAOS_DROP_DRAINED_CQES is False
    code, out, result = _run(capsys)
    assert code == 0
    assert result["failed"] == 0 and result["correct"] is True
    assert result["attempted"] > 10_000
    assert "FAILED" not in out
