"""Parallel-vs-sequential determinism pin (the contract that makes the
sweep engine trustworthy): the same seeds through ``jobs=1`` and through
a spawn worker pool must produce bit-identical per-run sha256 digests and
identical simulated-time fields.

Kept to two perftest cases so the spawn startup cost stays test-sized;
``benchmarks/test_sweep.py`` runs the same contract at campaign size.
"""

from repro.chaos.torture import torture_sweep
from repro.parallel import TaskSpec, run_tasks

SEED = 7
RUNS = 2

#: Literal (digest, sim_now, events_processed) of the two torture cases and
#: (sim_now, events_processed, blackout_s) of the two runner points, recorded
#: on the commit before the workload beds (repro/beds.py): a refactor is
#: held to these values, not merely to agreeing with itself.
PINNED_TORTURE = [
    ("2a7da528212011315c98ebb24d07530656b926b0be882d3f872b99a6c9a42e00",
     0.04743175451200455, 57920),
    # per-QP RTO: duplicate go-back-N gone (was aaa845d1, 0.33841, 391864)
    ("5af9d3cd8f7215adaaab53f9ebbccd1b7059fddc3a75532e3281f8d2ec57e88a",
     0.3368341235818347, 393787),
]
PINNED_RUNNER = [
    (0.10765376459031428, 192713, 0.06779114491031372),
    (0.11144066403745688, 237355, 0.06783333723745213),
]


def test_torture_digests_identical_across_jobs():
    sequential = torture_sweep(SEED, RUNS, scenarios="perftest", jobs=1)
    parallel = torture_sweep(SEED, RUNS, scenarios="perftest", jobs=2)

    assert len(sequential) == len(parallel) == RUNS
    assert [o.digest for o in sequential] == [o.digest for o in parallel]
    assert [o.sim_now for o in sequential] == [o.sim_now for o in parallel]
    assert ([o.events_processed for o in sequential]
            == [o.events_processed for o in parallel])
    assert [o.fault_stats for o in sequential] == [o.fault_stats for o in parallel]
    # Digests are non-trivial (not colliding, not empty).
    assert len({o.digest for o in sequential}) == RUNS
    assert [(o.digest, o.sim_now, o.events_processed)
            for o in sequential] == PINNED_TORTURE


def test_runner_simulated_time_fields_identical_across_jobs():
    # The BENCH_* simulated-time fields must not depend on --jobs either.
    specs = [TaskSpec("repro.parallel.runners.migration_run",
                      dict(num_qps=qps, migrate="sender", presetup=True,
                           msg_size=16384, depth=4),
                      label=f"det:{qps}qp")
             for qps in (1, 2)]
    sequential = run_tasks(specs, jobs=1)
    parallel = run_tasks(specs, jobs=2)
    assert all(r.ok for r in sequential + parallel)
    for seq, par in zip(sequential, parallel):
        assert seq.value["sim_now"] == par.value["sim_now"]
        assert seq.value["events_processed"] == par.value["events_processed"]
        assert seq.value["blackout_s"] == par.value["blackout_s"]
        assert seq.value["phases"] == par.value["phases"]
    assert [(r.value["sim_now"], r.value["events_processed"],
             r.value["blackout_s"]) for r in sequential] == PINNED_RUNNER
