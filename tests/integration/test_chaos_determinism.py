"""The chaos layer's two determinism contracts, pinned.

1. **Same seed, same case ⇒ bit-identical run**: the torture harness must
   reproduce a failing run number exactly, so two executions of the same
   :class:`TortureCase` have to agree on the full metrics digest — every
   timestamp, every counter, every boundary — not just pass/fail.

2. **No faults ⇒ no effect**: an installed-but-empty :class:`FaultPlan`
   draws nothing from any RNG and schedules nothing, so the reference
   migration's pinned simulated-time values (see
   ``test_simtime_equivalence.py``) must stay exactly (==) what an
   uninstrumented run produces.  This is what makes the subsystem safe to
   leave importable in production code paths.
"""

from repro.chaos import FaultPlan
from repro.chaos.torture import TortureCase, run_case, sample_case

from tests.integration.test_simtime_equivalence import EXPECTED, reference_bed


def test_same_seed_is_bit_identical():
    """Two executions of one sampled case agree on the digest — which
    covers the metrics snapshot, every migration-report timestamp, the
    invariant report, and the phase boundaries seen."""
    case = sample_case(seed=11, index=3)
    assert case.faults  # sampled a non-trivial plan
    first, second = run_case(case), run_case(case)
    assert first.digest == second.digest
    assert first.sim_now == second.sim_now
    assert first.events_processed == second.events_processed
    assert first.fault_stats == second.fault_stats
    assert first.report.render() == second.report.render()
    # Literals recorded on the commit before the workload beds
    # (repro/beds.py): held to the parent's run, not only to itself.
    # Re-pinned for the per-QP RTO: duplicate go-back-N resends are gone.
    assert (first.digest, first.sim_now, first.events_processed) == (
        "c16d5ed56bcbd30ab6f68015d56f8c1ca156650534a4aa9dc680bd7546c96ddb",
        0.32810810403716095, 445930)


def test_different_plan_seed_diverges():
    """The digest is sensitive: same workload under a different fault
    stream must not collide (otherwise the digest pins nothing)."""
    case = sample_case(seed=11, index=3)
    shifted = TortureCase(seed=11, index=3, scenario=case.scenario,
                          workload=case.workload, faults=case.faults,
                          trigger_s=case.trigger_s)
    shifted.__dict__["seed"] = 12  # same faults, different plan RNG seed
    assert run_case(case).digest != run_case(shifted).digest


def test_noop_plan_leaves_pinned_timestamps_bit_identical():
    """Chaos disabled == chaos absent: installing an empty FaultPlan on
    the reference scenario reproduces the exact pinned values."""
    scenario = reference_bed()
    plan = FaultPlan(seed=999).install(scenario)
    rng_before = plan.rng.getstate()
    report = scenario.run_migration()
    phases = dict(report.breakdown.ordered())

    assert report.blackout_s == EXPECTED["blackout_s"]
    assert report.wbs_elapsed_s == EXPECTED["wbs_elapsed_s"]
    assert phases["DumpRDMA"] == EXPECTED["DumpRDMA"]
    assert phases["DumpOthers"] == EXPECTED["DumpOthers"]
    assert phases["Transfer"] == EXPECTED["Transfer"]
    assert phases["FullRestore"] == EXPECTED["FullRestore"]
    assert scenario.sim.now == EXPECTED["final_now"]
    assert plan.rng.getstate() == rng_before  # not one draw
    assert plan.stats.total == 0
