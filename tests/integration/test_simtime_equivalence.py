"""Pin the simulated-time results of the reference migration scenario.

The simulation kernel and RNIC fast paths (event pooling, CQE batching,
translation memoization) are pure wall-clock
optimizations: with a fixed seed they must not move a single simulated
timestamp.  This test pins the full blackout breakdown of
:func:`reference_bed` (16 QPs, 64 KiB WRITEs) to the exact values the model produced
before those fast paths landed — any drift (even in the last ulp) means
an optimization changed the event order or the RNG stream and must be
fixed, or these constants consciously re-pinned alongside a model change.
"""

from repro.beds import PerftestBed


def reference_bed(config=None) -> PerftestBed:
    """The reference scenario, set up and connected: the 16-QP sender
    point of ``migros_run`` (Fig. 3's, without its staging VMAs)."""
    bed = PerftestBed(16, config=config)
    bed.run(bed.setup())
    return bed


#: Exact (==, not approx) expected values for the default seed.
EXPECTED = {
    "blackout_s": 0.06843010673967796,
    "wbs_elapsed_s": 0.0006691043478271042,
    "DumpRDMA": 0.0006250000000000006,
    "DumpOthers": 0.024622788019677988,
    "Transfer": 7.431871999999395e-05,
    "FullRestore": 0.04310799999999998,
    "final_now": 0.16772880412751187,
}


def test_reference_migration_simulated_time_pinned():
    scenario = reference_bed()
    report = scenario.run_migration()
    phases = dict(report.breakdown.ordered())

    assert report.blackout_s == EXPECTED["blackout_s"]
    assert report.wbs_elapsed_s == EXPECTED["wbs_elapsed_s"]
    assert phases["DumpRDMA"] == EXPECTED["DumpRDMA"]
    assert phases["DumpOthers"] == EXPECTED["DumpOthers"]
    assert phases["Transfer"] == EXPECTED["Transfer"]
    assert phases["FullRestore"] == EXPECTED["FullRestore"]
    assert "RestoreRDMA" not in phases  # presetup scenario
    assert scenario.sim.now == EXPECTED["final_now"]


def test_reference_migration_is_deterministic():
    runs = []
    for _ in range(2):
        scenario = reference_bed()
        report = scenario.run_migration()
        runs.append((report.blackout_s, scenario.sim.now,
                     scenario.sim.events_processed))
    assert runs[0] == runs[1]


def test_tracing_enabled_leaves_simulated_time_bit_identical():
    """An attached Tracer must be semantically invisible: it never
    schedules events or draws randomness, so every pinned timestamp stays
    exactly (==) what the untraced run produces."""
    from repro.obs import Tracer

    scenario = reference_bed()
    tracer = Tracer(scenario.sim).attach()
    report = scenario.run_migration()
    phases = dict(report.breakdown.ordered())

    assert report.blackout_s == EXPECTED["blackout_s"]
    assert report.wbs_elapsed_s == EXPECTED["wbs_elapsed_s"]
    assert phases["DumpRDMA"] == EXPECTED["DumpRDMA"]
    assert phases["DumpOthers"] == EXPECTED["DumpOthers"]
    assert phases["Transfer"] == EXPECTED["Transfer"]
    assert phases["FullRestore"] == EXPECTED["FullRestore"]
    assert scenario.sim.now == EXPECTED["final_now"]

    # And it actually recorded the migration: every instrumented layer
    # contributed at least one lane.
    processes = {lane.process for lane in tracer.lanes()}
    assert Tracer.KERNEL_PROCESS in processes
    assert "migration" in processes
    assert len(tracer.lanes()) >= 5
    assert tracer.span_count() > 0


def test_packet_path_credits_match_callback_only_transmissions(monkeypatch):
    """``events_credited`` counts every exactly-elided dispatch: on the RC
    packet path that is one per callback-only port transmission (its
    listener-less wire-done) plus one per idle poll a parked loop replayed
    (DESIGN.md §12.5) — nothing else.  The reference run must actually
    credit, and its pinned timestamps must hold while counting."""
    from repro.cluster import CpuContext
    from repro.fabric import Port

    cb_only_sims = []
    transmit_cb = Port.transmit_cb

    def counting_transmit_cb(port, *args):
        cb_only_sims.append(port.sim)
        transmit_cb(port, *args)

    idle_polls = [0]
    replay_idle_polls = CpuContext.replay_idle_polls

    def counting_replay(cpu, *args):
        ticks, t_next = replay_idle_polls(cpu, *args)
        idle_polls[0] += ticks
        return ticks, t_next

    monkeypatch.setattr(Port, "transmit_cb", counting_transmit_cb)
    monkeypatch.setattr(CpuContext, "replay_idle_polls", counting_replay)
    scenario = reference_bed()
    report = scenario.run_migration()
    assert report.blackout_s == EXPECTED["blackout_s"]
    assert scenario.sim.now == EXPECTED["final_now"]
    assert scenario.sim.events_credited - idle_polls[0] == sum(
        1 for sim in cb_only_sims if sim is scenario.sim) > 0
