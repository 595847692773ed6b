"""Fleet determinism + torture pins.

Three contracts:

- the same seed produces bit-identical fleet digests (full run digest
  AND FleetReport digest) whether the sweep runs in-process (``jobs=1``)
  or through spawn workers (``jobs=2``) — the fleet layer introduces no
  wall-clock, interpreter-history, or scheduling-order dependence,
- admission control actually bounds peak concurrency,
- the torture overlay (a host killed mid-drain) ends with every invariant
  clean and every container placed exactly once — migrations re-routed
  by the supervisor, nothing lost, nothing split-brained.

Configs are kept small (2 racks x 2 hosts, 8 containers) so the whole
module stays test-sized; ``benchmarks/test_fleet.py`` runs the scaled-up
version.
"""

from repro.parallel import TaskSpec, run_tasks
from repro.parallel.runners import fleet_run

FLEET_KW = dict(racks=2, hosts_per_rack=2, containers=8, seed=7,
                policy="drain", target="rack0")

#: Literal (digest, fleet_digest, sim_now, events_processed, drain_s) at
#: concurrency 1 and 2, recorded on the commit before the workload beds
#: (repro/beds.py, Fleet.run_policy): a refactor is held to these values,
#: not merely to agreeing with itself.
PINNED = {
    1: ("bd6b7fc795f9b9d1466e388e08a8ad069b6185633a9a293dba0b6fd3c8338fc8",
        "f27aa49fbedd03cdc95b1ef8d2d9bef896d7e726712e2e35b4163603aadbe56e",
        0.517587609599976, 157744, 0.503999999999976),
    2: ("edff1fe54b54b898d6b01af6353ab84dbdaf24d93f7038b78893811f67342d97",
        "a953db0a0c0cbfa62a90404b67cddbc1b7e38f60b5b0379dee1b3a8ab2df8e77",
        0.26598760960000367, 74725, 0.25240000000000373),
}


def _pin(row):
    return (row["digest"], row["fleet_digest"], row["sim_now"],
            row["events_processed"], row["drain_s"])


def test_fleet_digests_identical_across_jobs():
    specs = [TaskSpec("repro.parallel.runners.fleet_run",
                      dict(FLEET_KW, concurrency=concurrency),
                      label=f"fleet:c{concurrency}")
             for concurrency in (1, 2)]
    sequential = run_tasks(specs, jobs=1)
    parallel = run_tasks(specs, jobs=2)
    assert all(r.ok for r in sequential + parallel), (
        [r.error for r in sequential + parallel if not r.ok])
    for seq, par in zip(sequential, parallel):
        assert seq.value["digest"] == par.value["digest"]
        assert seq.value["fleet_digest"] == par.value["fleet_digest"]
        assert seq.value["sim_now"] == par.value["sim_now"]
        assert seq.value["events_processed"] == par.value["events_processed"]
        assert seq.value["drain_s"] == par.value["drain_s"]
        assert seq.value["invariants_ok"], seq.value["violations"]
        assert _pin(seq.value) == PINNED[seq.value["concurrency"]]
    # Different concurrency levels are genuinely different runs.
    assert sequential[0].value["digest"] != sequential[1].value["digest"]


def test_admission_limit_bounds_concurrency():
    row = fleet_run(**FLEET_KW, concurrency=1)
    assert row["invariants_ok"], row["violations"]
    assert row["max_concurrency"] == 1
    assert row["completed"] == row["jobs_planned"] == 4
    # Serialized drain takes longer than the 2-way one the other tests run.
    row2 = fleet_run(**FLEET_KW, concurrency=2)
    assert row2["max_concurrency"] == 2
    assert row2["drain_s"] < row["drain_s"]


def test_host_kill_mid_drain_recovers_clean():
    """Kill a destination-side host early in the drain: supervisors must
    roll back, reroute or retry, and the fleet must end consistent."""
    row = fleet_run(**FLEET_KW, concurrency=2,
                    kill_host="r1h0", kill_at=5e-3, kill_down_s=0.05)
    assert row["invariants_ok"], row["violations"]
    # fleet-placement passing certifies exactly-one-live-placement; the
    # drain itself must also have finished moving everything.
    assert row["completed"] == row["jobs_planned"] == 4
    assert row["failed"] == 0
    # The kill actually fired and forced rollback/reroute retries.
    assert row["chaos"]["host_kills"] == 1
    assert row["attempts_total"] > row["completed"]
