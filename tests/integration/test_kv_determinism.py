"""KV determinism pins.

Two contracts:

1. ``experiments kv --seed 7 --jobs 1`` and ``--jobs 2`` agree on the
   digest, the victim's p99 GET latency and ``events_processed`` — the
   KV runner restarts the PID/QPN streams like every other sweep point,
   so results depend only on arguments.
2. QoS is free when it isn't shaping: a run with the QoS model
   *uninstalled* and a run with it installed but every tenant unshaped
   produce bit-identical simulated timestamps and event counts.  The
   token bucket only ever inserts events for shaped tenants, so the
   pre-existing seed timestamps of every non-KV experiment are safe.
"""

from repro.parallel import TaskSpec, run_tasks
from repro.parallel.runners import kvstore_run

FAST = dict(seed=7, n_clients=1, keyspace=16, depth=2,
            noise_msg_size=262144, noise_depth=4, settle_s=1e-3,
            readback_keys=2)

#: Literal (digest, sim_now, events_processed, victim_get_p99_us) per point,
#: recorded on the commit before the workload beds (repro/beds.py): a
#: refactor is held to these values, not merely to agreeing with itself.
PINNED = {
    "quiet": ("3117be4c3ae4bda1d5ce862ea564e5feec3319d3531a570902cf0523796a4952",
              0.10506991190097066, 419266, 3.0000000000030003),
    "noise": ("e259984e26a098e04a26dcb1ac2ae242a043c40119eaf1be7b7e18088c949cf0",
              0.10789349827169727, 336093, 24.000000000002316),
    "noqos": ("a876559d62afc3e51425dc690e4ba9423781c149b21b749cfd289ed5b519f99a",
              0.1077568692633944, 203421, 44.000000000044004),
    # same instants and events as "noqos"; the installed tenants are on the
    # digest surface
    "unshaped": ("844a4dd40d3bfda3e4595c34a4724954f0bb7f540edef7fe3b8326250bffc2b0",
                 0.1077568692633944, 203421, 44.000000000044004),
}


def _pin(row):
    return (row["digest"], row["sim_now"], row["events_processed"],
            row["victim_get_p99_us"])


def test_kv_sweep_identical_across_jobs():
    specs = [TaskSpec("repro.parallel.runners.kvstore_run",
                      dict(FAST, noise=noise),
                      label=f"kvdet:{'noise' if noise else 'quiet'}")
             for noise in (False, True)]
    sequential = run_tasks(specs, jobs=1)
    parallel = run_tasks(specs, jobs=2)
    assert all(r.ok for r in sequential + parallel), \
        [r.error for r in sequential + parallel if not r.ok]
    for seq, par in zip(sequential, parallel):
        assert seq.value["digest"] == par.value["digest"]
        assert seq.value["victim_get_p99_us"] == par.value["victim_get_p99_us"]
        assert seq.value["events_processed"] == par.value["events_processed"]
        assert seq.value["sim_now"] == par.value["sim_now"]
        assert seq.value["invariants_ok"]
        assert not seq.value["contract_violations"]
    # Digests are non-trivial.
    assert sequential[0].value["digest"] != sequential[1].value["digest"]
    assert _pin(sequential[0].value) == PINNED["quiet"]
    assert _pin(sequential[1].value) == PINNED["noise"]


def test_unshaped_qos_is_event_free():
    without = kvstore_run(qos=False, **FAST)
    unshaped = kvstore_run(qos=True, noise_limit_gbps=None, **FAST)
    assert without["sim_now"] == unshaped["sim_now"]
    assert without["events_processed"] == unshaped["events_processed"]
    assert without["victim_get_p99_us"] == unshaped["victim_get_p99_us"]
    assert without["blackout_ms"] == unshaped["blackout_ms"]
    assert without["invariants_ok"] and unshaped["invariants_ok"]
    assert _pin(without) == PINNED["noqos"]
    assert _pin(unshaped) == PINNED["unshaped"]
