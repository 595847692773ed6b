"""Liveness: the KV server's reply SENDs to a migrating victim are held by
RNR back-off, not multiplied.

The bed is the performance ledger's ``kv_noisy`` shape (one depth-2
victim, 24 keys, a 128 KiB x depth-4 neighbour shaped to 40 Gb/s) at KV
op-stream seed 18, where two reply SENDs reach the frozen victim at once.
The run is driven in 1 ms simulated slices under an event budget, so a
retransmit storm fails by name within seconds instead of hanging.
"""

from repro.apps.contract import WorkloadHarness, run_contract
from repro.beds import KvBed, checked
from repro.rnic import TenantSpec

EVENT_BUDGET = 1_000_000
SLICE_S = 1e-3


def test_reply_sends_to_frozen_victim_finish_clean():
    """Drive the bed under the event budget; fail unless the run ends with
    the KV contract and all 12 invariants clean."""
    bed = KvBed(18, n_clients=1, keyspace=24, value_len=32, depth=2,
                tenants=[TenantSpec("victim", max_qps=3),
                         TenantSpec("noisy", rate_bps=40e9)],
                noise=(131072, 4))
    bed.run(bed.setup())
    sim = bed.sim
    t_traffic = sim.now
    bed.start_traffic()

    def flow():
        yield sim.timeout(2e-3)
        yield from bed.migrate()
        yield sim.timeout(2e-3)
        yield from bed.quiesce()

    done = sim.spawn(flow())
    for _ in range(1000):
        if done.triggered:
            break
        sim.run(until=sim.now + SLICE_S)
        assert sim.events_processed < EVENT_BUDGET, (
            f"retransmit storm: {sim.events_processed} events by "
            f"t={sim.now * 1e3:.2f} ms")
    assert done.triggered and done.ok
    t_stop = sim.now

    freshness = []

    def sweep():
        for key in bed.keys[:4]:
            log = bed.kv.kv_applies.get(key)
            got = yield from bed.clients[0].readback(key)
            freshness.append((key, got[1] if got else -1, log[-1][0] if log else 0))

    bed.run(sweep(), limit=30.0)
    harness = WorkloadHarness(
        name="kvstore",
        capabilities=frozenset({"accounting", "delivery", "history", "cas",
                                "freshness", "qos"}),
        endpoints=tuple(bed.endpoints), pairs=(),
        kv_clients=tuple(bed.clients), kv_server=bed.kv,
        freshness_probes=tuple(freshness),
        qos_probes=((bed.source.rnic, "noisy", t_stop - t_traffic, 4 * 131072),))
    assert run_contract(harness) == []
    tail = checked(bed.context())
    assert tail["violations"] == []
    assert tail["invariants_ok"] and len(tail["invariants_checked"]) == 12
