"""Ablation: rkey fetch strategies after migration (§3.3 future work).

After a migration, every partner's cached rkeys for the migrated service
are stale.  The shipped design re-fetches lazily ("the first time of
translation... fetches the corresponding physical one from the remote
side", amortized over later translations); the paper names
pre-fetch/batch-fetch as future work.  Both are implemented; this ablation
runs a workload that spreads one-sided WRITEs over many MRs (the case
where lazy re-fetching hurts: one control-plane round trip per MR) and
measures the demand fetch RPCs each strategy needs.  It is not a paper
number, so it builds its bed directly.
"""

import pytest

from bench_common import record_result
from repro.beds import PerftestBed
from repro.config import default_config

NUM_MRS = 32

HEADER = (f"{'strategy':<15} {'demand_fetches':>15} {'fetch_rpcs':>11} "
          f"{'cache_misses':>13} {'blackout_ms':>12}")


def run_with(prefetch: bool):
    config = default_config()
    config.migration.rkey_prefetch = prefetch
    bed = PerftestBed(4, msg_size=16384, depth=8, migrate="receiver",
                      config=config)
    bed.run(bed.setup())

    def add_targets():
        # The receiver (the migrating side) exposes many MRs; the partner
        # spreads its WRITEs across all of them round-robin.
        mrs = yield from bed.receiver.register_extra_mrs(NUM_MRS, size=16384)
        targets = [(mr.addr, mr.rkey) for mr in mrs]
        for conn in bed.sender.connections:
            conn.remote_targets = list(targets)

    bed.run(add_targets())
    report = bed.run_migration(warmup_s=5e-3, settle_s=40e-3)
    return report, bed.sender.lib


@pytest.fixture(scope="module")
def libs():
    out = {}
    for name, prefetch in (("lazy", False), ("batch-prefetch", True)):
        report, lib = run_with(prefetch)
        out[name] = lib
        record_result(
            "ablation_rkey_fetch.txt", HEADER,
            f"{name:<15} {lib.demand_fetches:>15} {lib.fetch_rpcs:>11} "
            f"{lib.rkey_cache.misses:>13} {report.blackout_s * 1e3:>12.1f}")
    record_result(
        "ablation_rkey_fetch.txt", HEADER,
        f"# successful demand fetches: lazy={out['lazy'].demand_fetches} "
        f"batch-prefetch={out['batch-prefetch'].demand_fetches}")
    return out


def test_ablation_prefetch_cuts_demand_fetches(libs):
    # The batch RPC replaces most per-MR demand round trips.
    assert libs["batch-prefetch"].demand_fetches < libs["lazy"].demand_fetches
