#!/usr/bin/env python
"""Drain a whole rack of a live fleet, concurrently, under admission control.

The paper migrates one container between two hosts; this example runs
the layer above: a 2-rack fleet of hosts behind oversubscribed ToR
trunks, every host carrying paced RDMA-WRITE workloads, and a scheduler
draining ``rack0`` — every container on it live-migrates to the least
loaded host in ``rack1``, at most two migrations in flight at a time.
Afterwards the chaos invariants (including ``fleet-placement``: every
container alive in exactly one place) certify the drain, and the
FleetReport shows the blackout distribution and per-trunk utilisation.

Run:  python examples/fleet_drain.py
"""

from repro.beds import checked
from repro.fleet import build_fleet


def main():
    fleet = build_fleet(racks=2, hosts_per_rack=2, containers=8, seed=7)
    print(fleet)
    fleet.run(fleet.setup())
    fleet.start_traffic()

    # Plan the drain, run it (at most two migrations in flight), settle,
    # quiesce: one call, the same one the runners and the torture harness make.
    report, jobs = fleet.run_policy("drain", "rack0", concurrency=2)
    print(f"drained rack0: {len(jobs)} containers moved\n")
    print(report.render())

    tail = checked(fleet.context())
    print(f"\n{len(tail['invariants_checked'])} invariants checked: "
          f"{'all hold' if tail['invariants_ok'] else tail['violations']}")
    for host in fleet.state.hosts:
        print(f"{host}: {fleet.state.containers_on(host)}")
    return 0 if tail["invariants_ok"] and report.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
