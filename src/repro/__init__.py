"""MigrRDMA reproduction: software-based live migration for RDMA.

This package reproduces the system described in "Software-based Live
Migration for RDMA" (SIGCOMM 2025) on a from-scratch simulated substrate:

- :mod:`repro.sim` -- discrete-event kernel
- :mod:`repro.mem` -- process virtual memory (VMAs, pages, mremap)
- :mod:`repro.fabric` -- 100 Gbps fabric, switch, loss model, TCP channel
- :mod:`repro.rnic` -- the RNIC device model (QPs, CQs, MRs, engines)
- :mod:`repro.verbs` -- ibverbs-style user API
- :mod:`repro.migration` -- CRIU/runc-like container checkpoint/restore
- :mod:`repro.core` -- MigrRDMA itself (indirection layer, translation,
  wait-before-stop, pre-setup, migration orchestration)
- :mod:`repro.baselines` -- no-presetup, MigrOS, LubeRDMA, FreeFlow, failover
- :mod:`repro.apps` -- perftest and Hadoop-like workloads
- :mod:`repro.obs` -- tracing, the metrics snapshot, 5 ms NIC throughput
- :mod:`repro.fleet` -- cluster-scale orchestration: fat-tree racks, fleet
  state store, migration scheduler (drains, rebalancing, evictions)

Quickstart::

    from repro import cluster
    from repro.core import LiveMigration, MigrRdmaWorld

    tb = cluster.build(num_partners=1)
    world = MigrRdmaWorld(tb)
    ...

See README.md and the ``examples/`` directory for complete usage.
"""

from repro.config import Config, default_config

__version__ = "1.0.0"

__all__ = ["Config", "default_config", "__version__"]
