#!/usr/bin/env python
"""Measure MigrRDMA's data-path virtualization overhead (Table 4 style).

Runs the perftest cycle-sampling extension over the plain verbs library and
over the MigrRDMA guest library, for each of the four data-path operations,
and prints per-operation CPU cycles plus the relative overhead.  Also shows
the §6 comparison against LubeRDMA's linked-list key translation and a
FreeFlow-style full-queue virtualization.

The measurement cells come from ``repro.experiments.table4`` (what
``python -m repro.experiments table4`` prints, here over 512 operations
per cell); pass ``--jobs N`` to fan them over worker processes.

Run:  python examples/virtualization_overhead.py [--jobs 4]
"""

import sys

from repro.baselines import FreeFlowCostModel, LubeRdmaKeyTable
from repro.baselines.keytables import uniform_access_pattern
from repro.experiments import format_table4, table4


def main():
    jobs = int(sys.argv[sys.argv.index("--jobs") + 1]) if "--jobs" in sys.argv else 1
    print("=== Table 4: data-path CPU cycles per operation (64 B, 1 RC QP) ===")
    print("\n".join(format_table4(table4(iters=512, jobs=jobs))))

    print()
    print("=== §6: key translation designs (uniform access over N MRs) ===")
    print(f"{'N MRs':<8} {'MigrRDMA array':>15} {'LubeRDMA list':>15}")
    for num_mrs in (4, 16, 64, 256):
        linked = LubeRdmaKeyTable()
        for i in range(num_mrs):
            linked.register(i)
        pattern = uniform_access_pattern(num_mrs, 5000)
        list_cycles = linked.mean_lookup_cycles(pattern)
        array_cycles = linked.cpu.lkey_array_lookup_cycles
        print(f"{num_mrs:<8} {array_cycles:>13.1f}cy {list_cycles:>13.1f}cy")

    freeflow = FreeFlowCostModel()
    print()
    print("FreeFlow-style full queue virtualization: "
          f"{freeflow.per_wr_overhead_cycles():.0f} cycles/WR "
          f"({freeflow.overhead_fraction(freeflow.cpu.base_cycles['send']):.0%} of a SEND)")


if __name__ == "__main__":
    main()
