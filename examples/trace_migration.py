#!/usr/bin/env python
"""Trace a live migration and export a Perfetto-loadable timeline.

Attaches a :class:`repro.obs.Tracer` to the simulator before anything else
runs, so every instrumented layer emits into it: the simulation kernel
(wall-clock dispatch batches), per-QP RNIC engines, the verbs data path,
the wait-before-stop threads, CRIU dump/restore, and the migration
workflow with its Figure 3 blackout phases.  The result is written as
Chrome trace-event JSON — drag it into https://ui.perfetto.dev (or
chrome://tracing) to see the migration the way Figure 2(b) draws it.

Run:  python examples/trace_migration.py [output.json]
"""

import sys

from repro.beds import PerftestBed
from repro.obs import MetricsRegistry, Tracer, timeline_summary, write_chrome_trace


def main(out_path="trace_migration.json"):
    # 1. A perftest WRITE stream (4 QPs) through the MigrRDMA guest library,
    # and a tracer attached before the first simulated event, so even the
    # control-plane setup traffic lands on the timeline.
    bed = PerftestBed(4, msg_size=16384, depth=16)
    tracer = Tracer(bed.sim).attach()
    bed.run(bed.setup())

    # 2. Migrate the sender mid-stream; raises unless every completion
    # came back in order with a good status.
    report = bed.run_migration(warmup_s=5e-3, settle_s=5e-3)

    # 3. Export: Chrome trace JSON + metrics snapshot + text summary.
    metrics = MetricsRegistry()
    metrics.scrape_testbed(bed, bed.world)
    write_chrome_trace(tracer, out_path, metrics=metrics)
    print(timeline_summary(tracer, metrics=metrics, top=10))

    # The timeline must cover every instrumented layer: the sim kernel,
    # the RNIC engines, the verbs data path, wait-before-stop, and the
    # migration phases.  (A regression here means an instrumentation hook
    # went missing.)
    processes = {lane.process for lane in tracer.lanes()}
    threads = {(lane.process, lane.thread) for lane in tracer.lanes()}
    assert Tracer.KERNEL_PROCESS in processes, processes
    assert "migration" in processes, processes
    assert ("migration", "blackout-phases") in threads, threads
    assert any(t.startswith("qp") for _p, t in threads), threads      # RNIC engines
    assert any(t == "verbs" for _p, t in threads), threads            # verbs posts/polls
    assert any(t.startswith("wbs:") for _p, t in threads), threads    # wait-before-stop
    assert len(tracer.lanes()) >= 5
    assert tracer.span_count() > 0

    print()
    print(f"blackout {report.blackout_s * 1e3:.2f} ms across "
          f"{len(tracer.lanes())} lanes, {len(tracer)} records")
    print(f"wrote {out_path} -- load it in https://ui.perfetto.dev")


if __name__ == "__main__":
    main(*sys.argv[1:])
