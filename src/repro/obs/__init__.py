"""Observability: tracing + metrics for every layer of the stack.

The evaluation lives on attributing every microsecond of blackout and WBS
drain to a phase; this package is the substrate that makes that possible
without ad-hoc printf archaeology:

- :class:`Tracer` (:mod:`repro.obs.tracer`) — spans and instant events on
  simulated time, organised into node → QP/engine/WBS/migration-phase
  lanes, with a wall-clock lane for the simulation kernel itself.  Attach
  one to a :class:`~repro.sim.Simulator` (``Tracer(sim).attach()``) and
  the instrumented layers (sim kernel, RNIC engines, verbs, WBS,
  orchestrator, CRIU) start emitting.  A simulator without a tracer pays
  one attribute load + None test per instrumentation point, and an
  attached tracer never changes simulated timestamps or the RNG stream.
- :class:`MetricsRegistry` (:mod:`repro.obs.metrics`) — named counters,
  gauges and histograms unifying the stack's pre-existing ad-hoc counters
  (NIC bytes, kernel events, translation-cache hits, WBS drain counts)
  under one snapshot.
- exporters (:mod:`repro.obs.export`) — Chrome trace-event JSON loadable
  in Perfetto / ``chrome://tracing``, a plain-text timeline summary, and
  the event census (``Tracer(sim, census=True)``: kernel dispatches by
  callback family, including events that wake nobody).

Quick use::

    from repro.obs import MetricsRegistry, Tracer, write_chrome_trace

    tracer = Tracer(tb.sim).attach()
    ... run the experiment ...
    metrics = MetricsRegistry()
    metrics.scrape_testbed(tb, world)
    write_chrome_trace(tracer, "trace.json", metrics=metrics)
"""

from repro.obs.export import (
    census_summary,
    chrome_trace_events,
    timeline_summary,
    write_chrome_trace,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracer import Lane, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Lane",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "census_summary",
    "chrome_trace_events",
    "timeline_summary",
    "write_chrome_trace",
]
