"""Unit tests for the observability subsystem (repro.obs)."""

import json

import pytest

from repro.obs import (
    Histogram,
    MetricsRegistry,
    Tracer,
    chrome_trace_events,
    timeline_summary,
    write_chrome_trace,
)
from repro.sim import Simulator


# ---------------------------------------------------------------------------
# Tracer: spans, ordering, lanes
# ---------------------------------------------------------------------------


def test_span_records_simulated_duration():
    sim = Simulator()
    tracer = Tracer(sim).attach()
    lane = tracer.lane("node", "engine")

    def work():
        span = tracer.begin_span(lane, "op", {"k": 1})
        yield sim.timeout(1e-3)
        dur = span.end(extra=2)
        assert dur == pytest.approx(1000.0)  # microseconds

    sim.spawn(work())
    sim.run()

    spans = [e for e in tracer.events() if e[0] == "X"]
    assert len(spans) == 1
    _kind, span_lane, name, start_us, dur_us, args = spans[0]
    assert span_lane is lane
    assert name == "op"
    assert start_us == 0.0
    assert dur_us == pytest.approx(1000.0)
    assert args == {"k": 1, "extra": 2}


def test_nested_spans_keep_containment_and_order():
    sim = Simulator()
    tracer = Tracer(sim).attach()
    lane = tracer.lane("node", "engine")

    def work():
        outer = tracer.begin_span(lane, "outer")
        yield sim.timeout(1e-3)
        inner = tracer.begin_span(lane, "inner")
        yield sim.timeout(1e-3)
        inner.end()
        yield sim.timeout(1e-3)
        outer.end()

    sim.spawn(work())
    sim.run()

    spans = {e[2]: e for e in tracer.events() if e[0] == "X"}
    inner, outer = spans["inner"], spans["outer"]
    # inner is entirely contained in outer
    assert outer[3] <= inner[3]
    assert inner[3] + inner[4] <= outer[3] + outer[4] + 1e-9
    # records are appended in end order: inner ends first
    names = [e[2] for e in tracer.events() if e[0] == "X"]
    assert names == ["inner", "outer"]


def test_sync_span_context_manager_and_instants():
    sim = Simulator()
    tracer = Tracer(sim).attach()
    lane = tracer.lane("node", "x")
    with tracer.span(lane, "sync") as span:
        assert span is not None
    tracer.instant(lane, "tick", {"n": 1})
    kinds = [e[0] for e in tracer.events()]
    assert kinds == ["X", "i"]
    assert tracer.span_count(lane) == 1


def test_open_spans_are_tracked_until_ended():
    sim = Simulator()
    tracer = Tracer(sim).attach()
    span = tracer.begin_span(tracer.lane("n", "t"), "leaky")
    assert tracer.open_spans() == [span]
    span.end()
    assert tracer.open_spans() == []
    # double-end is a harmless no-op
    assert span.end() == 0.0
    assert tracer.span_count() == 1


def test_lane_identity_and_pid_tid_assignment():
    sim = Simulator()
    tracer = Tracer(sim)
    a1 = tracer.lane("nodeA", "t1")
    a2 = tracer.lane("nodeA", "t2")
    b1 = tracer.lane("nodeB", "t1")
    assert tracer.lane("nodeA", "t1") is a1
    assert a1.pid == a2.pid != b1.pid
    assert a1.tid != a2.tid
    assert len(tracer.lanes()) == 3


def test_disabled_tracer_records_nothing():
    sim = Simulator()
    tracer = Tracer(sim, enabled=False).attach()
    lane = tracer.lane("n", "t")
    assert tracer.begin_span(lane, "op") is None
    with tracer.span(lane, "sync") as span:
        assert span is None
    tracer.instant(lane, "i")
    tracer.counter(lane, "c", {"v": 1})
    assert len(tracer) == 0
    assert tracer.open_spans() == []


def test_attach_detach():
    sim = Simulator()
    tracer = Tracer(sim).attach()
    assert sim.tracer is tracer
    tracer.detach()
    assert sim.tracer is None


def test_kernel_lane_samples_dispatch_batches():
    sim = Simulator()
    tracer = Tracer(sim, kernel_sample_every=10).attach()

    def work():
        for _ in range(25):
            yield sim.timeout(1e-6)

    sim.spawn(work())
    sim.run()

    kernel = tracer.kernel_lane()
    batches = [e for e in tracer.events() if e[0] == "X" and e[1] is kernel]
    counters = [e for e in tracer.events() if e[0] == "C"]
    assert batches, "no dispatch-batch spans sampled"
    assert all(e[2] == "dispatch-batch" for e in batches)
    assert counters and counters[-1][4]["events"] <= sim.events_processed


def test_event_census_counts_dispatches_by_family():
    from repro.fabric import Port
    from repro.obs import census_summary

    sim = Simulator()
    assert Tracer(sim).census is None  # off unless asked for
    tracer = Tracer(sim, census=True).attach()
    port = Port(sim, rate_bps=8e9)

    def worker():
        for _ in range(3):
            yield sim.timeout(1e-6)
        yield port.transmit(1000)

    sim.spawn(worker(), name="worker:0x2a:7")
    port.transmit_cb(1000, lambda: None)
    port.transmit(1000)  # event form, returned event dropped
    sim.event().succeed()
    sim.run()

    census = tracer.census
    assert sum(census.values()) == sim.events_processed - sim.events_credited
    assert census["Port._finish"] == 3
    assert census["timeout -> process worker:#:#"] == 3
    assert census["event -> process worker:#:#"] == 1
    # the dropped wire-done, the bare event, and the worker's own completion
    assert census["event with no listener"] == 3
    assert census["Process._start"] == 1
    assert sim.events_credited == 1
    report = census_summary(tracer)
    assert "event with no listener" in report and "(+1 credited" in report


# ---------------------------------------------------------------------------
# Chrome trace export
# ---------------------------------------------------------------------------


def test_chrome_trace_schema(tmp_path):
    sim = Simulator()
    tracer = Tracer(sim).attach()
    lane = tracer.lane("node", "engine")

    def work():
        span = tracer.begin_span(lane, "op")
        yield sim.timeout(2e-3)
        span.end()
        tracer.instant(lane, "mark", {"a": 1})
        tracer.counter(lane, "bytes", {"tx": 10})
        tracer.begin_span(lane, "never-ended")

    sim.spawn(work())
    sim.run()

    path = tmp_path / "t.json"
    doc = write_chrome_trace(tracer, path)
    # round-trips as JSON
    loaded = json.loads(path.read_text())
    assert loaded == json.loads(json.dumps(doc))

    events = loaded["traceEvents"]
    by_ph = {}
    for e in events:
        by_ph.setdefault(e["ph"], []).append(e)
        # every event has the required keys
        assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
        assert "name" in e
        if e["ph"] != "M":
            assert isinstance(e["ts"], (int, float))
    # metadata names the lane
    meta_names = {e["name"] for e in by_ph["M"]}
    assert {"process_name", "thread_name"} <= meta_names
    (x_event,) = by_ph["X"]
    assert x_event["name"] == "op" and x_event["dur"] == pytest.approx(2000.0)
    (i_event,) = by_ph["i"]
    assert i_event["s"] == "t" and i_event["args"] == {"a": 1}
    (c_event,) = by_ph["C"]
    assert c_event["args"] == {"tx": 10}
    (b_event,) = by_ph["B"]  # the never-ended span
    assert b_event["name"] == "never-ended"


def test_chrome_trace_includes_metrics_snapshot(tmp_path):
    sim = Simulator()
    tracer = Tracer(sim).attach()
    metrics = MetricsRegistry()
    metrics.scrape_sim(sim)
    doc = write_chrome_trace(tracer, tmp_path / "t.json", metrics=metrics)
    assert doc["otherData"]["metrics"] == {
        "sim.events_processed": 0, "sim.failed_processes": 0, "sim.now_s": 0.0}


def test_timeline_summary_renders():
    sim = Simulator()
    tracer = Tracer(sim).attach()
    lane = tracer.lane("node", "engine")

    def work():
        with tracer.span(lane, "op"):
            pass
        yield sim.timeout(1e-3)
        tracer.instant(lane, "mark")

    sim.spawn(work())
    sim.run()
    text = timeline_summary(tracer)
    assert "node/engine" in text
    assert "op" in text


def test_export_of_empty_tracer():
    sim = Simulator()
    tracer = Tracer(sim)
    assert chrome_trace_events(tracer) == []
    assert "lanes:" in timeline_summary(tracer)


# ---------------------------------------------------------------------------
# Metrics: histograms, the registry's snapshot and scrapers
# ---------------------------------------------------------------------------


def test_histogram_percentile_math():
    h = Histogram("h")
    for v in [10, 20, 30, 40, 50]:
        h.observe(v)
    assert h.count == 5
    assert h.min == 10 and h.max == 50
    assert h.mean == pytest.approx(30.0)
    assert h.percentile(0) == 10
    assert h.percentile(100) == 50
    assert h.percentile(50) == 30
    assert h.percentile(25) == 20  # exact rank
    assert h.percentile(10) == pytest.approx(14.0)  # interpolated
    assert h.percentile(90) == pytest.approx(46.0)
    summary = h.summary()
    assert summary["count"] == 5 and summary["p50"] == 30
    # insertion order does not matter
    h2 = Histogram("h2")
    for v in [50, 10, 40, 20, 30]:
        h2.observe(v)
    assert h2.percentile(90) == h.percentile(90)


def test_histogram_edge_cases():
    h = Histogram("h")
    with pytest.raises(ValueError):
        h.percentile(50)
    assert h.summary() == {"count": 0}
    h.observe(7.0)
    assert h.percentile(0) == h.percentile(100) == 7.0
    with pytest.raises(ValueError):
        h.percentile(101)


def test_registry_snapshot_and_render():
    sim = Simulator()

    def work():
        yield sim.timeout(2.5e-3)

    sim.spawn(work())
    sim.run()
    reg = MetricsRegistry()
    reg.scrape_sim(sim)
    snap = reg.snapshot()
    assert list(snap) == sorted(snap)
    # run_digest hashes repr(value): counts must stay ints, not floats
    assert type(snap["sim.events_processed"]) is int
    assert snap["sim.events_processed"] == sim.events_processed
    assert snap["sim.now_s"] == 2.5e-3
    text = reg.render()
    assert f"sim.events_processed  {sim.events_processed}" in text
    assert "sim.now_s             0.0025" in text
    assert MetricsRegistry().render() == "(no metrics)"


def test_scrape_sim():
    sim = Simulator()

    def work():
        yield sim.timeout(1e-3)

    sim.spawn(work())
    sim.run()
    reg = MetricsRegistry()
    reg.scrape_sim(sim)
    snap = reg.snapshot()
    assert snap["sim.events_processed"] == sim.events_processed > 0
    assert snap["sim.now_s"] == sim.now
