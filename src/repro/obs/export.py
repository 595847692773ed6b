"""Trace exporters: Chrome trace-event JSON (Perfetto) and text timelines.

``chrome_trace_events`` turns a :class:`~repro.obs.tracer.Tracer`'s records
into the Chrome trace-event format — the JSON that ``chrome://tracing`` and
https://ui.perfetto.dev load directly.  Model lanes carry simulated-time
timestamps (microseconds, which the format natively expects); the kernel's
lane carries wall-clock microseconds since tracer creation.  Each lane
maps onto a (pid, tid) pair with ``process_name``/``thread_name`` metadata
so Perfetto shows human-readable tracks grouped by node / subsystem.

``timeline_summary`` renders the same records as an aligned plain-text
report: per-lane span statistics plus the chronological list of the
longest spans — the quick look before reaching for Perfetto.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.obs.tracer import Tracer, _COUNTER, _INSTANT, _SPAN

__all__ = ["chrome_trace_events", "write_chrome_trace", "timeline_summary"]


def chrome_trace_events(tracer: Tracer) -> List[Dict[str, Any]]:
    """The tracer's records as a list of Chrome trace-event dicts."""
    events: List[Dict[str, Any]] = []
    # Metadata first: readable process/thread names and stable sort order.
    for lane in tracer.lanes():
        events.append({"ph": "M", "name": "process_name", "pid": lane.pid,
                       "tid": 0, "args": {"name": lane.process}})
        events.append({"ph": "M", "name": "process_sort_index", "pid": lane.pid,
                       "tid": 0, "args": {"sort_index": lane.pid}})
        events.append({"ph": "M", "name": "thread_name", "pid": lane.pid,
                       "tid": lane.tid, "args": {"name": lane.thread}})
        events.append({"ph": "M", "name": "thread_sort_index", "pid": lane.pid,
                       "tid": lane.tid, "args": {"sort_index": lane.tid}})
    for record in tracer.events():
        kind, lane = record[0], record[1]
        if kind == _SPAN:
            _kind, _lane, name, start_us, dur_us, args = record
            event = {"ph": "X", "name": name, "pid": lane.pid, "tid": lane.tid,
                     "ts": start_us, "dur": dur_us, "cat": lane.process}
            if args:
                event["args"] = args
            events.append(event)
        elif kind == _INSTANT:
            _kind, _lane, name, ts_us, args = record
            event = {"ph": "i", "name": name, "pid": lane.pid, "tid": lane.tid,
                     "ts": ts_us, "s": "t", "cat": lane.process}
            if args:
                event["args"] = args
            events.append(event)
        elif kind == _COUNTER:
            _kind, _lane, name, ts_us, series = record
            events.append({"ph": "C", "name": name, "pid": lane.pid,
                           "tid": lane.tid, "ts": ts_us, "args": dict(series)})
    # Unended spans (leaked or still in flight): emit open B events so the
    # timeline still shows where they started.
    for span in tracer.open_spans():
        lane = span._lane
        event = {"ph": "B", "name": span.name, "pid": lane.pid, "tid": lane.tid,
                 "ts": span.start_us, "cat": lane.process}
        if span.args:
            event["args"] = span.args
        events.append(event)
    return events


def write_chrome_trace(tracer: Tracer, path, metrics=None) -> Dict[str, Any]:
    """Write ``{"traceEvents": [...]}`` JSON to ``path``; returns the dict.

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) lands in
    ``otherData`` so the final counter values travel with the timeline.
    """
    document: Dict[str, Any] = {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
    }
    if metrics is not None:
        document["otherData"] = {"metrics": metrics.snapshot()}
    with open(path, "w") as handle:
        json.dump(document, handle)
    return document


def census_summary(tracer: Tracer) -> str:
    """Plain-text event census: kernel dispatches by callback family,
    most frequent first, with the share of all dispatches counted."""
    census = tracer.census or {}
    total = sum(census.values())
    lines = [f"event census: {total} dispatches "
             f"(+{tracer.sim.events_credited} credited, never dispatched)",
             f"  {'events':>10}{'share':>8}  family"]
    for family, count in sorted(census.items(), key=lambda kv: (-kv[1], kv[0])):
        lines.append(f"  {count:>10}{count / total:>8.1%}  {family}")
    return "\n".join(lines)


def timeline_summary(tracer: Tracer, metrics=None, top: int = 20) -> str:
    """Plain-text report: per-lane span stats + the longest spans.

    Only simulated-time lanes are ranked and summed, so the report is a
    function of the seed.  The kernel's lanes carry wall-clock time; they
    get a separate section with their record counts, and their durations
    stay in the Chrome trace."""
    per_lane: Dict[Any, Dict[str, float]] = {}
    host_lanes: Dict[Any, Dict[str, float]] = {}
    spans: List[tuple] = []
    for record in tracer.events():
        kind, lane = record[0], record[1]
        if kind not in (_SPAN, _INSTANT):
            continue
        lanes = host_lanes if lane.process == tracer.KERNEL_PROCESS else per_lane
        stats = lanes.setdefault(lane, {"spans": 0, "busy_us": 0.0, "instants": 0})
        if kind == _INSTANT:
            stats["instants"] += 1
            continue
        _k, _l, name, start_us, dur_us, _args = record
        stats["spans"] += 1
        if lanes is per_lane:
            stats["busy_us"] += dur_us
            spans.append((start_us, dur_us, lane, name))

    def by_lane(lanes):
        return sorted(lanes.items(), key=lambda kv: (kv[0].pid, kv[0].tid))

    lines: List[str] = []
    lines.append("lanes:")
    lines.append(f"  {'lane':<34}{'spans':>8}{'busy_ms':>10}{'instants':>10}")
    for lane, stats in by_lane(per_lane):
        label = f"{lane.process}/{lane.thread}"
        lines.append(f"  {label:<34}{int(stats['spans']):>8}"
                     f"{stats['busy_us'] / 1e3:>10.3f}{int(stats['instants']):>10}")
    if spans:
        lines.append("")
        lines.append(f"longest {min(top, len(spans))} spans:")
        lines.append(f"  {'t_start_ms':>12}{'dur_ms':>10}  span")
        for start_us, dur_us, lane, name in sorted(
                spans, key=lambda s: -s[1])[:top]:
            lines.append(f"  {start_us / 1e3:>12.3f}{dur_us / 1e3:>10.3f}  "
                         f"{lane.process}/{lane.thread}: {name}")
    if host_lanes:
        lines.append("")
        lines.append("host-timed lanes (wall clock, durations in the trace JSON only):")
        lines.append(f"  {'lane':<34}{'spans':>8}{'instants':>10}")
        for lane, stats in by_lane(host_lanes):
            label = f"{lane.process}/{lane.thread}"
            lines.append(f"  {label:<34}{int(stats['spans']):>8}"
                         f"{int(stats['instants']):>10}")
    if metrics is not None:
        lines.append("")
        lines.append("metrics:")
        for row in metrics.render().splitlines():
            lines.append(f"  {row}")
    return "\n".join(lines)
