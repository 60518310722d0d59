"""Trace exporters: Chrome trace-event JSON and Prometheus text metrics.

The diagnostics layer (PR 2) records *what* each compilation did --
per-phase wall-clock spans (now with ``started_s`` start stamps), rewrite
transcript entries (with ``at_s`` stamps on the same ``perf_counter``
clock), counters, and messages.  This module turns those records into two
standard observability formats:

* :func:`build_chrome_trace` / :func:`write_chrome_trace` -- the Chrome
  trace-event JSON format (the ``{"traceEvents": [...]}`` flavor), loadable
  in Perfetto / ``chrome://tracing``.  Phases become complete spans
  (``"ph": "X"``), rewrites and counters become instant events
  (``"ph": "i"``), and every compilation source gets its own pid/tid track
  (the batch driver passes one track per worker process).  Because
  ``perf_counter`` epochs differ across processes, timestamps are
  normalized per track to a zero base.

* :func:`prometheus_metrics` / :func:`write_metrics` -- a Prometheus text
  exposition dump of phase seconds, rule firings, and counters, for diffing
  runs or scraping from CI artifacts.

Both accept :class:`repro.diagnostics.Diagnostics` objects or their
``to_json()`` dicts (the batch driver ships the latter across the process
boundary).

PR 9 adds the *machine* side of the story, fed by
:class:`repro.telemetry.MachineTelemetry` (objects or ``to_json()``
dicts):

* :func:`machine_trace_events` / :func:`build_machine_trace` /
  :func:`write_machine_trace` -- execution-track Chrome events: one span
  per ``Machine.run()``, one span per GC pause, and a ``heap live``
  counter track sampled on an allocation stride.  ``build_chrome_trace``
  takes the same telemetry as an optional argument and appends the
  execution track next to the compile tracks.
* :func:`build_request_trace` / :func:`write_request_trace` -- one
  Perfetto-loadable trace for a daemon round trip: the client wall-clock
  span, the server's reported queue wait and execute windows, the compile
  phases, and the execution spans, every event tagged with the request's
  ``trace_id``.  Client and server clocks are unrelated ``perf_counter``
  epochs, so the server window is centred inside the client span (the
  residue is symmetric transport time).
* :func:`collapsed_stacks` / :func:`write_flamegraph` -- the telemetry
  stack profile in Brendan Gregg's collapsed-stack format
  (``main;loop;leaf 1234`` -- one line per stack, cycles as the weight),
  ready for ``flamegraph.pl`` or speedscope.
* ``repro_machine_*`` Prometheus families (path-attributed cycles,
  hazard-stall cycles by category, inline-cache events, GC totals, heap
  occupancy, block executions) via the ``telemetry`` argument of
  :func:`prometheus_metrics` / :func:`write_metrics`.
* :func:`parse_prometheus_text` -- a strict line-by-line parser for the
  text exposition format, so tests and CI validate metrics documents
  structurally instead of grepping.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: One trace source: (diagnostics | diagnostics-json, pid, tid, label).
TraceEntry = Tuple[Any, int, int, str]


def _as_json(diagnostics: Any) -> Mapping[str, Any]:
    if hasattr(diagnostics, "to_json"):
        return diagnostics.to_json()
    return diagnostics


def _entry_events(diagnostics: Any, pid: int, tid: int, label: str
                  ) -> List[Dict[str, Any]]:
    """Raw events for one compilation, ts/dur still in perf_counter
    *seconds* (the builder converts to normalized microseconds)."""
    data = _as_json(diagnostics)
    events: List[Dict[str, Any]] = []
    phases = [p for p in data.get("phases", ())
              if p.get("started_s") is not None]
    if not phases:
        return events
    start = min(p["started_s"] for p in phases)
    end = max(p["started_s"] + p.get("duration_s", 0.0) for p in phases)
    # The enclosing compile span guarantees every phase nests inside it
    # (tnbind runs *inside* the codegen wall-clock window, so sibling
    # phase spans may overlap; the parent is the containment invariant).
    events.append({
        "name": label or "compile", "cat": "compile", "ph": "X",
        "ts": start, "dur": max(end - start, 0.0), "pid": pid, "tid": tid,
    })
    for record in phases:
        events.append({
            "name": record["phase"], "cat": "phase", "ph": "X",
            "ts": record["started_s"],
            "dur": max(record.get("duration_s", 0.0), 0.0),
            "pid": pid, "tid": tid,
            "args": {
                "function": record.get("function", ""),
                "nodes_before": record.get("nodes_before"),
                "nodes_after": record.get("nodes_after"),
            },
        })
    for rewrite in data.get("rewrites", ()):
        at = rewrite.get("at_s")
        if at is None:
            continue
        events.append({
            "name": rewrite.get("rule", "rewrite"), "cat": "rewrite",
            "ph": "i", "s": "t",
            "ts": min(max(at, start), end), "pid": pid, "tid": tid,
            "args": {"seq": rewrite.get("seq"),
                     "phase": rewrite.get("phase"),
                     "before": rewrite.get("before"),
                     "after": rewrite.get("after")},
        })
    for counter, value in sorted(data.get("counters", {}).items()):
        events.append({
            "name": counter, "cat": "counter", "ph": "i", "s": "t",
            "ts": end, "pid": pid, "tid": tid,
            "args": {"value": value},
        })
    return events


def build_chrome_trace(entries: Iterable[TraceEntry],
                       telemetry: Any = None) -> Dict[str, Any]:
    """Assemble the trace dict from (diagnostics, pid, tid, label) tuples.

    Timestamps are normalized per (pid, tid) track to a zero base and
    converted to microseconds (the format's unit), so tracks recorded on
    different process clocks line up at the origin.

    With *telemetry* (a :class:`repro.telemetry.MachineTelemetry` or its
    ``to_json()`` dict), an "execution" track -- run spans, GC pauses, a
    heap-occupancy counter -- is appended on its own pid next to the
    compile tracks.
    """
    events: List[Dict[str, Any]] = []
    track_labels: Dict[Tuple[int, int], str] = {}
    for diagnostics, pid, tid, label in entries:
        events.extend(_entry_events(diagnostics, pid, tid, label))
        track_labels.setdefault((pid, tid), label)
    if telemetry is not None:
        machine_pid = max((pid for pid, _ in track_labels), default=0) + 1
        events.extend(machine_trace_events(telemetry, pid=machine_pid,
                                           tid=0))
        track_labels.setdefault((machine_pid, 0), "execution")
    bases: Dict[Tuple[int, int], float] = {}
    for event in events:
        track = (event["pid"], event["tid"])
        ts = event["ts"]
        if track not in bases or ts < bases[track]:
            bases[track] = ts
    for event in events:
        base = bases[(event["pid"], event["tid"])]
        event["ts"] = round((event["ts"] - base) * 1e6, 3)
        if "dur" in event:
            event["dur"] = round(event["dur"] * 1e6, 3)
    events.sort(key=lambda e: (e["pid"], e["tid"], e["ts"]))
    metadata: List[Dict[str, Any]] = []
    for (pid, tid), label in sorted(track_labels.items()):
        metadata.append({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "ts": 0, "args": {"name": label or f"track {pid}:{tid}"},
        })
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, entries: Iterable[TraceEntry],
                       telemetry: Any = None) -> int:
    """Write the Chrome trace JSON; returns the number of trace events."""
    trace = build_chrome_trace(entries, telemetry)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, indent=1, default=str)
        handle.write("\n")
    return len(trace["traceEvents"])


# ---------------------------------------------------------------------------
# machine telemetry -> Chrome trace / flamegraph


def _telemetry_json(telemetry: Any) -> Mapping[str, Any]:
    if hasattr(telemetry, "to_json"):
        return telemetry.to_json()
    return telemetry


def machine_trace_events(telemetry: Any, pid: int = 1, tid: int = 1,
                         trace_id: Optional[str] = None
                         ) -> List[Dict[str, Any]]:
    """Raw Chrome events for one telemetry dump, ts/dur still in
    perf_counter *seconds* (builders normalize to microseconds): one
    complete span per ``Machine.run()`` (cat ``execution``), one per GC
    pause (cat ``gc``), and a ``heap live`` counter series from the
    occupancy timeline."""
    data = _telemetry_json(telemetry)
    tag: Dict[str, Any] = {"trace_id": trace_id} if trace_id else {}
    events: List[Dict[str, Any]] = []
    for span in data.get("run_spans", ()):
        if span.get("started_s") is None or span.get("duration_s") is None:
            continue
        events.append({
            "name": f"run {span.get('name', '?')}", "cat": "execution",
            "ph": "X", "ts": span["started_s"],
            "dur": max(span["duration_s"], 0.0), "pid": pid, "tid": tid,
            "args": {**tag, "tier": span.get("tier"),
                     "timing": span.get("timing"),
                     "cycles": span.get("cycles"),
                     "instructions": span.get("instructions"),
                     "stall_cycles": span.get("stall_cycles"),
                     "processor": span.get("processor")},
        })
    for event in data.get("gc_events", ()):
        if event.get("at_s") is None:
            continue
        events.append({
            "name": f"gc [{event.get('reason', '?')}]", "cat": "gc",
            "ph": "X", "ts": event["at_s"],
            "dur": max(event.get("pause_s", 0.0), 0.0),
            "pid": pid, "tid": tid,
            "args": {**tag, "collected": event.get("collected"),
                     "live_before": event.get("live_before"),
                     "live_after": event.get("live_after"),
                     "watermark": event.get("watermark"),
                     "processor": event.get("processor")},
        })
    for sample in data.get("heap_samples", ()):
        if sample.get("at_s") is None:
            continue
        events.append({
            "name": "heap live", "cat": "heap", "ph": "C",
            "ts": sample["at_s"], "pid": pid, "tid": tid,
            "args": {"live": sample.get("live", 0)},
        })
    return events


def build_machine_trace(telemetry: Any) -> Dict[str, Any]:
    """A standalone Chrome trace holding just the execution track."""
    return build_chrome_trace((), telemetry)


def write_machine_trace(path: str, telemetry: Any) -> int:
    """Write the execution-only trace; returns the number of events."""
    trace = build_machine_trace(telemetry)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, indent=1, default=str)
        handle.write("\n")
    return len(trace["traceEvents"])


def build_request_trace(record: Mapping[str, Any],
                        diagnostics: Any = None,
                        telemetry: Any = None) -> Dict[str, Any]:
    """One Perfetto trace for one daemon round trip.

    *record* is what :meth:`repro.client.ServiceClient.compile_traced`
    returns alongside the response: ``{"trace_id", "client":
    {"started_s", "duration_s"}, "server_timing": {"queue_wait_s",
    "execute_s"}}``.  The client span anchors at zero; the server window
    (queue wait, then execute) is centred inside it because the two
    perf_counter clocks share no epoch -- the symmetric residue is
    transport time.  *diagnostics* (the compile's) and *telemetry* (the
    resulting execution's) nest inside the execute window on their own
    threads.  Every event's args carry the ``trace_id``."""
    trace_id = str(record.get("trace_id", ""))
    client = record.get("client") or {}
    client_dur = max(float(client.get("duration_s", 0.0) or 0.0), 0.0)
    timing = record.get("server_timing") or {}
    queue_wait = max(float(timing.get("queue_wait_s", 0.0) or 0.0), 0.0)
    execute = max(float(timing.get("execute_s", 0.0) or 0.0), 0.0)
    offset = max((client_dur - queue_wait - execute) / 2.0, 0.0)
    tag = {"trace_id": trace_id}
    events: List[Dict[str, Any]] = [{
        "name": f"request {trace_id}", "cat": "client", "ph": "X",
        "ts": 0.0, "dur": client_dur, "pid": 1, "tid": 1, "args": dict(tag),
    }]
    if timing:
        events.append({
            "name": "queue-wait", "cat": "server", "ph": "X",
            "ts": offset, "dur": queue_wait, "pid": 1, "tid": 2,
            "args": dict(tag),
        })
        events.append({
            "name": "execute", "cat": "server", "ph": "X",
            "ts": offset + queue_wait, "dur": execute, "pid": 1, "tid": 2,
            "args": dict(tag),
        })
    server_start = offset + queue_wait
    if diagnostics is not None:
        data = _as_json(diagnostics)
        phases = [p for p in data.get("phases", ())
                  if p.get("started_s") is not None]
        if phases:
            base = min(p["started_s"] for p in phases)
            for phase in phases:
                events.append({
                    "name": phase["phase"], "cat": "phase", "ph": "X",
                    "ts": server_start + (phase["started_s"] - base),
                    "dur": max(phase.get("duration_s", 0.0), 0.0),
                    "pid": 1, "tid": 2,
                    "args": {**tag,
                             "function": phase.get("function", "")},
                })
    if telemetry is not None:
        raw = machine_trace_events(telemetry, pid=1, tid=3,
                                   trace_id=trace_id)
        if raw:
            base = min(event["ts"] for event in raw)
            for event in raw:
                event["ts"] = server_start + (event["ts"] - base)
            events.extend(raw)
    for event in events:
        event["ts"] = round(event["ts"] * 1e6, 3)
        if "dur" in event:
            event["dur"] = round(event["dur"] * 1e6, 3)
    events.sort(key=lambda e: (e["pid"], e["tid"], e["ts"]))
    metadata = [{"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                 "ts": 0, "args": {"name": name}}
                for tid, name in ((1, "client"), (2, "server"),
                                  (3, "execution"))]
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def write_request_trace(path: str, record: Mapping[str, Any],
                        diagnostics: Any = None,
                        telemetry: Any = None) -> int:
    trace = build_request_trace(record, diagnostics, telemetry)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, indent=1, default=str)
        handle.write("\n")
    return len(trace["traceEvents"])


def collapsed_stacks(telemetry: Any) -> List[str]:
    """The telemetry stack profile in collapsed-stack format: one
    ``outer;inner;leaf cycles`` line per distinct call stack, weights in
    simulated cycles (deterministic, unlike wall-clock samples)."""
    data = _telemetry_json(telemetry)
    lines = []
    for entry in data.get("stacks", ()):
        stack = entry.get("stack") or ()
        cycles = entry.get("cycles", 0)
        if not stack or not cycles:
            continue
        lines.append(";".join(str(frame) for frame in stack)
                     + f" {cycles}")
    return lines


def write_flamegraph(path: str, telemetry: Any) -> int:
    """Write the collapsed-stack file; returns the number of stacks."""
    lines = collapsed_stacks(telemetry)
    with open(path, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")
    return len(lines)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def new_metric_totals() -> Dict[str, Any]:
    """An empty running-totals accumulator for
    :func:`merge_diagnostics_totals` / :func:`prometheus_from_totals`.
    The compile daemon keeps one of these alive for its whole run instead
    of retaining every compilation's diagnostics."""
    return {"compilations": 0, "phase_seconds": {}, "rule_fires": {},
            "counters": {}}


def merge_diagnostics_totals(totals: Dict[str, Any],
                             diagnostics: Any) -> Dict[str, Any]:
    """Fold one compilation's diagnostics (object or ``to_json()`` dict)
    into a running *totals* accumulator; returns *totals*."""
    data = _as_json(diagnostics)
    totals["compilations"] += 1
    phase_seconds = totals["phase_seconds"]
    for record in data.get("phases", ()):
        phase = record["phase"]
        phase_seconds[phase] = phase_seconds.get(phase, 0.0) \
            + record.get("duration_s", 0.0)
    rule_fires = totals["rule_fires"]
    for rule, count in data.get("rule_fires", {}).items():
        rule_fires[rule] = rule_fires.get(rule, 0) + count
    counters = totals["counters"]
    for counter, value in data.get("counters", {}).items():
        counters[counter] = counters.get(counter, 0) + value
    return totals


def prometheus_metrics(diagnostics_list: Sequence[Any],
                       telemetry: Any = None) -> str:
    """Render phase seconds, rule firings, counters (summed over the given
    compilations), plus the optional ``repro_machine_*`` telemetry
    families, in the Prometheus text exposition format."""
    totals = new_metric_totals()
    for diagnostics in diagnostics_list:
        merge_diagnostics_totals(totals, diagnostics)
    return prometheus_from_totals(totals, telemetry)


def machine_metric_lines(telemetry: Any) -> List[str]:
    """The ``repro_machine_*`` families for one telemetry dump: cycles by
    opcode and by execution path, inline-cache events by call site, GC
    totals, heap occupancy, and per-block execution counts."""
    data = _telemetry_json(telemetry)
    lines = []
    opcodes = data.get("profile", {}).get("opcodes")
    if opcodes is not None:
        lines.append("# HELP repro_machine_cycles_total Simulated cycles "
                     "by opcode (exact profile).")
        lines.append("# TYPE repro_machine_cycles_total counter")
        for opcode in sorted(opcodes):
            lines.append(f'repro_machine_cycles_total{{opcode="'
                         f'{_escape_label(opcode)}"}} '
                         f'{opcodes[opcode]["cycles"]}')
    lines += [
        "# HELP repro_machine_path_cycles_total Simulated cycles by "
        "execution path (fast_path = inline generated code, fallback = "
        "simulator handlers) and opcode.",
        "# TYPE repro_machine_path_cycles_total counter",
    ]
    for path in ("fast_path", "fallback"):
        section = data.get(path, {})
        for opcode in sorted(section):
            lines.append(
                f'repro_machine_path_cycles_total{{path="{path}",opcode="'
                f'{_escape_label(opcode)}"}} {section[opcode]["cycles"]}')
    lines.append("# HELP repro_machine_stall_cycles_total Pipeline stall "
                 "cycles charged by the pipelined timing model, by hazard "
                 "category (all zero under single-cycle timing).")
    lines.append("# TYPE repro_machine_stall_cycles_total counter")
    stalls = data.get("stall_cycles", {})
    for category in ("data", "control", "structural"):
        lines.append(f'repro_machine_stall_cycles_total{{category="'
                     f'{category}"}} {stalls.get(category, 0)}')
    lines.append("# HELP repro_machine_ic_events_total Inline-cache "
                 "events by call site.")
    lines.append("# TYPE repro_machine_ic_events_total counter")
    ic_sites = data.get("ic_sites", {})
    for site in sorted(ic_sites):
        cell = ic_sites[site]
        for event in ("hits", "misses", "invalidations"):
            lines.append(
                f'repro_machine_ic_events_total{{site="'
                f'{_escape_label(site)}",event="{event}"}} {cell[event]}')
    gc_events = data.get("gc_events", ())
    lines.append("# HELP repro_machine_gc_collections_total Garbage "
                 "collections observed, by trigger reason.")
    lines.append("# TYPE repro_machine_gc_collections_total counter")
    reasons: Dict[str, int] = {}
    for event in gc_events:
        reason = str(event.get("reason", "?"))
        reasons[reason] = reasons.get(reason, 0) + 1
    for reason in sorted(reasons):
        lines.append(f'repro_machine_gc_collections_total{{reason="'
                     f'{_escape_label(reason)}"}} {reasons[reason]}')
    pause = sum(event.get("pause_s", 0.0) for event in gc_events)
    reclaimed = sum(event.get("collected", 0) for event in gc_events)
    lines.append("# HELP repro_machine_gc_pause_seconds_total Wall-clock "
                 "seconds spent inside the collector.")
    lines.append("# TYPE repro_machine_gc_pause_seconds_total counter")
    lines.append(f"repro_machine_gc_pause_seconds_total {pause:.9f}")
    lines.append("# HELP repro_machine_gc_reclaimed_total Objects "
                 "reclaimed by the collector.")
    lines.append("# TYPE repro_machine_gc_reclaimed_total counter")
    lines.append(f"repro_machine_gc_reclaimed_total {reclaimed}")
    samples = data.get("heap_samples", ())
    if samples:
        lines.append("# HELP repro_machine_heap_live_objects Live heap "
                     "objects at the last occupancy sample.")
        lines.append("# TYPE repro_machine_heap_live_objects gauge")
        lines.append(f"repro_machine_heap_live_objects "
                     f"{samples[-1].get('live', 0)}")
    lines.append("# HELP repro_machine_block_executions_total Native-tier "
                 "basic-block executions (hotness).")
    lines.append("# TYPE repro_machine_block_executions_total counter")
    blocks = data.get("blocks", {})
    for label in sorted(blocks):
        lines.append(f'repro_machine_block_executions_total{{block="'
                     f'{_escape_label(label)}"}} {blocks[label]["runs"]}')
    return lines


def prometheus_from_totals(totals: Mapping[str, Any],
                           telemetry: Any = None) -> str:
    """Render an already-aggregated totals accumulator (see
    :func:`new_metric_totals`) in the Prometheus text format."""
    phase_seconds = totals["phase_seconds"]
    rule_fires = totals["rule_fires"]
    counters = totals["counters"]
    compilations = totals["compilations"]
    lines = [
        "# HELP repro_compilations_total Compilations measured in this dump.",
        "# TYPE repro_compilations_total counter",
        f"repro_compilations_total {compilations}",
        "# HELP repro_phase_seconds_total Wall-clock seconds per "
        "Table 1 phase.",
        "# TYPE repro_phase_seconds_total counter",
    ]
    for phase in sorted(phase_seconds):
        lines.append(f'repro_phase_seconds_total{{phase="'
                     f'{_escape_label(phase)}"}} {phase_seconds[phase]:.9f}')
    lines.append("# HELP repro_rule_fires_total Optimizer/peephole rule "
                 "firings.")
    lines.append("# TYPE repro_rule_fires_total counter")
    for rule in sorted(rule_fires):
        lines.append(f'repro_rule_fires_total{{rule="'
                     f'{_escape_label(rule)}"}} {rule_fires[rule]}')
    lines.append("# HELP repro_events_total Event counters (cache, batch).")
    lines.append("# TYPE repro_events_total counter")
    for counter in sorted(counters):
        lines.append(f'repro_events_total{{counter="'
                     f'{_escape_label(counter)}"}} {counters[counter]}')
    if telemetry is not None:
        lines.extend(machine_metric_lines(telemetry))
    return "\n".join(lines) + "\n"


def write_metrics(path: str, diagnostics_list: Sequence[Any],
                  telemetry: Any = None) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(prometheus_metrics(diagnostics_list, telemetry))


# ---------------------------------------------------------------------------
# strict Prometheus text parsing (tests / CI validation)

_METRIC_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_SAMPLE_RE = re.compile(
    rf"^(?P<name>{_METRIC_NAME})"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>\S+)$")
_LABEL_RE = re.compile(
    r'^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
    r"(?:,(?P<rest>.+))?$")
#: Sample-name suffixes a histogram family implicitly declares.
_HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")


def _unescape_label(value: str) -> str:
    return value.replace("\\n", "\n").replace('\\"', '"') \
        .replace("\\\\", "\\")


def _parse_labels(blob: str, line_number: int) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    rest: Optional[str] = blob
    while rest:
        match = _LABEL_RE.match(rest)
        if match is None:
            raise ValueError(f"line {line_number}: malformed label set "
                             f"{blob!r}")
        labels[match.group("name")] = _unescape_label(match.group("value"))
        rest = match.group("rest")
    return labels


def _family_of(name: str, families: Mapping[str, Dict[str, Any]]
               ) -> Optional[str]:
    if name in families:
        return name
    for suffix in _HISTOGRAM_SUFFIXES:
        if name.endswith(suffix):
            family = name[:-len(suffix)]
            if families.get(family, {}).get("type") == "histogram":
                return family
    return None


def parse_prometheus_text(text: str) -> Dict[str, Any]:
    """Strictly parse a Prometheus text exposition document.

    Every non-comment line must be a well-formed sample whose name belongs
    to a family already declared by a ``# TYPE`` line (histogram families
    implicitly declare their ``_bucket``/``_sum``/``_count`` samples);
    values must parse as floats.  Raises :class:`ValueError` naming the
    offending line otherwise -- the point is that tests and CI validate
    the whole document structurally instead of grepping for substrings.

    Returns ``{"families": {name: {"help", "type"}}, "samples": [{"name",
    "family", "labels", "value"}]}`` in document order.
    """
    families: Dict[str, Dict[str, Any]] = {}
    samples: List[Dict[str, Any]] = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] in ("HELP", "TYPE"):
                name = parts[2]
                if not re.fullmatch(_METRIC_NAME, name):
                    raise ValueError(f"line {line_number}: bad metric name "
                                     f"{name!r} in {parts[1]} line")
                entry = families.setdefault(name,
                                            {"help": None, "type": None})
                if parts[1] == "HELP":
                    entry["help"] = parts[3] if len(parts) > 3 else ""
                else:
                    kind = parts[3].strip() if len(parts) > 3 else ""
                    if kind not in ("counter", "gauge", "histogram",
                                    "summary", "untyped"):
                        raise ValueError(f"line {line_number}: unknown "
                                         f"metric type {kind!r}")
                    entry["type"] = kind
            continue  # other comments are legal and ignored
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {line_number}: malformed sample "
                             f"{line!r}")
        name = match.group("name")
        family = _family_of(name, families)
        if family is None or families[family]["type"] is None:
            raise ValueError(f"line {line_number}: sample {name!r} has no "
                             f"preceding # TYPE declaration")
        raw_value = match.group("value")
        try:
            value = float(raw_value)
        except ValueError:
            if raw_value == "+Inf":
                value = float("inf")
            elif raw_value == "-Inf":
                value = float("-inf")
            else:
                raise ValueError(f"line {line_number}: bad sample value "
                                 f"{raw_value!r}")
        labels = _parse_labels(match.group("labels") or "", line_number)
        samples.append({"name": name, "family": family, "labels": labels,
                        "value": value})
    return {"families": families, "samples": samples}


def metric_value(parsed: Mapping[str, Any], name: str,
                 labels: Optional[Mapping[str, str]] = None
                 ) -> Optional[float]:
    """The value of the (first) sample matching *name* and exactly
    *labels* (``None`` matches only a label-free sample); ``None`` when
    absent."""
    want = dict(labels or {})
    for sample in parsed["samples"]:
        if sample["name"] == name and sample["labels"] == want:
            return sample["value"]
    return None
