"""Phase-level observability for the compiler pipeline.

Table 1 of the paper presents the compiler as a sequence of named phases,
and the Section 7 listings narrate what each phase did to the example
function.  This module is the measurement substrate for that story:

* :class:`Diagnostics` -- one per :meth:`repro.Compiler.compile` call --
  records wall-clock duration and IR node counts around every executed
  phase, per-rule fire counters (optimizer transcript + peephole stats),
  and structured warnings/errors carrying source locations,
* :class:`SourceLocation` -- the ``file:line:column`` triple the reader's
  tokens already track, now carried by :class:`repro.errors.ReproError`,
* :meth:`Diagnostics.report` renders a human-readable summary and
  :meth:`Diagnostics.to_json` a machine-readable dict (JSON-serializable,
  round-trippable via :meth:`Diagnostics.from_json`) so benchmark runs can
  emit ``BENCH_*.json`` phase-timing trajectories.

Phase records carry the driver's short keys (``ir conversion``,
``annotate``, ...); :func:`repro.compiler.table1_phases` maps the last
function's records to the paper's Table 1 names.

The module is deliberately dependency-free (stdlib only) so every other
package -- including :mod:`repro.errors` -- may import it without cycles.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional

@dataclass(frozen=True)
class SourceLocation:
    """A position in program text: ``file:line:column`` (1-based)."""

    line: int
    column: int
    file: str = "<input>"

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"

    def to_json(self) -> Dict[str, Any]:
        return {"file": self.file, "line": self.line, "column": self.column}

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "SourceLocation":
        return cls(line=data["line"], column=data["column"],
                   file=data.get("file", "<input>"))


@dataclass
class PhaseRecord:
    """One executed phase: what it ran on, how long, and how the tree grew."""

    phase: str
    function: str = ""
    duration_s: float = 0.0
    nodes_before: Optional[int] = None
    nodes_after: Optional[int] = None
    #: ``time.perf_counter()`` when the phase began.  Lets the trace
    #: exporter place the phase as a span on a shared timeline (the same
    #: clock stamps transcript entries and cache events).
    started_s: Optional[float] = None

    def to_json(self) -> Dict[str, Any]:
        return {
            "phase": self.phase,
            "function": self.function,
            "duration_s": self.duration_s,
            "nodes_before": self.nodes_before,
            "nodes_after": self.nodes_after,
            "started_s": self.started_s,
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "PhaseRecord":
        return cls(phase=data["phase"], function=data.get("function", ""),
                   duration_s=data.get("duration_s", 0.0),
                   nodes_before=data.get("nodes_before"),
                   nodes_after=data.get("nodes_after"),
                   started_s=data.get("started_s"))


@dataclass
class DiagnosticMessage:
    """A structured warning or error, optionally source-located."""

    severity: str  # "warning" | "error"
    message: str
    phase: Optional[str] = None
    location: Optional[SourceLocation] = None

    def render(self) -> str:
        where = f"{self.location}: " if self.location is not None else ""
        tag = f" [{self.phase}]" if self.phase else ""
        return f"{self.severity}: {where}{self.message}{tag}"

    def to_json(self) -> Dict[str, Any]:
        return {
            "severity": self.severity,
            "message": self.message,
            "phase": self.phase,
            "location": (self.location.to_json()
                         if self.location is not None else None),
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "DiagnosticMessage":
        location = data.get("location")
        return cls(severity=data["severity"], message=data["message"],
                   phase=data.get("phase"),
                   location=(SourceLocation.from_json(location)
                             if location is not None else None))


class _PhaseTimer:
    """Handle returned by :meth:`Diagnostics.start_phase`; call
    :meth:`finish` when the phase completes to stamp the duration."""

    def __init__(self, diagnostics: "Diagnostics", record: PhaseRecord):
        self.record = record
        self._start = time.perf_counter()
        record.started_s = self._start
        self._done = False

    def finish(self, nodes_after: Optional[int] = None) -> PhaseRecord:
        if not self._done:
            self._done = True
            self.record.duration_s = time.perf_counter() - self._start
            if nodes_after is not None:
                self.record.nodes_after = nodes_after
        return self.record


class Diagnostics:
    """Everything one compilation reported about itself: the one record of
    a compile, read as an object everywhere in the process.  It pickles
    whole with its transcript entries unprinted (a pool worker returns it
    that way); :meth:`to_json` runs only where text leaves the process."""

    def __init__(self) -> None:
        self.phases: List[PhaseRecord] = []
        self.rule_fires: Dict[str, int] = {}
        self.messages: List[DiagnosticMessage] = []
        #: Free-form event counters (cache hits/misses/stores, batch worker
        #: tallies, ...) -- anything that is a count but not a rule firing.
        self.counters: Dict[str, int] = {}
        #: The rewrite trace: transcript entries as recorded, or their
        #: JSON dicts once read back (see :attr:`rewrites`).
        self._rewrites: List[Any] = []

    # -- recording -----------------------------------------------------------

    def start_phase(self, phase: str, function: str = "",
                    nodes_before: Optional[int] = None) -> _PhaseTimer:
        """Begin timing *phase*; the record is appended immediately and
        completed by the returned timer's ``finish``."""
        record = PhaseRecord(phase=phase, function=function,
                             nodes_before=nodes_before)
        self.phases.append(record)
        return _PhaseTimer(self, record)

    def record_phase(self, phase: str, duration_s: float, function: str = "",
                     nodes_before: Optional[int] = None,
                     nodes_after: Optional[int] = None,
                     started_s: Optional[float] = None) -> PhaseRecord:
        """Append an externally measured phase (e.g. TNBIND, which runs
        inside the code generator)."""
        record = PhaseRecord(phase=phase, function=function,
                             duration_s=max(0.0, duration_s),
                             nodes_before=nodes_before,
                             nodes_after=nodes_after,
                             started_s=started_s)
        self.phases.append(record)
        return record

    def record_rules(self, counts: Mapping[str, int]) -> None:
        """Merge per-rule fire counters (optimizer transcript, peephole)."""
        for rule, count in counts.items():
            if count:
                self.rule_fires[rule] = self.rule_fires.get(rule, 0) + count

    def record_rewrites(self, entries: Iterable[Any]) -> None:
        """Append transcript entries (anything with ``to_json()``, or its
        JSON dict) to the rewrite trace.  They are stored, not printed:
        an entry prints its forms when :attr:`rewrites` is first read."""
        self._rewrites.extend(entries)

    def bump(self, counter: str, amount: int = 1) -> int:
        """Increment a named event counter; returns the new value."""
        value = self.counters.get(counter, 0) + amount
        self.counters[counter] = value
        return value

    def warn(self, message: str, phase: Optional[str] = None,
             location: Optional[SourceLocation] = None) -> DiagnosticMessage:
        entry = DiagnosticMessage("warning", message, phase, location)
        self.messages.append(entry)
        return entry

    def error(self, message: str, phase: Optional[str] = None,
              location: Optional[SourceLocation] = None) -> DiagnosticMessage:
        entry = DiagnosticMessage("error", message, phase, location)
        self.messages.append(entry)
        return entry

    # -- queries -------------------------------------------------------------

    @property
    def rewrites(self) -> List[Dict[str, Any]]:
        """The rewrite trace as JSON dicts (``TranscriptEntry.to_json``),
        in firing order; the trace exporter turns them into instant events
        on the compilation timeline."""
        return [dict(entry) if isinstance(entry, Mapping)
                else entry.to_json() for entry in self._rewrites]

    @property
    def warnings(self) -> List[DiagnosticMessage]:
        return [m for m in self.messages if m.severity == "warning"]

    @property
    def errors(self) -> List[DiagnosticMessage]:
        return [m for m in self.messages if m.severity == "error"]

    def phase_names(self) -> List[str]:
        """Executed phase keys, de-duplicated, in first-execution order."""
        seen: List[str] = []
        for record in self.phases:
            if record.phase not in seen:
                seen.append(record.phase)
        return seen

    def total_seconds(self) -> float:
        return sum(record.duration_s for record in self.phases)

    # -- rendering -----------------------------------------------------------

    def timing_lines(self) -> List[str]:
        lines = ["Phase timings:"]
        for record in self.phases:
            counts = ""
            if record.nodes_before is not None or record.nodes_after is not None:
                before = "?" if record.nodes_before is None else record.nodes_before
                after = "?" if record.nodes_after is None else record.nodes_after
                counts = f"  nodes {before} -> {after}"
            function = f" [{record.function}]" if record.function else ""
            lines.append(f"  {record.phase:<16} {record.duration_s * 1e3:9.3f} ms"
                         f"{counts}{function}")
        lines.append(f"  {'total':<16} {self.total_seconds() * 1e3:9.3f} ms")
        return lines

    def report(self) -> str:
        """Human-readable summary: timings, rule fires, messages."""
        if not self.phases and not self.rule_fires and not self.messages \
                and not self.counters:
            return "(no diagnostics recorded)"
        lines: List[str] = []
        if self.phases:
            lines.extend(self.timing_lines())
        if self.counters:
            lines.append("Counters:")
            for counter in sorted(self.counters):
                lines.append(f"  {self.counters[counter]:5d}  {counter}")
        if self.rule_fires:
            lines.append("Rule firings:")
            for rule, count in sorted(self.rule_fires.items(),
                                      key=lambda item: (-item[1], item[0])):
                lines.append(f"  {count:5d}  {rule}")
        if self.messages:
            lines.append("Messages:")
            for message in self.messages:
                lines.append(f"  {message.render()}")
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        """A JSON-serializable dict of everything recorded."""
        return {
            "phases": [record.to_json() for record in self.phases],
            "rule_fires": dict(self.rule_fires),
            "counters": dict(self.counters),
            "messages": [message.to_json() for message in self.messages],
            "rewrites": self.rewrites,
            "total_seconds": self.total_seconds(),
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "Diagnostics":
        diagnostics = cls()
        diagnostics.phases = [PhaseRecord.from_json(p)
                              for p in data.get("phases", ())]
        diagnostics.rule_fires = dict(data.get("rule_fires", {}))
        diagnostics.counters = dict(data.get("counters", {}))
        diagnostics.messages = [DiagnosticMessage.from_json(m)
                                for m in data.get("messages", ())]
        diagnostics._rewrites = [dict(entry)
                                 for entry in data.get("rewrites", ())]
        return diagnostics


def count_nodes(root: Any) -> Optional[int]:
    """Size of an IR subtree (or anything exposing ``walk()``)."""
    walk = getattr(root, "walk", None)
    if walk is None:
        return None
    return sum(1 for _ in walk())
