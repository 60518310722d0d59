"""The machine's one observer: an exact per-instruction cycle ledger.

The paper argues in machine cycles charged instruction by instruction
(Table 4, the Section 7 worked examples).  :class:`MachineTelemetry`
(``Machine.enable_telemetry()``) records where every simulated cycle
went, on both tiers, in one ledger: executions and base cycles per
instruction and per (call stack, CodeObject) context.  The simulate tier
books each instruction as it retires; the native tier counts block runs,
and instrumented translations book each dynamic extra on the instruction
that spent it, so the ledger is the same on both tiers and under both
timing models.  Every table is a view computed when read: the profile
(per opcode, function and source line), the fast-path/fallback split (a
native instruction whose main emission calls its simulator handler is
fallback; the simulate tier is all fallback), block hotness and stack
cycles.  Hazard stalls have their own buckets, so ``fast + fallback +
stalls == Machine.cycles`` holds exactly, after traps too, from every
``Machine.start()``.  Off, it costs each hot loop one load and one
``None`` test.  Keys are opcodes, function names, ``function:leader``
blocks and ``function:index->callee`` inline-cache sites, never target
registers.  Inline-cache, GC, heap-occupancy and run-span events sit
beside the ledger.  The exporters live in :mod:`repro.trace`; this module
needs only the standard library, so the machine layer can import it.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["MachineTelemetry"]

#: Allocation stride between heap-occupancy samples: fine enough to see
#: sawtooth between collections, coarse enough to stay cheap.
HEAP_SAMPLE_STRIDE = 256

_NO_EXTRAS = (0, 0, 0)


class _Context:
    """The ledger rows of one (call stack, CodeObject) context."""

    __slots__ = ("stack", "code", "steps", "runs", "extras")

    def __init__(self, stack: Tuple[str, ...], code: Any):
        self.stack = stack
        self.code = code
        #: Simulate tier: index -> [executions, base cycles].
        self.steps: Dict[int, List[int]] = {}
        #: Native tier: block leader -> [executions]; a block that
        #: trapped is a run of its executed prefix, keyed (leader,
        #: instructions executed).
        self.runs: Dict[Any, List[int]] = {}
        #: Native tier: index -> [handler entries, handler cycles, inline
        #: cycles], the dynamic extras instrumented sites booked.
        self.extras: Dict[int, List[int]] = {}


#: The ledger's views.  fallback_entries counts handler entries, the
#: conditional slow paths of fast-path instructions included, so it can
#: exceed fallback_counts.  Stacks reflect live frames (tail calls replace
#: their frame).  Lines are keyed (file, line).
_TABLES = ("fast_cycles", "fast_counts", "fallback_cycles",
           "fallback_counts", "fallback_entries", "block_runs",
           "block_cycles", "block_fallback_cycles", "stack_cycles",
           "opcode_cycles", "opcode_counts", "function_cycles",
           "function_instructions", "line_cycles", "line_instructions")


class _Views:
    """Every table the ledger reports, built in one pass over it."""

    def __init__(self) -> None:
        for name in _TABLES:
            setattr(self, name, Counter())
        #: (function, index) -> [executions, base cycles].
        self.instructions: Dict[Tuple[str, int], List[int]] = {}


def _add(table: Dict[Any, List[int]], key: Any, cell: List[int]) -> bool:
    """Add *cell* into ``table[key]``; True when the key is new."""
    mine = table.get(key)
    if mine is None:
        table[key] = list(cell)
        return True
    for slot, value in enumerate(cell):
        mine[slot] += value
    return False


def _view(name: str) -> property:
    return property(lambda self: getattr(self._views(), name),
                    doc=f"View over the ledger: ``{name}``.")


class MachineTelemetry:
    """The execution ledger of one machine (or merged across machines)."""

    def __init__(self, processor_id: int = 0):
        self.processor_id = processor_id
        #: hazard category ("data"/"control"/"structural") -> stall cycles
        #: charged by the pipelined timing model (zero under "single").
        self.stall_cycles: Counter = Counter()
        #: "function:index->callee" -> [hits, misses, invalidations].
        self.ic_sites: Dict[str, List[int]] = {}
        #: GC events (reason, pause_s, collected, live before/after,
        #: watermark) and the heap-occupancy timeline, perf_counter clock.
        self.gc_events: List[Dict[str, Any]] = []
        self.heap_samples: List[Dict[str, Any]] = []
        #: One span per run (name, tier, wall-clock, cycles).
        self.run_spans: List[Dict[str, Any]] = []
        self._span: Optional[Dict[str, Any]] = None
        self._contexts: Dict[Tuple[Tuple[str, ...], int], _Context] = {}
        #: (context, index or leader, block record or None for a
        #: simulate step), in first-executed order: the views iterate
        #: this, so ties rank in the order they first ran.
        self._units: List[Tuple[_Context, int, Any]] = []
        self._last_heap_mark = -(10 ** 9)
        self._context: Optional[_Context] = None
        self._context_code: Any = None
        self._context_fp = 0

    def restart(self) -> None:
        """Zero the ledger, stall and inline-cache counters, keeping the
        event lists (``Machine.start()`` zeroes the machine's counters)."""
        self.stall_cycles.clear()
        self.ic_sites.clear()
        self._contexts.clear()
        del self._units[:]
        self._context = self._context_code = None

    # -- the ledger (called by cpu.py / generated code) ---------------------

    def _here(self, machine: Any) -> _Context:
        """The context the machine is executing in.  The call stack is
        walked only when a call or return changed (code, fp)."""
        code = machine.code
        if code is self._context_code and machine.fp == self._context_fp:
            return self._context
        names = [code.name]
        stack = machine.stack
        fp = machine.fp
        while fp >= 0:
            record = stack[fp]
            caller = record.ret_code
            if caller is None:
                break
            names.append(caller.name)
            fp = record.old_fp
        names.reverse()
        context = self._context_of(tuple(names), code)
        self._context = context
        self._context_code = code
        self._context_fp = machine.fp
        return context

    def _context_of(self, stack: Tuple[str, ...], code: Any) -> _Context:
        # The context pins its CodeObject, so the id cannot be recycled.
        key = (stack, id(code))
        context = self._contexts.get(key)
        if context is None:
            context = self._contexts[key] = _Context(stack, code)
        return context

    def _book_stalls(self, machine: Any, before: Dict[str, int]) -> int:
        """Book the stalls charged since *before*; returns their sum."""
        booked = 0
        for category, now in machine.stall_cycles().items():
            if now != before[category]:
                self.stall_cycles[category] += now - before[category]
                booked += now - before[category]
        return booked

    def observe_instruction(self, machine: Any, index: int,
                            instruction: Any) -> None:
        """Simulate tier: issue the fetched instruction at *index* and
        book its base cycles, also when it traps."""
        # Before the handler runs: a RET pops the frames this reads.
        context = self._here(machine)
        # The delta across _issue() includes the table cost and whatever
        # the handler adds (GENERIC primitive costs, vector length costs).
        before = machine.cycles
        stalls = None if machine._pipeline is None \
            else machine.stall_cycles()
        try:
            machine._issue(instruction)
        finally:
            cycles = machine.cycles - before
            if stalls is not None:
                cycles -= self._book_stalls(machine, stalls)
            cell = context.steps.get(index)
            if cell is None:
                cell = context.steps[index] = [0, 0]
                self._units.append((context, index, None))
            cell[0] += 1
            cell[1] += cycles
        heap = machine.heap
        if heap.alloc_counter - self._last_heap_mark >= HEAP_SAMPLE_STRIDE:
            self.sample_heap(heap)

    def observe_block(self, machine: Any, block: Any) -> None:
        """Native tier: run one instrumented block and count its run.  Its
        instrumented sites book their dynamic extras on this context as
        they run.  A block that raises is booked by note_trap once the
        machine has taken back its unexecuted suffix, or, out of fuel,
        not at all: the machine steps it on the simulate tier's path."""
        context = self._here(machine)
        stalls = None if machine._pipeline is None \
            else machine.stall_cycles()
        try:
            block.run(machine)
        finally:
            if stalls is not None:
                self._book_stalls(machine, stalls)
        self._book_run(context, block.start, block.observed)
        heap = machine.heap
        if heap.alloc_counter - self._last_heap_mark >= HEAP_SAMPLE_STRIDE:
            self.sample_heap(heap)

    def note_trap(self, block: Any, executed: int, data: int,
                  structural: int) -> None:
        """The block observe_block last ran raised after *executed*
        instructions, the raising one included: book a run of that
        prefix, each instruction keeping its fast/fallback record, and
        take back the *data* and *structural* stall cycles the machine
        took back for the rest."""
        self._book_run(self._context, (block.start, executed),
                       block.observed[:executed])
        if data:
            self.stall_cycles["data"] -= data
        if structural:
            self.stall_cycles["structural"] -= structural

    def _book_run(self, context: _Context, key: Any, record: Any) -> None:
        cell = context.runs.get(key)
        if cell is None:
            cell = context.runs[key] = [0]
            self._units.append((context, key, record))
        cell[0] += 1

    def note_extra(self, index: int, cycles: int,
                   handler: bool = True) -> None:
        """Instrumented native code charged *cycles* beyond instruction
        *index*'s table cost: in a simulator handler it entered
        (fallback), or as a resolved GENERIC's inline primitive cycles
        (fast path)."""
        extras = self._context.extras
        cell = extras.get(index)
        if cell is None:
            cell = extras[index] = [0, 0, 0]
        if handler:
            cell[0] += 1
            cell[1] += cycles
        else:
            cell[2] += cycles

    def ic_hit(self, site: str) -> None:
        cell = self.ic_sites.get(site)
        if cell is None:
            cell = self.ic_sites[site] = [0, 0, 0]
        cell[0] += 1

    def ic_miss(self, site: str, invalidation: bool) -> None:
        cell = self.ic_sites.get(site)
        if cell is None:
            cell = self.ic_sites[site] = [0, 0, 0]
        cell[1] += 1
        if invalidation:
            cell[2] += 1

    # -- GC / heap ----------------------------------------------------------

    def note_gc(self, heap: Any, processor: Any = None) -> None:
        """Record the collection the heap just finished (heap.last_gc)."""
        event = dict(heap.last_gc)
        event["processor"] = self.processor_id if processor is None \
            else processor
        self.gc_events.append(event)
        self._last_heap_mark = heap.alloc_counter
        self.heap_samples.append({
            "at_s": event["at_s"], "live": event["live_before"],
            "allocated": event["watermark"], "event": "gc-before",
            "processor": event["processor"]})
        self.heap_samples.append({
            "at_s": event["at_s"] + event["pause_s"],
            "live": event["live_after"], "allocated": event["watermark"],
            "event": "gc-after", "processor": event["processor"]})

    def sample_heap(self, heap: Any, event: Optional[str] = None) -> None:
        self._last_heap_mark = heap.alloc_counter
        self.heap_samples.append({
            "at_s": perf_counter(), "live": heap.live_count(),
            "allocated": heap.alloc_counter, "event": event,
            "processor": self.processor_id})

    # -- run spans ----------------------------------------------------------

    def begin_run(self, name: str, machine: Any) -> None:
        """Open a run span; end_run() closes it."""
        span = {"name": name, "tier": machine.tier,
                "timing": getattr(machine, "timing", "single"),
                "processor": self.processor_id,
                "started_s": perf_counter(), "duration_s": None,
                "cycles": None, "instructions": None,
                "stall_cycles": None,
                "_cycles0": machine.cycles,
                "_instructions0": machine.instructions,
                "_stalls0": machine.stall_cycles()}
        self._span = span
        self.run_spans.append(span)

    def end_run(self, machine: Any) -> None:
        span, self._span = self._span, None
        if span is None:
            return
        span["duration_s"] = perf_counter() - span["started_s"]
        span["cycles"] = machine.cycles - span.pop("_cycles0")
        span["instructions"] = machine.instructions \
            - span.pop("_instructions0")
        stalls0 = span.pop("_stalls0")
        span["stall_cycles"] = {category: now - stalls0[category]
                                for category, now in
                                machine.stall_cycles().items()}
        self.sample_heap(machine.heap, event="run-end")

    # -- aggregation --------------------------------------------------------

    def merge(self, other: "MachineTelemetry") -> "MachineTelemetry":
        """Fold *other*'s ledger, counters and events into this one (fuzz
        sweeps and MultiMachine aggregate per-machine telemetry this way)."""
        for context, key, record in other._units:
            mine = self._context_of(context.stack, context.code)
            if record is None:
                new = _add(mine.steps, key, context.steps[key])
            else:
                new = _add(mine.runs, key, context.runs[key])
            if new:
                self._units.append((mine, key, record))
        for context in other._contexts.values():
            mine = self._context_of(context.stack, context.code)
            for index, cell in context.extras.items():
                _add(mine.extras, index, cell)
        for site, cell in other.ic_sites.items():
            _add(self.ic_sites, site, cell)
        self.stall_cycles.update(other.stall_cycles)
        self.gc_events.extend(other.gc_events)
        self.heap_samples.extend(other.heap_samples)
        self.run_spans.extend(
            {k: v for k, v in span.items() if not k.startswith("_")}
            for span in other.run_spans)
        return self

    # -- views --------------------------------------------------------------

    def _rows(self):
        """The ledger, one row per instruction per context, first-executed
        first: (context, block leader or None, index, executions, fast
        cycles, fallback cycles, fallback?, handler entries).  An
        instruction's dynamic extras are booked per (context, index), so
        they go on its first row only (a trapped prefix repeats the
        rows of its block)."""
        attributed = set()
        for context, key, record in self._units:
            if record is None:
                executions, cycles = context.steps[key]
                yield (context, None, key, executions, 0, cycles, True,
                       executions)
                continue
            runs = context.runs[key][0]
            leader = key if type(key) is int else key[0]
            for index, cost, fallback in record:
                entries, handled, inline = _NO_EXTRAS \
                    if (context, index) in attributed \
                    else context.extras.get(index, _NO_EXTRAS)
                attributed.add((context, index))
                if fallback:
                    yield (context, leader, index, runs, 0,
                           runs * cost + handled + inline, True, entries)
                else:
                    yield (context, leader, index, runs,
                           runs * cost + inline, handled, False, entries)

    def _views(self) -> _Views:
        views = _Views()
        for context, leader, index, executions, fast, slow, fallback, \
                entries in self._rows():
            code = context.code
            opcode = code.instructions[index].opcode
            cycles = fast + slow
            if fallback:
                views.fallback_counts[opcode] += executions
            else:
                views.fast_cycles[opcode] += fast
                views.fast_counts[opcode] += executions
            if fallback or slow:
                views.fallback_cycles[opcode] += slow
            if entries:
                views.fallback_entries[opcode] += entries
            if leader is not None:
                label = f"{code.name}:{leader}"
                if index == leader:
                    views.block_runs[label] += executions
                views.block_cycles[label] += cycles
                if slow:
                    views.block_fallback_cycles[label] += slow
            views.stack_cycles[context.stack] += cycles
            views.opcode_cycles[opcode] += cycles
            views.opcode_counts[opcode] += executions
            views.function_cycles[code.name] += cycles
            views.function_instructions[code.name] += executions
            line = code.line_map.get(index)
            if line is not None:
                where = (code.source_file or "<input>", line)
                views.line_cycles[where] += cycles
                views.line_instructions[where] += executions
            cell = views.instructions.setdefault((code.name, index), [0, 0])
            cell[0] += executions
            cell[1] += cycles
        return views

    fast_cycles = _view("fast_cycles")
    fast_counts = _view("fast_counts")
    fallback_cycles = _view("fallback_cycles")
    fallback_counts = _view("fallback_counts")
    fallback_entries = _view("fallback_entries")
    block_runs = _view("block_runs")
    block_cycles = _view("block_cycles")
    block_fallback_cycles = _view("block_fallback_cycles")
    stack_cycles = _view("stack_cycles")

    def instruction_ledger(self) -> Dict[Tuple[str, int], List[int]]:
        """(function, index) -> [executions, base cycles], stalls
        excluded: the same for one program on every tier and timing."""
        return self._views().instructions

    def attributed_cycles(self) -> int:
        """Total cycles attributed, ``fast + fallback + stalls``: equals
        ``Machine.cycles`` exactly for any run with telemetry enabled
        from machine creation or the last ``start()`` (the conservation
        invariant the tests assert)."""
        base = sum(fast + slow for _, _, _, _, fast, slow, _, _
                   in self._rows())
        return base + sum(self.stall_cycles.values())

    def top_fallback_opcodes(self, top: int = 5
                             ) -> List[Tuple[str, int, int]]:
        """(opcode, fallback cycles, handler entries), hottest first --
        the ROADMAP "what to inline next" list."""
        views = self._views()
        return [(opcode, cycles, views.fallback_entries[opcode])
                for opcode, cycles in
                views.fallback_cycles.most_common(top)]

    def coldest_ic_sites(self, top: int = 5
                         ) -> List[Tuple[str, float, List[int]]]:
        """(site, hit ratio, [hits, misses, invalidations]) sorted by hit
        ratio ascending then miss count descending: the call sites where
        the per-call-site inline cache earns the least."""
        scored = []
        for site, cell in self.ic_sites.items():
            total = cell[0] + cell[1]
            if not total:
                continue
            scored.append((site, cell[0] / total, list(cell)))
        scored.sort(key=lambda item: (item[1], -item[2][1]))
        return scored[:top]

    # -- reports ------------------------------------------------------------

    def _stall_line(self) -> str:
        stalls = self.stall_cycles
        return (f"Pipeline stalls: {sum(stalls.values())} cycles "
                f"(data {stalls['data']}, control {stalls['control']}, "
                f"structural {stalls['structural']})")

    def profile_report(self, top: int = 20) -> str:
        """The REPL's ``:profile``: per-opcode, per-function and
        per-source-line base cycles; stalls get their own line."""
        views = self._views()
        total = sum(views.opcode_counts.values())
        if not total:
            return "(no instructions profiled)"
        cycles = sum(views.opcode_cycles.values())
        stalls = sum(self.stall_cycles.values())
        lines = [f"Profile: {total} instructions, {cycles + stalls} cycles"]
        if stalls:
            lines.append(self._stall_line() + ", not in the rows below")
        lines.append("Per-opcode cycles:")
        lines.append("   cycles    count  opcode")
        for opcode, spent in views.opcode_cycles.most_common(top):
            lines.append(f"  {spent:7d}  {views.opcode_counts[opcode]:7d}"
                         f"  {opcode}")
        lines.append("Per-function cycles:")
        lines.append("   cycles   instrs  function")
        for name, spent in views.function_cycles.most_common(top):
            lines.append(f"  {spent:7d}"
                         f"  {views.function_instructions[name]:7d}"
                         f"  {name}")
        if views.line_cycles:
            lines.append("Per-source-line cycles:")
            lines.append("   cycles   instrs  location")
            for key, spent in views.line_cycles.most_common(top):
                file, line = key
                lines.append(f"  {spent:7d}"
                             f"  {views.line_instructions[key]:7d}"
                             f"  {file}:{line}")
        return "\n".join(lines)

    def hot_report(self, top: int = 10,
                   views: Optional[_Views] = None) -> str:
        """Top blocks and opcodes by fallback cycles (the REPL ``:hot``)."""
        views = views or self._views()
        lines = ["Hot fallback opcodes (cycles spent in simulator "
                 "handlers):"]
        ranked = views.fallback_cycles.most_common(top)
        if not ranked:
            lines.append("  (none -- every executed instruction ran "
                         "inline)")
        lines.append("   cycles  entries  opcode")
        for opcode, cycles in ranked:
            lines.append(f"  {cycles:7d}  {views.fallback_entries[opcode]:7d}"
                         f"  {opcode}")
        lines.append("Hot blocks by fallback cycles:")
        lines.append("   cycles     runs  block")
        for label, cycles in views.block_fallback_cycles.most_common(top):
            lines.append(f"  {cycles:7d}  {views.block_runs[label]:7d}"
                         f"  {label}")
        cold = self.coldest_ic_sites(top)
        if cold:
            lines.append("Coldest inline-cache sites:")
            lines.append("  hit-rate     miss  site")
            for site, ratio, (hits, misses, invalidations) in cold:
                lines.append(f"  {ratio:8.1%}  {misses:7d}  {site}")
        return "\n".join(lines)

    def report(self, top: int = 20) -> str:
        views = self._views()
        fast = sum(views.fast_cycles.values())
        fallback = sum(views.fallback_cycles.values())
        stalls = sum(self.stall_cycles.values())
        total = fast + fallback + stalls
        lines = [f"Telemetry: {total} cycles attributed "
                 f"({fast} fast-path, {fallback} fallback)"]
        if total:
            lines[0] += f", fast-path share {fast / total:.1%}"
        if stalls:
            lines.append(self._stall_line())
        lines.append(self.hot_report(top, views))
        if self.gc_events:
            pause = sum(e["pause_s"] for e in self.gc_events)
            collected = sum(e["collected"] for e in self.gc_events)
            lines.append(f"GC: {len(self.gc_events)} collections, "
                         f"{pause * 1e3:.3f} ms total pause, "
                         f"{collected} objects reclaimed")
            for event in self.gc_events[-top:]:
                lines.append(
                    f"  [{event['reason']}] pause {event['pause_s'] * 1e3:.3f}"
                    f" ms  reclaimed {event['collected']}  live "
                    f"{event['live_before']}->{event['live_after']}  "
                    f"watermark {event['watermark']}")
        if self.heap_samples:
            peak = max(s["live"] for s in self.heap_samples)
            lines.append(f"Heap: {len(self.heap_samples)} occupancy samples,"
                         f" peak {peak} live objects")
        if self.run_spans:
            lines.append(f"Runs: {len(self.run_spans)}")
            for span in self.run_spans[-top:]:
                duration = span.get("duration_s")
                shown = "?" if duration is None else f"{duration * 1e3:.3f}"
                lines.append(f"  {span['name']} [{span['tier']}] "
                             f"{shown} ms, {span['cycles']} cycles")
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        views = self._views()
        fast = sum(views.fast_cycles.values())
        fallback = sum(views.fallback_cycles.values())
        stalls = sum(self.stall_cycles.values())
        return {
            "processor": self.processor_id,
            "fast_path": {opcode: {"cycles": cycles,
                                   "count": views.fast_counts[opcode]}
                          for opcode, cycles in views.fast_cycles.items()},
            "fallback": {opcode: {"cycles": views.fallback_cycles[opcode],
                                  "count": views.fallback_counts[opcode],
                                  "entries": views.fallback_entries[opcode]}
                         for opcode in set(views.fallback_cycles)
                         | set(views.fallback_entries)},
            "totals": {
                "fast_path_cycles": fast,
                "fallback_cycles": fallback,
                "stall_cycles": stalls,
                "attributed_cycles": fast + fallback + stalls,
            },
            "stall_cycles": {category: self.stall_cycles[category]
                             for category in ("data", "control",
                                              "structural")},
            "ic_sites": {site: {"hits": cell[0], "misses": cell[1],
                                "invalidations": cell[2]}
                         for site, cell in self.ic_sites.items()},
            "blocks": {label: {"runs": runs,
                               "cycles": views.block_cycles[label],
                               "fallback_cycles":
                                   views.block_fallback_cycles[label]}
                       for label, runs in views.block_runs.items()},
            "gc_events": list(self.gc_events),
            "heap_samples": list(self.heap_samples),
            "run_spans": [
                {k: v for k, v in span.items() if not k.startswith("_")}
                for span in self.run_spans],
            "stacks": [{"stack": list(stack), "cycles": cycles}
                       for stack, cycles in sorted(
                           views.stack_cycles.items())],
            "profile": {
                "total_instructions": sum(views.opcode_counts.values()),
                "total_cycles": sum(views.opcode_cycles.values()) + stalls,
                "opcodes": {opcode: {"cycles": cycles,
                                     "count": views.opcode_counts[opcode]}
                            for opcode, cycles in
                            views.opcode_cycles.items()},
                "functions": {name: {"cycles": cycles,
                                     "instructions":
                                         views.function_instructions[name]}
                              for name, cycles in
                              views.function_cycles.items()},
                "lines": [{"file": file, "line": line, "cycles": cycles,
                           "instructions":
                               views.line_instructions[(file, line)]}
                          for (file, line), cycles in sorted(
                              views.line_cycles.items())],
            },
        }
