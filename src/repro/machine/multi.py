"""Multiprocessor configuration (Section 3).

"The standard configuration is a multiprocessor; synchronization
instructions are available to the user.  (These are in turn made available
to the LISP user.  Moreover, the run-time system, and especially the
garbage collector, has been written with multiprocessing in mind.)"

:class:`MultiMachine` runs N :class:`~repro.machine.cpu.Machine` processors
over one shared program, **sharing**:

* the heap (and its collector — a stop-the-world collection over every
  processor's roots),
* the global values of special variables (each processor keeps its *own*
  deep-binding stack: deep binding's advertised strength is exactly that
  "fast context switching among processes with different sets of bindings
  [requires only] to switch stack pointers"),
* the lock table behind the LOCK/UNLOCK synchronization instructions
  (spin locks at instruction granularity).

Scheduling is deterministic round-robin with a configurable quantum, so
interleaving-sensitive tests are reproducible.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..datum import NIL
from ..datum.symbols import Symbol
from ..errors import MachineError
from .cpu import Machine
from .isa import Program


class MultiMachine:
    def __init__(self, program: Program, processors: int = 2,
                 quantum: int = 8, fuel: int = 50_000_000,
                 gc_threshold: Optional[int] = None,
                 tier: str = "simulate", timing: str = "single",
                 pipeline: Optional[Any] = None):
        if processors < 1:
            raise ValueError("need at least one processor")
        self.quantum = quantum
        self.processors: List[Machine] = []
        locks: Dict[Any, int] = {}
        first = Machine(program, fuel=fuel, gc_threshold=None, tier=tier,
                        timing=timing, pipeline=pipeline)
        first.processor_id = 0
        first.locks = locks
        self.processors.append(first)
        for index in range(1, processors):
            cpu = Machine(program, fuel=fuel, gc_threshold=None, tier=tier,
                          timing=timing, pipeline=pipeline)
            cpu.processor_id = index
            cpu.locks = locks
            cpu.heap = first.heap  # shared heap
            # Shared special-variable globals, private binding stacks.
            cpu.specials.globals = first.specials.globals
            self.processors.append(cpu)
        self.gc_threshold = gc_threshold
        self._results: List[Any] = [NIL] * processors
        # Fuel ceiling for one run_tasks call, snapshotted while every
        # processor still has its full allowance (cpu.fuel never changes,
        # but snapshotting here keeps the budget immune to callers that
        # retune individual processors later).
        self._stall_budget = sum(cpu.fuel for cpu in self.processors)

    # -- program-wide state -------------------------------------------------

    @property
    def heap(self):
        return self.processors[0].heap

    def define_global(self, name: Symbol, value: Any) -> None:
        self.processors[0].define_global(name, value)

    def global_value(self, name: Symbol) -> Any:
        return self.processors[0].machine_to_lisp(
            self.processors[0].specials.lookup(name))

    # -- running ---------------------------------------------------------------

    def run_tasks(self, tasks: Sequence[Tuple[Symbol, Sequence[Any]]]
                  ) -> List[Any]:
        """Run one task per processor to completion under round-robin
        scheduling; returns each task's result, in task order.  With fewer
        tasks than processors the excess processors stay idle; more tasks
        than processors is an error (queueing is the caller's job)."""
        if len(tasks) > len(self.processors):
            raise MachineError(
                f"{len(tasks)} tasks but only {len(self.processors)}"
                " processors (queueing is the caller's job)")
        # Fresh results each call: a prior run's value must not leak into
        # the result of a shorter task list.
        self._results = [NIL] * len(self.processors)
        active = []
        try:
            for index, (function, args) in enumerate(tasks):
                self.processors[index].start(function, list(args))
                active.append(index)
            # cpu.instructions is cumulative across calls; budget this
            # call's *delta* against the fixed allowance so repeated
            # run_tasks calls do not spuriously exhaust.
            instructions_at_start = sum(
                cpu.instructions for cpu in self.processors)
            steps_without_progress = 0
            while active:
                progressed = False
                for index in list(active):
                    cpu = self.processors[index]
                    before = cpu.instructions
                    cpu.step(self.quantum)
                    if cpu.instructions != before:
                        progressed = True
                    if cpu.halted:
                        self._results[index] = \
                            cpu.machine_to_lisp(cpu.result)
                        active.remove(index)
                self._maybe_collect()
                if not progressed:
                    steps_without_progress += 1
                    if steps_without_progress > 10:  # pragma: no cover
                        raise MachineError("multiprocessor deadlock (all "
                                           "processors spinning on locks)")
                else:
                    steps_without_progress = 0
                spent = sum(cpu.instructions for cpu in self.processors) \
                    - instructions_at_start
                if spent > self._stall_budget:
                    raise MachineError("multiprocessor fuel exhausted")
        except BaseException:
            # One processor died (fuel, trap, uncaught throw), a task
            # failed to start, or an interrupt arrived: the others are
            # mid-task with frames on their stacks.  End their runs too
            # (the one that died has already left its own) so every
            # processor is halted and restored -- a later run_tasks on
            # this MultiMachine starts clean.
            for index in active:
                self.processors[index]._leave()
            raise
        return [self._results[i] for i in range(len(tasks))]

    def _maybe_collect(self) -> None:
        if self.gc_threshold is None:
            return
        if self.heap.live_count() <= self.gc_threshold:
            return
        # Stop-the-world: roots from every processor.
        roots: List[Any] = []
        for cpu in self.processors:
            roots.extend(cpu.gc_roots())
        self.heap.collect(roots, reason="multi-watermark")
        # One shared heap, one event: record it once, tagged "all" (a
        # stop-the-world pause stalls every processor).
        for cpu in self.processors:
            if cpu.telemetry is not None:
                cpu.telemetry.note_gc(self.heap, processor="all")
                break

    # -- telemetry -----------------------------------------------------------

    def enable_telemetry(self) -> None:
        """Switch on telemetry on every processor; events are tagged with
        each processor's id (stop-the-world GC is tagged "all")."""
        for cpu in self.processors:
            cpu.enable_telemetry()

    def telemetry_data(self) -> Optional[Dict[str, Any]]:
        """Per-processor telemetry dumps plus a merged aggregate, or None
        when telemetry is not enabled anywhere."""
        from ..telemetry import MachineTelemetry

        per_processor = []
        merged = MachineTelemetry()
        for cpu in self.processors:
            if cpu.telemetry is not None:
                per_processor.append(cpu.telemetry.to_json())
                merged.merge(cpu.telemetry)
        if not per_processor:
            return None
        return {"processors": per_processor, "merged": merged.to_json()}

    def telemetry_report(self, top: int = 20) -> str:
        reports = [f"-- processor {cpu.processor_id} --\n"
                   + cpu.telemetry.report(top)
                   for cpu in self.processors if cpu.telemetry is not None]
        if not reports:
            return "(telemetry is not enabled)"
        return "\n".join(reports)

    # -- statistics -----------------------------------------------------------

    def total_instructions(self) -> int:
        return sum(cpu.instructions for cpu in self.processors)

    def elapsed_cycles(self) -> int:
        """Wall-clock model: processors run in parallel, so elapsed time is
        the maximum, not the sum."""
        return max(cpu.cycles for cpu in self.processors)
