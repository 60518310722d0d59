"""Heap and garbage collector for the simulated runtime.

"The run-time system, and especially the garbage collector, has been
written with multiprocessing in mind" -- ours is a modest single-threaded
mark-sweep collector, but it keeps the statistics the experiments need:
allocation counts by class (number boxes, conses, closures, cells) are the
measured quantity in the pdl-number and representation ablations (P2/P3).

The heap's work is proportional to what a step creates or keeps alive
(DESIGN.md §3l): :meth:`Heap.adopt` claims only untracked structure, the
mark loop of :meth:`Heap.collect` walks only containers and follows cdr
spines in place, and one registry (``objects``, id -> object) is both the
tracked set and what pins each id.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, Iterable, Optional, Set

from ..datum import Cons
from ..primitives import LispVector
from .values import Cell, Closure, HeapNumber

#: What the mark loop looks at: the four container types and the one
#: tracked leaf.  Everything else a root or a container holds (fixnums,
#: symbols, strings, raw numbers, frame records, pdl numbers, primitives)
#: is an atom to the collector and is never pushed.
_TRACED = frozenset((Cons, LispVector, Closure, Cell, HeapNumber))


class Heap:
    def __init__(self) -> None:
        #: The registry: id -> object for every tracked object.  The value
        #: pins the object, so an id in here cannot be recycled.
        self.objects: Dict[int, Any] = {}
        self.allocations: Dict[str, int] = {
            "number-box": 0, "cons": 0, "closure": 0, "cell": 0, "other": 0,
        }
        self.certifications = 0  # pdl pointers copied to the heap
        self.gc_runs = 0
        self.gc_collected = 0
        #: Cumulative wall-clock seconds spent inside collect().
        self.gc_pause_seconds = 0.0
        #: The last collection's event record (reason, pause_s, collected,
        #: live_before/live_after, watermark, at_s on the perf_counter
        #: clock); telemetry copies this into its GC event stream.
        self.last_gc: Optional[Dict[str, Any]] = None
        #: Monotone allocation counter (never decremented by collection):
        #: the machines' automatic-GC trigger watches this watermark so
        #: the live-set check runs exactly when something was allocated.
        self.alloc_counter = 0

    # -- allocation -----------------------------------------------------------

    def _register(self, obj: Any, kind: str) -> Any:
        self.objects[id(obj)] = obj
        self.allocations[kind] += 1  # every caller's kind is pre-seeded
        self.alloc_counter += 1
        return obj

    def allocate_number(self, value: Any) -> HeapNumber:
        # _register, unrolled: number boxes are the hottest allocation
        # (every BOXF on a float) and skipping the extra call is measurable.
        obj = HeapNumber(value)
        self.objects[id(obj)] = obj
        self.allocations["number-box"] += 1
        self.alloc_counter += 1
        return obj

    def allocate_cons(self, car: Any, cdr: Any) -> Cons:
        return self._register(Cons(car, cdr), "cons")

    def allocate_closure(self, closure: Closure) -> Closure:
        return self._register(closure, "closure")

    def allocate_cell(self, value: Any) -> Cell:
        return self._register(Cell(value), "cell")

    def adopt(self, value: Any) -> None:
        """Register the conses and vectors a generic primitive (cons,
        list, append, make-vector ...) built through the datum layer, so
        the collector tracks them: claim every *untracked* cons and vector
        reachable from *value*, and stop at any object already tracked.

        What a tracked container holds is tracked as well -- the
        allocators and this method register whole structures, and a
        collection keeps a container's contents with it -- so the walk
        visits what the primitive created (and any quoted constant it
        reached), and a ``cons`` onto an n-element list visits one cons,
        not the whole list.  The exception is ``rplaca``/``rplacd``/
        ``vset`` storing untracked structure (a quoted constant) into a
        tracked container: a later result that reaches the constant only
        through that container does not claim it.  Registering an object
        on first visit also ends cycles."""
        objects = self.objects
        conses = vectors = 0
        pending = [value]
        while pending:
            obj = pending.pop()
            while type(obj) is Cons and id(obj) not in objects:
                objects[id(obj)] = obj
                conses += 1
                car = obj.car
                if type(car) is Cons or type(car) is LispVector:
                    pending.append(car)
                obj = obj.cdr
            if type(obj) is LispVector and id(obj) not in objects:
                objects[id(obj)] = obj
                vectors += 1
                pending.extend(obj.data)
        if conses or vectors:
            self.allocations["cons"] += conses
            self.allocations["other"] += vectors
            self.alloc_counter += conses + vectors

    def total_allocations(self) -> int:
        return sum(self.allocations.values())

    def live_count(self) -> int:
        return len(self.objects)

    # -- garbage collection -----------------------------------------------------

    def collect(self, roots: Iterable[Any], reason: str = "explicit") -> int:
        """Mark-sweep from the given roots; returns number collected.
        *reason* names the trigger ("explicit" GC instruction, an
        allocation "watermark", a "multi-watermark" stop-the-world) and is
        recorded -- with the pause wall-time, reclaim counts, and the
        allocation watermark -- in :attr:`last_gc`."""
        started = perf_counter()
        objects = self.objects
        live_before = len(objects)
        self.gc_runs += 1
        # Marking fills the next registry: a tracked object is copied into
        # ``marked`` when first reached (which also makes it visited), and
        # the sweep is dropping the old registry.
        marked: Dict[int, Any] = {}
        # Untracked containers (a quoted constant, a vector built outside
        # the heap) never enter ``marked`` but must still be walked -- a
        # tracked object can hide behind one -- so they are remembered
        # here: shared untracked structure is walked once, and a cycle
        # through it ends.
        seen: Set[int] = set()
        traced = _TRACED
        pending = [obj for obj in roots if type(obj) in traced]
        push = pending.append
        while pending:
            obj = pending.pop()
            while True:
                oid = id(obj)
                if oid in objects:
                    if oid in marked:
                        break
                    marked[oid] = obj
                elif oid in seen:
                    break
                else:
                    seen.add(oid)
                kind = type(obj)
                if kind is Cons:
                    # Follow the cdr spine in place; only cars wait.
                    item = obj.car
                    if type(item) in traced:
                        push(item)
                    obj = obj.cdr
                    if type(obj) in traced:
                        continue
                elif kind is Closure:
                    pending.extend([item for item in obj.env
                                    if type(item) in traced])
                elif kind is Cell:
                    item = obj.value
                    if type(item) in traced:
                        push(item)
                elif kind is LispVector:
                    pending.extend([item for item in obj.data
                                    if type(item) in traced])
                break
        collected = live_before - len(marked)
        self.objects = marked
        self.gc_collected += collected
        pause = perf_counter() - started
        self.gc_pause_seconds += pause
        self.last_gc = {
            "reason": reason, "at_s": started, "pause_s": pause,
            "collected": collected, "live_before": live_before,
            "live_after": len(marked), "watermark": self.alloc_counter,
        }
        return collected
