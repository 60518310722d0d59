"""``Heap.adopt`` and ``Heap.collect`` against the loops they replaced.

The two reference functions below are the heap's adopt walk and mark
loop as they were before the heap's work became proportional to what a
step creates or keeps (DESIGN.md §3l).  The reference adopt walks
everything reachable from a result, tracked or not, and claims what is
untracked; the reference mark loop pushes every root and child, atoms
included, and keeps one visited set for all of them.  On seeded random
object graphs -- conses, vectors, closures, cells and heap numbers,
tracked and untracked, sharing substructure, with cycles through
untracked containers and tracked conses behind untracked ones -- the
heap must keep and free exactly what the reference marks, and claim
exactly what the reference claims wherever no tracked container reaches
untracked structure.  Where one does (``rplacd`` of a quoted constant
onto a tracked list), the heap deliberately claims less; the machine
tests at the end pin those counts, and the ``&rest`` list's.
"""

import random
from typing import Any, Dict, Iterable, List, Set, Tuple

import pytest

from repro import Compiler
from repro.datum import NIL, Cons, sym
from repro.machine import FrameRecord, Heap
from repro.machine.values import Cell, Closure, HeapNumber, PdlNumber
from repro.primitives import LispVector

GRAPHS = 600


def reference_adopt(tracked: Set[int], value: Any) -> List[Any]:
    """The old ``Heap.adopt``: walk all of *value*, claim (add to
    *tracked*) every untracked cons and vector; returns them."""
    claimed: List[Any] = []
    pending = [value]
    seen: Set[int] = set()
    while pending:
        obj = pending.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Cons):
            if id(obj) not in tracked:
                tracked.add(id(obj))
                claimed.append(obj)
            pending.append(obj.car)
            pending.append(obj.cdr)
        elif isinstance(obj, LispVector):
            if id(obj) not in tracked:
                tracked.add(id(obj))
                claimed.append(obj)
            pending.extend(obj.data)
    return claimed


def reference_mark(tracked: Set[int], roots: Iterable[Any]) -> Set[int]:
    """The old mark loop: the ids in *tracked* reachable from *roots*."""
    marked: Set[int] = set()
    seen: Set[int] = set()
    pending: List[Any] = list(roots)
    while pending:
        obj = pending.pop()
        oid = id(obj)
        if oid in seen:
            continue
        seen.add(oid)
        if oid in tracked:
            marked.add(oid)
        if isinstance(obj, Cons):
            pending.append(obj.car)
            pending.append(obj.cdr)
        elif isinstance(obj, Closure):
            pending.extend(obj.env)
        elif isinstance(obj, Cell):
            pending.append(obj.value)
        elif isinstance(obj, LispVector):
            pending.extend(obj.data)
    return marked


# -- random object graphs ---------------------------------------------------

ATOMS = (NIL, sym("a"), sym("b"), 0, 7, -3, 2.5, "str",
         FrameRecord(ret_code=None, ret_pc=0, old_fp=0, old_tp=0,
                     old_cp=None, nargs=0, serial=1),
         PdlNumber(None, 0, 0))
KINDS = ("cons", "cons", "cons", "vector", "closure", "cell", "number")


def _new(kind: str) -> Any:
    if kind == "cons":
        return Cons(NIL, NIL)
    if kind == "vector":
        return LispVector([NIL, NIL, NIL])
    if kind == "closure":
        return Closure(None, 0, [NIL, NIL])
    if kind == "cell":
        return Cell(NIL)
    return HeapNumber(1.5)


def _slots(obj: Any) -> int:
    kind = type(obj)
    if kind is Cons:
        return 2
    if kind is LispVector:
        return len(obj.data)
    if kind is Closure:
        return len(obj.env)
    return 1 if kind is Cell else 0


def _store(obj: Any, slot: int, value: Any) -> None:
    kind = type(obj)
    if kind is Cons:
        if slot == 0:
            obj.car = value
        else:
            obj.cdr = value
    elif kind is LispVector:
        obj.data[slot] = value
    elif kind is Closure:
        obj.env[slot] = value
    else:
        obj.value = value


def random_graph(seed: int) -> Tuple[List[Any], random.Random]:
    """Objects wired to each other and to atoms at random (so sharing and
    cycles of every kind occur), plus two motifs every graph has: a ring
    of conses whose cars hold other objects (a cycle through untracked
    conses whenever tracking leaves the ring out), and a list whose cdr
    spine runs into the graph."""
    rng = random.Random(seed)
    objects = [_new(rng.choice(KINDS)) for _ in range(rng.randint(4, 40))]
    for obj in objects:
        for slot in range(_slots(obj)):
            roll = rng.random()
            value = rng.choice(objects) if roll < 0.6 else rng.choice(ATOMS)
            _store(obj, slot, value)
    ring = [Cons(rng.choice(objects), NIL) for _ in range(rng.randint(1, 4))]
    for here, there in zip(ring, ring[1:] + ring[:1]):
        here.cdr = there
    spine: Any = rng.choice(objects + [NIL])
    for _ in range(rng.randint(0, 12)):
        spine = Cons(rng.choice(objects + list(ATOMS)), spine)
    if isinstance(spine, Cons):
        objects.append(spine)
    return ring + objects, rng


def _track(heap: Heap, objects: List[Any], rng: random.Random,
           share: float) -> None:
    for obj in objects:
        if rng.random() < share:
            heap.objects[id(obj)] = obj


def _children(obj: Any) -> List[Any]:
    """What adoption follows out of *obj*: cars, cdrs, vector slots."""
    kind = type(obj)
    if kind is Cons:
        return [obj.car, obj.cdr]
    if kind is LispVector:
        return list(obj.data)
    return []


def _held(obj: Any) -> List[Any]:
    """What marking follows out of *obj*: closure and cell contents too."""
    kind = type(obj)
    if kind is Closure:
        return list(obj.env)
    if kind is Cell:
        return [obj.value]
    return _children(obj)


def _close_over_structure(heap: Heap) -> None:
    """Track everything a tracked cons or vector reaches through conses
    and vectors: the state the allocators and adopt maintain."""
    pending = [obj for obj in heap.objects.values()
               if type(obj) in (Cons, LispVector)]
    while pending:
        for child in _children(pending.pop()):
            if type(child) in (Cons, LispVector) \
                    and id(child) not in heap.objects:
                heap.objects[id(child)] = child
                pending.append(child)


def _roots(objects: List[Any], rng: random.Random) -> List[Any]:
    """The ring's first cons, some other objects and some atoms."""
    roots = [objects[0]] + rng.sample(objects, rng.randint(0, 6))
    return roots + [rng.choice(ATOMS) for _ in range(rng.randint(0, 6))]


def _tracked_behind_untracked(heap: Heap, roots: List[Any]) -> bool:
    """Whether an untracked container reachable from *roots* holds a
    tracked object."""
    return any(id(obj) not in heap.objects
               and any(id(child) in heap.objects for child in _held(obj))
               for obj in _reachable(roots))


def _reachable(roots: List[Any]) -> List[Any]:
    out: Dict[int, Any] = {}
    pending = list(roots)
    while pending:
        obj = pending.pop()
        if id(obj) in out or type(obj) not in (
                Cons, LispVector, Closure, Cell, HeapNumber):
            continue
        out[id(obj)] = obj
        pending.extend(_held(obj))
    return list(out.values())


def _has_untracked_cycle(heap: Heap, roots: List[Any]) -> bool:
    untracked = {id(obj): obj for obj in _reachable(roots)
                 if id(obj) not in heap.objects}
    # Repeatedly drop untracked containers with no untracked successor;
    # whatever remains lies on (or leads into) a cycle of untracked ones.
    while True:
        leaves = [oid for oid, obj in untracked.items()
                  if not any(id(child) in untracked
                             for child in _children(obj))]
        if not leaves:
            return bool(untracked)
        for oid in leaves:
            del untracked[oid]


# -- the collector ------------------------------------------------------------

def test_collect_keeps_and_frees_what_the_reference_marks():
    cycles = hidden = 0
    for seed in range(GRAPHS):
        objects, rng = random_graph(seed)
        heap = Heap()
        _track(heap, objects, rng, share=rng.choice((0.2, 0.5, 0.9, 1.0)))
        roots = _roots(objects, rng)
        cycles += _has_untracked_cycle(heap, roots)
        hidden += _tracked_behind_untracked(heap, roots)
        before = dict(heap.objects)
        want = reference_mark(set(before), roots)

        collected = heap.collect(roots)

        assert set(heap.objects) == want, seed
        assert all(heap.objects[oid] is before[oid] for oid in want)
        assert collected == len(before) - len(want)
        assert heap.gc_collected == collected
        assert heap.last_gc["live_before"] == len(before)
        assert heap.last_gc["live_after"] == len(want)
    # The sample reaches the cases the visited set exists for.
    assert cycles >= GRAPHS // 4
    assert hidden >= GRAPHS // 4


def test_collect_survives_a_long_spine_and_shared_tails():
    heap = Heap()
    tail = NIL
    for i in range(5000):
        tail = heap.allocate_cons(i, tail)
    a = heap.allocate_cons("a", tail)
    b = heap.allocate_cons("b", tail)
    garbage = heap.allocate_cons(1, heap.allocate_cons(2, NIL))
    assert heap.live_count() == 5004
    assert heap.collect([a, b, 3, sym("x")]) == 2
    assert id(garbage) not in heap.objects
    assert heap.live_count() == 5002


# -- adoption -------------------------------------------------------------------

def _result(objects: List[Any], rng: random.Random) -> Any:
    """What a list-building primitive returns: fresh conses and vectors
    holding parts of the graph."""
    value: Any = rng.choice(objects + [NIL])
    for _ in range(rng.randint(0, 5)):
        if rng.random() < 0.2:
            value = LispVector([value, rng.choice(objects + list(ATOMS))])
        else:
            value = Cons(rng.choice(objects + list(ATOMS)), value)
    return value


def test_adopt_claims_what_the_reference_claims():
    for seed in range(GRAPHS):
        objects, rng = random_graph(seed)
        heap = Heap()
        _track(heap, objects, rng, share=rng.choice((0.0, 0.3, 0.7, 1.0)))
        _close_over_structure(heap)
        value = _result(objects, rng)
        tracked = set(heap.objects)
        claimed = reference_adopt(tracked, value)

        heap.adopt(value)

        assert set(heap.objects) == tracked, seed
        assert all(heap.objects[id(obj)] is obj for obj in claimed)
        conses = sum(type(obj) is Cons for obj in claimed)
        assert heap.allocations["cons"] == conses
        assert heap.allocations["other"] == len(claimed) - conses
        assert heap.alloc_counter == len(claimed)


def test_adopt_claims_no_more_than_the_reference_anywhere():
    # Without the closure property a tracked container may hold untracked
    # structure; the heap then claims a subset of what the reference does.
    for seed in range(GRAPHS):
        objects, rng = random_graph(seed)
        heap = Heap()
        _track(heap, objects, rng, share=0.5)
        value = _result(objects, rng)
        tracked = set(heap.objects)
        reference_adopt(tracked, value)
        heap.adopt(value)
        assert set(heap.objects) <= tracked, seed


def test_adopt_of_a_fresh_cons_does_not_walk_the_list_behind_it():
    heap = Heap()
    tail = NIL
    for i in range(1000):
        tail = heap.allocate_cons(i, tail)
    head = Cons(-1, tail)
    # A list that was never tracked would be claimed whole; a tracked one
    # stops the walk at its first cons.  Sabotage the tail's cars to
    # prove they are not visited.
    tail.car = Cons("untracked", NIL)
    heap.adopt(head)
    assert heap.allocations["cons"] == 1000 + 1
    assert id(head) in heap.objects
    assert id(tail.car) not in heap.objects


def test_adopt_ends_cycles():
    heap = Heap()
    a = Cons(1, NIL)
    b = Cons(a, a)
    a.cdr = b
    vector = LispVector([a, b, None])
    vector.data[2] = vector
    heap.adopt(vector)
    assert heap.allocations == {"number-box": 0, "cons": 2, "closure": 0,
                                "cell": 0, "other": 1}


# -- the counts that differ from the old walk, on both tiers -----------------

def _machine(source: str, tier: str, gc_threshold=None):
    compiler = Compiler()
    compiler.compile_source(source)
    machine = compiler.machine()
    machine.tier = tier
    machine.gc_threshold = gc_threshold
    return machine


@pytest.mark.parametrize("tier", ("simulate", "native"))
def test_rplacd_of_a_constant_is_not_claimed_through_the_tracked_list(tier):
    source = """
        (defun f ()
          (let ((x (list 1)))
            (rplacd x '(2 3 4))
            (cons 0 x)))
    """
    machine = _machine(source, tier)
    assert str(machine.run(sym("f"), [])) == "(0 1 2 3 4)"
    # (list 1) and (cons 0 x).  The old walk also claimed the constant's
    # three conses through x, and counted 5.
    assert machine.heap.allocations["cons"] == 2


@pytest.mark.parametrize("tier", ("simulate", "native"))
def test_rest_list_is_counted_once(tier):
    machine = _machine("(defun g (&rest xs) (cons 0 xs))", tier)
    assert str(machine.run(sym("g"), [1, 2, 3, 4, 5])) == "(0 1 2 3 4 5)"
    assert machine.heap.allocations["cons"] == 6
    assert machine.heap.live_count() == 6


@pytest.mark.parametrize("tier", ("simulate", "native"))
def test_dead_rest_lists_are_collected(tier):
    source = """
        (defun count-rest (&rest xs) (length xs))
        (defun drive (n)
          (let ((acc 0))
            (dotimes (i n acc)
              (setq acc (+ acc (count-rest i i i i))))))
    """
    machine = _machine(source, tier, gc_threshold=10)
    assert machine.run(sym("drive"), [100]) == 400
    heap = machine.heap
    assert heap.allocations["cons"] == 400
    assert heap.gc_runs >= 30
    assert heap.gc_collected >= 380
    assert heap.live_count() <= 14
