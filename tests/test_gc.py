"""Tests for the garbage collector and automatic collection triggering."""


from repro import Compiler
from repro.datum import sym, to_list
from repro.machine import Machine

CHURN = """
    (defun churn (n)
      ;; Allocates a fresh 3-element list per iteration, keeps none.
      (dotimes (i n 'done)
        (list i (* i i) (+ i 1))))
"""

KEEPER = """
    (defun keeper (n)
      ;; Builds and returns an n-element list: all of it must survive GC.
      (let ((acc nil))
        (dotimes (i n acc)
          (setq acc (cons i acc)))))
"""


def machine_for(source, gc_threshold=None):
    compiler = Compiler()
    compiler.compile_source(source)
    machine = Machine(compiler.program, gc_threshold=gc_threshold)
    return machine


class TestAutomaticCollection:
    def test_churn_stays_bounded(self):
        machine = machine_for(CHURN, gc_threshold=100)
        machine.run(sym("churn"), [500])
        assert machine.heap.gc_runs >= 1
        assert machine.heap.gc_collected > 500
        # Live set stays near the threshold, not near total allocations.
        assert machine.heap.live_count() < 300
        assert machine.heap.total_allocations() >= 1500

    def test_no_threshold_never_collects(self):
        machine = machine_for(CHURN)
        machine.run(sym("churn"), [100])
        assert machine.heap.gc_runs == 0
        assert machine.heap.live_count() >= 300

    def test_live_data_survives_collection(self):
        machine = machine_for(KEEPER, gc_threshold=50)
        result = machine.run(sym("keeper"), [200])
        assert machine.heap.gc_runs >= 1
        assert to_list(result) == list(range(199, -1, -1))

    def test_closure_environments_survive(self):
        source = """
            (defun make-adder (n) (lambda (x) (+ x n)))
            (defun stress (k)
              (let ((adder (make-adder 100)))
                (dotimes (i k 'ok) (list i i i))   ; garbage pressure
                (funcall adder k)))
        """
        machine = machine_for(source, gc_threshold=40)
        assert machine.run(sym("stress"), [200]) == 300
        assert machine.heap.gc_runs >= 1

    def test_special_bindings_survive(self):
        source = """
            (defvar *kept* nil)
            (defun stress (k)
              (setq *kept* (list 'a 'b 'c))
              (dotimes (i k 'ok) (list i i i))
              (car *kept*))
        """
        compiler = Compiler()
        compiler.compile_source(source)
        machine = Machine(compiler.program, gc_threshold=40)
        for name, value in compiler.global_values.items():
            machine.define_global(name, value)
        assert machine.run(sym("stress"), [200]) is sym("a")
        assert machine.heap.gc_runs >= 1

    def test_boxed_numbers_collected(self):
        source = """
            (defun float-churn (n)
              ;; Generic float arithmetic boxes every intermediate.
              (let ((acc 0.0))
                (dotimes (i n 'done)
                  (setq acc (* 1.0 (+ acc 1.0))))))
        """
        from repro import CompilerOptions

        compiler = Compiler(CompilerOptions(
            enable_representation_analysis=False))
        compiler.compile_source(source)
        machine = Machine(compiler.program, gc_threshold=60)
        machine.run(sym("float-churn"), [300])
        assert machine.heap.gc_runs >= 1
        assert machine.heap.live_count() < 200


class TestCollectorMechanics:
    def test_gc_roots_include_registers_and_stack(self):
        machine = machine_for(CHURN)
        machine.run(sym("churn"), [3])
        roots = machine.gc_roots()
        assert len(roots) >= 32  # at least the register file

    def test_explicit_collect(self):
        machine = machine_for(CHURN)
        machine.run(sym("churn"), [50])
        before = machine.heap.live_count()
        collected = machine.collect_garbage()
        assert collected > 0
        assert machine.heap.live_count() < before

    def test_gc_statistics(self):
        machine = machine_for(CHURN, gc_threshold=30)
        machine.run(sym("churn"), [100])
        stats = machine.stats()
        assert stats["total_heap_allocations"] >= 300
        assert machine.heap.gc_runs >= 1


BURST = """
    (defun burst ()
      ;; Two 15-cons allocations inside a run far shorter than 64
      ;; instructions: the old every-64-instructions check cadence never
      ;; fired at all.  length consumes each list so neither allocation
      ;; is dead code.
      (+ (length (list 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15))
         (length (list 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15))))
"""


class TestAllocationWatermarkTrigger:
    """Regression: the automatic-GC check used to run only when
    ``instructions % 64 == 0``, so a run shorter than 64 instructions --
    or a single instruction allocating far past the threshold (a
    list-building GENERIC, RESTCOLLECT) -- never triggered collection
    and overshot gc_threshold arbitrarily.  The trigger is now keyed to
    an allocation watermark: the live-set check runs after any
    instruction that allocated."""

    def test_short_run_still_collects(self):
        machine = machine_for(BURST, gc_threshold=10)
        machine.run(sym("burst"), [])
        assert machine.heap.gc_runs >= 1

    def test_overshoot_bounded_by_one_instruction(self):
        # Peak live set, sampled after every instruction, stays within
        # threshold + one instruction's worth of allocation -- not the
        # several bursts the old 64-instruction cadence allowed.
        machine = machine_for(CHURN, gc_threshold=20)
        machine.start(sym("churn"), [200])
        peak = 0
        while not machine.halted:
            machine.step(1)
            live = machine.heap.live_count()
            if live > peak:
                peak = live
        assert machine.heap.gc_runs >= 1
        # CHURN allocates 3 conses per iteration in one GENERIC; allow
        # threshold + one burst + the loop's own live state.
        assert peak <= 20 + 3 + 10


class TestMarkLoopTraversal:
    """Regression sweep for the collector's mark loop and the machine's
    root set: every container type must be traversed regardless of
    discovery order, and every saved closure environment (a suspended
    caller's ``old_cp``, a catch record's ``cp``) must be rooted."""

    def test_vector_of_vectors_survives(self):
        # Live data held *solely* through a vector stored inside another
        # vector: the locals are dead after the vsets, so only the
        # outer->inner->list chain keeps the cons cells alive across the
        # collections the churn loop triggers.
        source = """
            (defun nest (n)
              (let ((outer (make-vector 2 nil)))
                (vset outer 0 (make-vector 3 7))
                (vset (vref outer 0) 1 (list 1 2 3))
                (dotimes (i n 'ok) (list i i i))
                (+ (vref (vref outer 0) 0)
                   (car (cdr (vref (vref outer 0) 1))))))
        """
        machine = machine_for(source, gc_threshold=30)
        assert machine.run(sym("nest"), [200]) == 9
        assert machine.heap.gc_runs >= 1

    def test_nested_vectors_traversed_from_roots(self):
        from repro.machine import Heap
        from repro.primitives import LispVector

        heap = Heap()
        leaf = heap.allocate_cons(1, 2)
        outer = LispVector([LispVector([leaf])])
        heap.adopt(outer)
        assert heap.collect([outer]) == 0
        assert id(leaf) in heap.objects

    def test_unregistered_cycle_terminates_and_marks_through(self):
        # Untracked structure (a quoted constant, a vector built outside
        # the heap) is never registered: the mark loop must still walk it
        # (a registered cons can hide behind it) and must terminate on
        # cycles through it.
        from repro.datum import Cons
        from repro.machine import Heap

        heap = Heap()
        kept = heap.allocate_cons(1, 2)
        a = Cons(kept, None)
        b = Cons(a, None)
        a.cdr = b  # unregistered two-cons cycle holding a registered cons
        assert heap.collect([a]) == 0
        assert id(kept) in heap.objects

    def test_suspended_caller_env_is_rooted(self):
        # A FrameRecord's old_cp is the suspended caller's closure
        # environment; the record itself is opaque to the heap, so
        # gc_roots must expand it.
        from repro.machine import FrameRecord

        machine = machine_for(CHURN)
        payload = machine.heap.allocate_cons(1, 2)
        machine.stack.append(FrameRecord(
            ret_code=None, ret_pc=0, old_fp=0, old_tp=0,
            old_cp=[payload], nargs=0, serial=999))
        try:
            roots = machine.gc_roots()
            assert any(root is payload for root in roots)
            machine.heap.collect(roots)
            assert id(payload) in machine.heap.objects
        finally:
            machine.stack.pop()

    def test_catch_record_env_is_rooted(self):
        from repro.machine.cpu import CatchRecord

        machine = machine_for(CHURN)
        payload = machine.heap.allocate_cons(3, 4)
        code = machine.program.functions[sym("churn")]
        machine.catch_stack.append(CatchRecord(
            tag=sym("t"), stack_height=0, fp=0, tp=0, cp=[payload],
            code=code, target_pc=0, specials_depth=0,
            frame_serials=frozenset()))
        try:
            roots = machine.gc_roots()
            assert any(root is payload for root in roots)
        finally:
            machine.catch_stack.pop()
