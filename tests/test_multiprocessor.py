"""Tests for the multiprocessor configuration (Section 3): shared heap,
shared special-variable globals, private binding stacks, spin locks, and
stop-the-world collection over all processors' roots."""

import pytest

from repro import Compiler
from repro.datum import sym, to_list
from repro.errors import MachineError
from repro.machine import MultiMachine

COUNTER = """
    (defvar *counter* 0)

    (defun bump-unsafe (n)
      (dotimes (i n 'done)
        (setq *counter* (+ *counter* 1))))

    (defun bump-safe (n)
      (dotimes (i n 'done)
        (lock 'counter)
        (setq *counter* (+ *counter* 1))
        (unlock 'counter)))
"""


def multi(source, processors=2, **kwargs):
    compiler = Compiler()
    compiler.compile_source(source)
    mm = MultiMachine(compiler.program, processors=processors, **kwargs)
    for name, value in compiler.global_values.items():
        mm.define_global(name, value)
    return mm


class TestScheduling:
    def test_tasks_complete_and_return(self):
        mm = multi("(defun sq (x) (* x x))", processors=3)
        results = mm.run_tasks([(sym("sq"), [2]), (sym("sq"), [3]),
                                (sym("sq"), [4])])
        assert results == [4, 9, 16]

    def test_fewer_tasks_than_processors(self):
        mm = multi("(defun sq (x) (* x x))", processors=4)
        assert mm.run_tasks([(sym("sq"), [5])]) == [25]

    def test_too_many_tasks_rejected(self):
        mm = multi("(defun sq (x) (* x x))", processors=1)
        with pytest.raises(MachineError):
            mm.run_tasks([(sym("sq"), [1]), (sym("sq"), [2])])

    def test_deterministic_interleaving(self):
        def run_once():
            mm = multi(COUNTER, processors=3, quantum=5)
            mm.run_tasks([(sym("bump-unsafe"), [20])] * 3)
            return (mm.global_value(sym("*counter*")),
                    mm.total_instructions())

        assert run_once() == run_once()

    def test_elapsed_is_max_not_sum(self):
        mm = multi("(defun spin (n) (dotimes (i n 'ok) (* i i)))",
                   processors=4)
        mm.run_tasks([(sym("spin"), [50])] * 4)
        assert mm.elapsed_cycles() < mm.total_instructions()


class TestSharedState:
    def test_specials_globals_shared(self):
        mm = multi(COUNTER, processors=2, quantum=4)
        mm.run_tasks([(sym("bump-safe"), [10]), (sym("bump-safe"), [10])])
        assert mm.global_value(sym("*counter*")) == 20

    def test_heap_shared(self):
        mm = multi("(defun build (n) (list n n))", processors=2)
        mm.run_tasks([(sym("build"), [1]), (sym("build"), [2])])
        # Both processors' allocations land in the one heap.
        assert mm.heap.allocations["cons"] >= 4

    def test_private_binding_stacks(self):
        """Each processor's dynamic bindings are its own (deep binding's
        'switch stack pointers' context-switch story)."""
        source = """
            (defvar *who* 'nobody)
            (defun identify (*who* n)
              (dotimes (i n *who*)))
        """
        mm = multi(source, processors=2, quantum=3)
        results = mm.run_tasks([(sym("identify"), [sym("alice"), 30]),
                                (sym("identify"), [sym("bob"), 30])])
        assert results == [sym("alice"), sym("bob")]


class TestSynchronization:
    def test_locked_increments_never_lost(self):
        mm = multi(COUNTER, processors=3, quantum=2)
        mm.run_tasks([(sym("bump-safe"), [25])] * 3)
        assert mm.global_value(sym("*counter*")) == 75

    def test_lock_spin_counts_instructions(self):
        """Contended locks spin: total instruction count exceeds the
        uncontended run's."""
        contended = multi(COUNTER, processors=3, quantum=2)
        contended.run_tasks([(sym("bump-safe"), [25])] * 3)
        solo = multi(COUNTER, processors=1)
        solo.run_tasks([(sym("bump-safe"), [25])])
        per_task_solo = solo.total_instructions()
        assert contended.total_instructions() > 3 * per_task_solo

    def test_unlock_without_lock_traps(self):
        mm = multi("(defun bad () (unlock 'nope))")
        with pytest.raises(MachineError):
            mm.run_tasks([(sym("bad"), [])])

    def test_lock_reentrant_same_processor(self):
        mm = multi("""
            (defun ok ()
              (lock 'k) (lock 'k) (unlock 'k) 'done)
        """)
        assert mm.run_tasks([(sym("ok"), [])]) == [sym("done")]


class TestRunTasksHygiene:
    def test_results_reset_between_calls(self):
        """A prior run's values must not survive into a later call's result
        slots (observable when a later call traps before finishing)."""
        from repro.datum import NIL

        mm = multi("(defun sq (x) (* x x))"
                   "(defun bad () (unlock 'nope))", processors=2)
        assert mm.run_tasks([(sym("sq"), [2]), (sym("sq"), [3])]) == [4, 9]
        with pytest.raises(MachineError):
            mm.run_tasks([(sym("bad"), []), (sym("sq"), [4])])
        assert mm._results == [NIL, NIL]

    def test_repeated_runs_do_not_exhaust_budget(self):
        # cpu.instructions is cumulative; the per-call budget must be the
        # delta, so reusing one machine for many calls keeps working.
        mm = multi("(defun sq (x) (* x x))")
        for i in range(5):
            assert mm.run_tasks([(sym("sq"), [i])]) == [i * i]

    def test_stall_budget_snapshotted_at_construction(self):
        """Retuning a processor's fuel after construction must not widen
        run_tasks' stall protection."""
        mm = multi("(defun spin-forever () (progbody top (go top)))",
                   processors=1, fuel=4000)
        for cpu in mm.processors:
            cpu.fuel = 10_000_000
        with pytest.raises(MachineError,
                           match="multiprocessor fuel exhausted"):
            mm.run_tasks([(sym("spin-forever"), [])])


class TestMultiprocessorGc:
    def test_stop_the_world_collects_across_processors(self):
        source = """
            (defun churn (n) (dotimes (i n 'ok) (list i i i)))
            (defun keep (n)
              (let ((acc nil))
                (dotimes (i n acc) (setq acc (cons i acc)))))
        """
        mm = multi(source, processors=2, quantum=8, gc_threshold=80)
        results = mm.run_tasks([(sym("churn"), [200]), (sym("keep"), [50])])
        assert results[0] is sym("ok")
        assert to_list(results[1]) == list(range(49, -1, -1))
        assert mm.heap.gc_runs >= 1
        # The churn garbage was reclaimed; the keeper's list survived.
        assert mm.heap.live_count() < 400


class TestFaultAbortsAllProcessors:
    """Regression: a MachineError raised mid-quantum used to leave the
    *other* processors half-stepped -- frames on their stacks, specials
    bound -- so the next run_tasks on the same MultiMachine started from
    corrupt state.  run_tasks now aborts every active processor on the
    way out, and the failing step() itself restores + poisons its
    machine."""

    SOURCE = COUNTER + """
        (defun boom (n)
          (dotimes (i n 'unreachable)
            (car 5)))
    """

    def test_failure_aborts_every_active_processor(self):
        from repro.errors import ReproError

        mm = multi(self.SOURCE, processors=2, quantum=4)
        with pytest.raises(ReproError):
            mm.run_tasks([(sym("bump-unsafe"), [500]),
                          (sym("boom"), [3])])
        for cpu in mm.processors:
            assert cpu.halted
            assert cpu.poisoned
            assert cpu.stack == []          # entry state restored
            assert cpu.catch_stack == []
            assert cpu.specials.depth() == 0

    def test_task_that_fails_to_start_ends_the_started_ones(self):
        from repro.errors import UndefinedFunctionError

        mm = multi(self.SOURCE, processors=2, quantum=4)
        with pytest.raises(UndefinedFunctionError,
                           match="undefined function"):
            mm.run_tasks([(sym("bump-safe"), [10]),
                          (sym("no-such-task"), [])])
        started = mm.processors[0]
        assert started.halted and started.poisoned
        assert started.stack == []
        results = mm.run_tasks([(sym("bump-safe"), [10]),
                                (sym("bump-safe"), [10])])
        assert results == [sym("done"), sym("done")]

    def test_multimachine_usable_after_failure(self):
        from repro.errors import ReproError

        mm = multi(self.SOURCE, processors=2, quantum=4)
        with pytest.raises(ReproError):
            mm.run_tasks([(sym("bump-unsafe"), [500]),
                          (sym("boom"), [3])])
        results = mm.run_tasks([(sym("bump-safe"), [10]),
                                (sym("bump-safe"), [10])])
        assert results == [sym("done"), sym("done")]
