"""Tests for the simulated S-1 machine, using hand-assembled programs.

These validate the CPU semantics independently of the compiler: frames,
tail-call frame replacement, pdl-number lifetimes, boxing discipline,
specials, closures, and catch/throw.
"""

import pytest

from repro.datum import NIL, T, sym, to_list
from repro.errors import (
    DivisionByZeroError, LispError, MachineError,
    WrongNumberOfArgumentsError, WrongTypeError,
)
from repro.machine import (
    CodeObject,
    Instruction,
    Machine,
    Program,
    frame_arg,
    global_ref,
    imm,
    label_ref,
    name_ref,
    reg,
    temp,
)
from repro.machine.timing import TIMINGS
from repro.options import TIERS


def ins(opcode, *operands, comment=None):
    return Instruction(opcode, tuple(operands), comment)


def make_program(**functions):
    program = Program()
    for name, code in functions.items():
        program.add(sym(name), code)
    return program


def run(program, name, args, **kwargs):
    machine = Machine(program)
    result = machine.run(sym(name), args, **kwargs)
    return result, machine


class TestBasicExecution:
    def test_return_constant(self):
        code = CodeObject("k", [ins("RET", imm(42))])
        result, _ = run(make_program(k=code), "k", [])
        assert result == 42

    def test_return_argument(self):
        code = CodeObject("ident", [ins("RET", frame_arg(0))])
        result, _ = run(make_program(ident=code), "ident", [7])
        assert result == 7

    def test_raw_arithmetic(self):
        code = CodeObject("addmul", [
            ins("ALLOCTEMPS", imm(0)),
            ins("ADD", reg(0), frame_arg(0), frame_arg(1)),
            ins("MULT", reg(0), reg(0), imm(2)),
            ins("RET", reg(0)),
        ])
        result, _ = run(make_program(addmul=code), "addmul", [3, 4])
        assert result == 14

    def test_float_requires_unbox(self):
        # Args arrive boxed; FADD on the box must trap.
        code = CodeObject("bad", [
            ins("FADD", reg(0), frame_arg(0), frame_arg(1)),
            ins("RET", reg(0)),
        ])
        with pytest.raises(MachineError):
            run(make_program(bad=code), "bad", [1.0, 2.0])

    def test_unbox_then_float_add(self):
        code = CodeObject("fadd", [
            ins("UNBOX", reg(0), frame_arg(0)),
            ins("UNBOX", reg(1), frame_arg(1)),
            ins("FADD", reg(0), reg(0), reg(1)),
            ins("BOXF", reg(0), reg(0)),
            ins("RET", reg(0)),
        ])
        result, machine = run(make_program(fadd=code), "fadd", [1.5, 2.25])
        assert result == 3.75
        assert machine.heap.allocations["number-box"] >= 3  # 2 args + result

    def test_jumps(self):
        code = CodeObject("sign", [
            ins("UNBOX", reg(0), frame_arg(0)),
            ins("CMPBR", ("imm", "lt"), reg(0), imm(0), label_ref("neg")),
            ins("RET", imm(sym("non-negative"))),
            ins("RET", imm(sym("negative"))),
        ], labels={"neg": 3})
        result, _ = run(make_program(sign=code), "sign", [5])
        assert result is sym("non-negative")
        result, _ = run(make_program(sign=code), "sign", [-5])
        assert result is sym("negative")

    def test_fell_off_end_traps(self):
        code = CodeObject("bad", [ins("NOP")])
        with pytest.raises(MachineError):
            run(make_program(bad=code), "bad", [])

    def test_fuel_exhaustion(self):
        code = CodeObject("spin", [ins("JMP", label_ref("top"))],
                          labels={"top": 0})
        with pytest.raises(MachineError):
            run(make_program(spin=code), "spin", [], fuel=100)

    def test_fuel_override_is_per_call(self):
        # Regression: run(fuel=N) used to overwrite self.fuel for good, so
        # one tightly budgeted call silently shrank the allowance of every
        # later call on the same machine.
        spin = CodeObject("spin", [ins("JMP", label_ref("top"))],
                          labels={"top": 0})
        k = CodeObject("k", [ins("RET", imm(42))])
        machine = Machine(make_program(spin=spin, k=k), fuel=10_000)
        with pytest.raises(MachineError):
            machine.run(sym("spin"), [], fuel=5)
        assert machine.fuel == 10_000  # restored, not stuck at 5
        # A call needing more than the transient override still succeeds.
        assert machine.run(sym("k"), []) == 42
        with pytest.raises(MachineError):
            machine.run(sym("spin"), [])  # constructor budget still enforced


class TestFuelPerRun:
    """A machine budgets ``fuel`` instructions per run, not over its
    lifetime: a reused machine (the REPL keeps one per session) must not
    run out after a few calls."""

    SOURCE = "(defun g (n) (if (= n 0) 0 (+ 1 (g (- n 1)))))"

    def compiled(self, tier):
        from repro import Compiler, CompilerOptions

        compiler = Compiler(CompilerOptions(tier=tier))
        compiler.compile_source(self.SOURCE)
        probe = compiler.machine()
        assert probe.run(sym("g"), [10]) == 10
        return compiler, probe.instructions

    @pytest.mark.parametrize("tier", TIERS)
    def test_reused_machine_budgets_each_run(self, tier):
        compiler, need = self.compiled(tier)
        machine = compiler.machine(fuel=2 * need)
        for _ in range(6):
            assert machine.run(sym("g"), [10]) == 10
        assert machine.instructions == 6 * need

    @pytest.mark.parametrize("tier", TIERS)
    def test_fuel_override_on_a_reused_machine(self, tier):
        compiler, need = self.compiled(tier)
        machine = compiler.machine()
        for _ in range(6):
            assert machine.run(sym("g"), [10], fuel=2 * need) == 10
        with pytest.raises(MachineError, match="budget exhausted"):
            machine.run(sym("g"), [10], fuel=need // 2)
        assert machine.run(sym("g"), [10], fuel=2 * need) == 10


class TestCalls:
    def test_call_and_return(self):
        double = CodeObject("double", [
            ins("ALLOCTEMPS", imm(0)),
            ins("ADD", reg(0), frame_arg(0), frame_arg(0)),
            ins("RET", reg(0)),
        ])
        main = CodeObject("main", [
            ins("ALLOCTEMPS", imm(0)),
            ins("PUSH", imm(21)),
            ins("CALL", global_ref(sym("double")), imm(1)),
            ins("POP", reg(0)),
            ins("RET", reg(0)),
        ])
        result, _ = run(make_program(double=double, main=main), "main", [])
        assert result == 42

    def test_argcheck_traps(self):
        f = CodeObject("f", [
            ins("ARGCHECK", imm(2), imm(2)),
            ins("RET", frame_arg(0)),
        ])
        with pytest.raises(WrongNumberOfArgumentsError):
            run(make_program(f=f), "f", [1])

    def test_generic_primitive_via_call(self):
        main = CodeObject("main", [
            ins("ALLOCTEMPS", imm(0)),
            ins("PUSH", imm(1)),
            ins("PUSH", imm(2)),
            ins("CALL", global_ref(sym("+")), imm(2)),
            ins("POP", reg(0)),
            ins("RET", reg(0)),
        ])
        result, _ = run(make_program(main=main), "main", [])
        assert result == 3

    def test_tail_call_constant_stack(self):
        countdown = CodeObject("countdown", [
            ins("ALLOCTEMPS", imm(0)),
            ins("CMPBR", ("imm", "eq"), frame_arg(0), imm(0),
                label_ref("done")),
            ins("SUB", reg(0), frame_arg(0), imm(1)),
            ins("PUSH", reg(0)),
            ins("TAILCALL", global_ref(sym("countdown")), imm(1)),
            ins("RET", imm(sym("done"))),
        ], labels={"done": 5})
        result, machine = run(make_program(countdown=countdown),
                              "countdown", [20000])
        assert result is sym("done")
        assert machine.max_stack < 50  # constant-depth iteration

    def test_argdispatch(self):
        f = CodeObject("f", [
            ins("ARGDISPATCH", imm([(1, "one"), (2, "two")])),
            # one arg: expand frame to two, default second to 99
            ins("ARGEXPAND", imm(2)),
            ins("ALLOCTEMPS", imm(0)),
            ins("MOV", frame_arg(1), imm(99)),
            ins("JMP", label_ref("body")),
            # two args
            ins("ARGEXPAND", imm(2)),
            ins("ALLOCTEMPS", imm(0)),
            ins("ADD", reg(0), frame_arg(0), frame_arg(1)),
            ins("RET", reg(0)),
        ], labels={"one": 1, "two": 5, "body": 7})
        program = make_program(f=f)
        assert run(program, "f", [1])[0] == 100
        assert run(program, "f", [1, 2])[0] == 3

    def test_restcollect(self):
        f = CodeObject("f", [
            ins("RESTCOLLECT", imm(1)),
            ins("ALLOCTEMPS", imm(0)),
            ins("RET", frame_arg(1)),
        ])
        result, _ = run(make_program(f=f), "f", [1, 2, 3, 4])
        assert to_list(result) == [2, 3, 4]


class TestPdlNumbers:
    def test_pdlbox_creates_stack_pointer(self):
        f = CodeObject("f", [
            ins("ALLOCTEMPS", imm(2)),
            ins("UNBOX", reg(0), frame_arg(0)),
            ins("FADD", reg(0), reg(0), reg(0)),
            ins("PDLBOX", reg(1), temp(0), reg(0)),
            # Pass the pdl pointer to a safe generic operation.
            ins("GENERIC", name_ref(sym("numberp")), reg(2), reg(1)),
            ins("RET", reg(2)),
        ])
        result, machine = run(make_program(f=f), "f", [2.0])
        assert result is T
        # No heap box was made for the intermediate (only the boxed arg).
        assert machine.heap.allocations["number-box"] == 1

    def test_pdl_pointer_certified_on_return(self):
        f = CodeObject("f", [
            ins("ALLOCTEMPS", imm(1)),
            ins("UNBOX", reg(0), frame_arg(0)),
            ins("PDLBOX", reg(1), temp(0), reg(0)),
            ins("RET", reg(1)),
        ])
        result, machine = run(make_program(f=f), "f", [3.5])
        assert result == 3.5
        assert machine.heap.certifications == 1

    def test_unsafe_generic_certifies(self):
        f = CodeObject("f", [
            ins("ALLOCTEMPS", imm(1)),
            ins("UNBOX", reg(0), frame_arg(1)),
            ins("PDLBOX", reg(1), temp(0), reg(0)),
            # rplaca is unsafe: the pdl pointer must be copied to the heap.
            ins("GENERIC", name_ref(sym("rplaca")), reg(2), frame_arg(0),
                reg(1)),
            ins("GENERIC", name_ref(sym("car")), reg(3), frame_arg(0)),
            ins("RET", reg(3)),
        ])
        from repro.datum import cons

        result, machine = run(make_program(f=f), "f", [cons(1, NIL), 9.5])
        assert result == 9.5
        assert machine.heap.certifications == 1

    def test_fixnums_never_boxed(self):
        f = CodeObject("f", [
            ins("ALLOCTEMPS", imm(1)),
            ins("ADD", reg(0), frame_arg(0), imm(1)),
            ins("BOXF", reg(1), reg(0)),
            ins("RET", reg(1)),
        ])
        result, machine = run(make_program(f=f), "f", [41])
        assert result == 42
        assert machine.heap.allocations["number-box"] == 0


class TestClosures:
    def test_closure_capture_and_call(self):
        # make-adder: returns closure adding its captured arg.
        make_adder = CodeObject("make-adder", [
            ins("ALLOCTEMPS", imm(0)),
            ins("CLOSURE", reg(0), label_ref("adder-entry"), frame_arg(0)),
            ins("RET", reg(0)),
            # adder body: env[0] + arg0
            ins("ALLOCTEMPS", imm(0)),
            ins("ENVREF", reg(1), imm(0)),
            ins("ADD", reg(0), reg(1), frame_arg(0)),
            ins("RET", reg(0)),
        ], labels={"adder-entry": 3})
        main = CodeObject("main", [
            ins("ALLOCTEMPS", imm(1)),
            ins("PUSH", imm(10)),
            ins("CALL", global_ref(sym("make-adder")), imm(1)),
            ins("POP", temp(0)),
            ins("PUSH", imm(32)),
            ins("CALLF", temp(0), imm(1)),
            ins("POP", reg(0)),
            ins("RET", reg(0)),
        ])
        result, machine = run(make_program(**{"make-adder": make_adder,
                                              "main": main}), "main", [])
        assert result == 42
        assert machine.heap.allocations["closure"] == 1

    def test_mutable_cell(self):
        f = CodeObject("f", [
            ins("ALLOCTEMPS", imm(1)),
            ins("MKCELL", temp(0), imm(0)),
            ins("CELLSET", temp(0), imm(5)),
            ins("CELLREF", reg(0), temp(0)),
            ins("RET", reg(0)),
        ])
        result, machine = run(make_program(f=f), "f", [])
        assert result == 5
        assert machine.heap.allocations["cell"] == 1

    def test_gfunc_primitive(self):
        f = CodeObject("f", [
            ins("ALLOCTEMPS", imm(0)),
            ins("GFUNC", reg(0), name_ref(sym("+"))),
            ins("PUSH", imm(1)),
            ins("PUSH", imm(2)),
            ins("CALLF", reg(0), imm(2)),
            ins("POP", reg(1)),
            ins("RET", reg(1)),
        ])
        result, _ = run(make_program(f=f), "f", [])
        assert result == 3


class TestSpecials:
    def test_bind_lookup_unbind(self):
        f = CodeObject("f", [
            ins("ALLOCTEMPS", imm(1)),
            ins("SPECBIND", name_ref(sym("*x*")), imm(42)),
            ins("SPECLOOKUP", temp(0), name_ref(sym("*x*"))),
            ins("SPECREF", reg(0), temp(0)),
            ins("SPECUNBIND", imm(1)),
            ins("RET", reg(0)),
        ])
        result, machine = run(make_program(f=f), "f", [])
        assert result == 42
        assert machine.specials.depth() == 0

    def test_cached_cell_constant_time(self):
        # One SPECLOOKUP, many SPECREFs: search work stays at one lookup.
        body = [ins("ALLOCTEMPS", imm(1)),
                ins("SPECBIND", name_ref(sym("*x*")), imm(1)),
                ins("SPECLOOKUP", temp(0), name_ref(sym("*x*")))]
        for _ in range(10):
            body.append(ins("SPECREF", reg(0), temp(0)))
        body.append(ins("SPECUNBIND", imm(1)))
        body.append(ins("RET", reg(0)))
        f = CodeObject("f", body)
        _, machine = run(make_program(f=f), "f", [])
        assert machine.specials.lookups == 1

    def test_unbound_special_traps(self):
        f = CodeObject("f", [
            ins("ALLOCTEMPS", imm(1)),
            ins("SPECLOOKUP", temp(0), name_ref(sym("*nope*"))),
            ins("SPECREF", reg(0), temp(0)),
            ins("RET", reg(0)),
        ])
        with pytest.raises(LispError):
            run(make_program(f=f), "f", [])

    def test_global_special(self):
        f = CodeObject("f", [
            ins("ALLOCTEMPS", imm(0)),
            ins("SPECGREF", reg(0), name_ref(sym("*g*"))),
            ins("RET", reg(0)),
        ])
        machine = Machine(make_program(f=f))
        machine.define_global(sym("*g*"), 77)
        assert machine.run(sym("f"), []) == 77


class TestCatchThrow:
    def test_catch_throw(self):
        f = CodeObject("f", [
            ins("ALLOCTEMPS", imm(0)),
            ins("CATCHPUSH", label_ref("caught"), imm(sym("tag"))),
            ins("GENERIC", name_ref(sym("throw")), reg(0),
                imm(sym("tag")), imm(99)),
            ins("RET", imm(sym("not-reached"))),
            # caught: thrown value is on the stack
            ins("POP", reg(0)),
            ins("RET", reg(0)),
        ], labels={"caught": 4})
        result, _ = run(make_program(f=f), "f", [])
        assert result == 99

    def test_catch_no_throw(self):
        f = CodeObject("f", [
            ins("ALLOCTEMPS", imm(0)),
            ins("CATCHPUSH", label_ref("caught"), imm(sym("tag"))),
            ins("CATCHPOP"),
            ins("RET", imm(1)),
            ins("POP", reg(0)),
            ins("RET", reg(0)),
        ], labels={"caught": 4})
        result, _ = run(make_program(f=f), "f", [])
        assert result == 1

    def test_uncaught_throw(self):
        f = CodeObject("f", [
            ins("ALLOCTEMPS", imm(0)),
            ins("GENERIC", name_ref(sym("throw")), reg(0),
                imm(sym("zap")), imm(1)),
            ins("RET", imm(0)),
        ])
        with pytest.raises(LispError):
            run(make_program(f=f), "f", [])


class TestGc:
    def test_collect_reclaims_garbage(self):
        body = [ins("ALLOCTEMPS", imm(0))]
        for _ in range(50):
            body.append(ins("GENERIC", name_ref(sym("cons")), reg(0),
                            imm(1), imm(2)))
        body.append(ins("GC"))
        body.append(ins("RET", imm(0)))
        f = CodeObject("f", body)
        _, machine = run(make_program(f=f), "f", [])
        assert machine.heap.gc_runs == 1
        assert machine.heap.gc_collected >= 49  # all but the rooted last one

    def test_live_data_survives(self):
        f = CodeObject("f", [
            ins("ALLOCTEMPS", imm(1)),
            ins("GENERIC", name_ref(sym("cons")), temp(0), imm(1), imm(2)),
            ins("GC"),
            ins("GENERIC", name_ref(sym("car")), reg(0), temp(0)),
            ins("RET", reg(0)),
        ])
        result, machine = run(make_program(f=f), "f", [])
        assert result == 1
        assert machine.heap.live_count() >= 1


class TestReviewRegressions:
    """Regressions from the session's code review."""

    def test_unbox_of_non_number_is_a_lisp_type_error(self):
        from repro import Compiler

        compiler = Compiler()
        compiler.compile_source(
            "(defun f (x) (declare (single-float x)) (*$f x x))")
        with pytest.raises(WrongTypeError):
            compiler.run("f", [sym("not-a-number")])

    def test_unbound_special_error_names_the_variable(self):
        from repro import Compiler
        from repro.errors import LispError

        compiler = Compiler()
        compiler.compile_source("(defun f () (+ *ghost* 1))")
        with pytest.raises(LispError, match=r"\*ghost\*"):
            compiler.run("f", [])

    def test_machine_usable_after_trap(self):
        from repro import Compiler
        from repro.errors import ReproError

        compiler = Compiler()
        compiler.compile_source("""
            (defun boom (x) (catch 'tag (car x)))
            (defun fine (x) (* x x))
        """)
        machine = compiler.machine()
        with pytest.raises(ReproError):
            machine.run(sym("boom"), [5])   # traps inside a catch
        # Same machine: state restored, later runs unaffected.
        assert machine.run(sym("fine"), [6]) == 36
        assert machine.catch_stack == []
        assert machine.specials.depth() == 0

    LIFECYCLE = """
        (defvar *s* 'global)
        (defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
        (defun type-trap (x) (list (car x)))
        (defun deeper (x) (list (type-trap x)))
        (defun raw-div (x y) (list (/& x y)))
        (defun throw-away (x) (list (throw 'nowhere x)))
        (defun spin (n) (do ((i 0 (1+ i))) ((= i n) 'done)))
        (defun unbound (x) (list *never-bound* x))
        (defun undefined (x) (list (frobnicate x)))
        (defun catch-bound (x) (catch 'tag (let ((*s* x)) (list (car x)))))
    """
    #: fault -> (function, args, fuel); "type" traps one call deeper.
    FAULTS = {
        "type": ("deeper", [5], None),
        "raw-division": ("raw-div", [1, 0], None),
        "uncaught-throw": ("throw-away", [1], None),
        "fuel": ("spin", [10 ** 6], 200),
        "unbound-special": ("unbound", [1], None),
        "undefined-function": ("undefined", [1], None),
        "catch-with-special": ("catch-bound", [5], None),
    }

    @pytest.mark.parametrize("timing", ["single", "pipelined"])
    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_machine_usable_after_each_trap(self, fault, tier, timing):
        from repro import Compiler, CompilerOptions
        from repro.errors import ReproError

        compiler = Compiler(CompilerOptions(tier=tier, timing=timing))
        compiler.compile_source(self.LIFECYCLE)
        machine = compiler.machine()
        function, args, fuel = self.FAULTS[fault]
        entry_serial = machine._serial
        with pytest.raises(ReproError):
            machine.run(sym(function), args, fuel=fuel)
        # Same machine: state restored, later runs unaffected.
        assert machine.halted and machine.poisoned
        assert machine.stack == []
        assert machine.catch_stack == []
        assert machine.specials.depth() == 0
        # The frames pushed since entry are dead, not leaked as live.
        pushed = range(entry_serial + 1, machine._serial + 1)
        assert len(pushed) >= 1
        assert not any(machine.frame_alive(serial) for serial in pushed)

        def charge(machine):
            before = (machine.instructions, machine.cycles,
                      machine.call_count)
            assert machine.run(sym("fib"), [10]) == 55
            return (machine.instructions - before[0],
                    machine.cycles - before[1],
                    machine.call_count - before[2])

        assert charge(machine) == charge(compiler.machine())

    def test_specials_unwound_after_trap(self):
        from repro import Compiler
        from repro.errors import ReproError

        compiler = Compiler()
        compiler.compile_source("""
            (defvar *x* 'global)
            (defun probe () *x*)
            (defun boom (*x*) (car 5))
        """)
        machine = compiler.machine()
        for name, value in compiler.global_values.items():
            machine.define_global(name, value)
        with pytest.raises(ReproError):
            machine.run(sym("boom"), [sym("inner")])
        assert machine.run(sym("probe"), []) is sym("global")


class TestFinishedMachineFreesItself:
    """A pdl number left in a register points back at its machine; once
    its frame is gone, leaving the run drops it (Section 6.3), so
    reference counting alone frees a finished machine however its last
    run ended."""

    SOURCE = """
        (defun testfn (a &optional (b 3.0) (c a))
          (prog (d (e 0.0))
            (setq d (*$f 3.0 (sin$f (*$f a b))))
            (cond ((>$f d e) (setq e (max$f d (abs$f c)))))
            (return (+$f d e))))
        (defun drive (n x)
          (do ((i 0 (1+ i)) (acc 0.0))
              ((= i n) acc)
            (setq acc (+$f acc (testfn x 0.25)))))
        (defun drive-then-fail (n x)
          (drive n x)
          (car x))
    """

    @pytest.mark.parametrize("ending", ["halt", "trap", "step"])
    @pytest.mark.parametrize("tier", TIERS)
    def test_freed_without_the_cycle_collector(self, tier, ending):
        import gc
        import weakref

        from repro import Compiler, CompilerOptions
        from repro.errors import ReproError

        compiler = Compiler(CompilerOptions(tier=tier))
        compiler.compile_source(self.SOURCE)
        machine = compiler.machine()
        gc.collect()
        gc.disable()
        try:
            if ending == "halt":
                machine.run(sym("drive"), [20, 1.5])
            elif ending == "trap":
                with pytest.raises(ReproError):
                    machine.run(sym("drive-then-fail"), [20, 1.5])
            else:
                machine.start(sym("drive"), [20, 1.5])
                while not machine.step(16):
                    pass
            finished = weakref.ref(machine)
            del machine
            assert finished() is None
        finally:
            gc.enable()


class TestStartResetsCounters:
    """Regression: start() used to leave the per-run statistics counters
    holding the previous run's values, so the second of two sequential
    start()/step() runs reported cumulative (inflated) counts."""

    def _drive(self, machine, name, args):
        machine.start(sym(name), args)
        while not machine.halted:
            machine.step(16)
        return (machine.instructions, machine.cycles, machine.call_count,
                machine.max_stack, dict(machine.opcode_counts))

    def test_two_started_runs_report_independent_counts(self):
        from repro import Compiler

        compiler = Compiler()
        compiler.compile_source(
            "(defun fact (n) (if (< n 2) 1 (* n (fact (- n 1)))))")
        machine = compiler.machine()
        first = self._drive(machine, "fact", [8])
        second = self._drive(machine, "fact", [8])
        assert first == second
        assert second[0] > 0

    def test_run_stays_session_cumulative(self):
        # The REPL's :stats documents run() as cumulating across calls;
        # only start() resets.
        from repro import Compiler

        compiler = Compiler()
        compiler.compile_source("(defun sq (x) (* x x))")
        machine = compiler.machine()
        machine.run(sym("sq"), [3])
        after_one = machine.instructions
        machine.run(sym("sq"), [3])
        assert machine.instructions == 2 * after_one


class TestUndefinedEntryFunction:
    """Starting a run at a function the program does not define raises
    the UndefinedFunctionError a CALL to it raises, before the run
    touches the machine, which stays usable."""

    def test_run_start_and_compiler_run_raise_undefined_function_error(self):
        from repro import Compiler
        from repro.errors import UndefinedFunctionError

        compiler = Compiler()
        compiler.compile_source("(defun f (x) (* x 3))")
        with pytest.raises(UndefinedFunctionError,
                           match="undefined function nope"):
            compiler.run("nope")
        for tier in TIERS:
            machine = compiler.machine()
            machine.tier = tier
            with pytest.raises(UndefinedFunctionError,
                               match="undefined function nope"):
                machine.run(sym("nope"), [])
            with pytest.raises(UndefinedFunctionError,
                               match="undefined function nope"):
                machine.start(sym("nope"), [])
            assert machine.run(sym("f"), [4]) == 12
            assert machine.stack == [] and not machine.poisoned


class TestRawOpFaults:
    """Every raw arithmetic opcode, on operands at the edges of its
    domain, either computes or raises a ReproError, on both tiers: never
    the host's ValueError, OverflowError, ZeroDivisionError or
    TypeError (a complex operand where a real is needed is a
    WrongTypeError)."""

    OPERANDS = [0, -0.0, 1, -1, 1e308, -1e308, float("inf"), float("-inf"),
                float("nan"), 10 ** 400, 1 + 2j]

    @staticmethod
    def program(opcode):
        # UNBOX the (boxed) arguments into raw registers, apply the
        # opcode, box the raw result and return it.
        from repro.machine.isa import RAW_UNARY_OPS

        if opcode in RAW_UNARY_OPS:
            body = [ins("UNBOX", reg(1), frame_arg(0)),
                    ins(opcode, reg(0), reg(1))]
        else:
            body = [ins("UNBOX", reg(1), frame_arg(0)),
                    ins("UNBOX", reg(2), frame_arg(1)),
                    ins(opcode, reg(0), reg(1), reg(2))]
        code = CodeObject("op", [ins("ALLOCTEMPS", imm(0))] + body
                          + [ins("BOXF", reg(0), reg(0)),
                             ins("RET", reg(0))])
        return make_program(op=code)

    def test_every_raw_op_raises_only_repro_errors(self):
        from itertools import product

        from repro.errors import ReproError
        from repro.machine.cpu import _raw_binary_checked, _raw_unary_checked
        from repro.machine.isa import RAW_BINARY_OPS, RAW_UNARY_OPS

        cases = [(op, (x,)) for op in sorted(RAW_UNARY_OPS)
                 for x in self.OPERANDS]
        cases += [(op, pair) for op in sorted(RAW_BINARY_OPS)
                  for pair in product(self.OPERANDS, repeat=2)]
        faults = 0
        for opcode, args in cases:
            checked = (_raw_unary_checked if len(args) == 1
                       else _raw_binary_checked)
            try:
                checked(opcode, *args)
            except ReproError:
                faults += 1
        assert faults > 100
        for tier in TIERS:
            programs = {opcode: self.program(opcode)
                        for opcode in RAW_UNARY_OPS | RAW_BINARY_OPS}
            for opcode, args in cases:
                machine = Machine(programs[opcode], tier=tier)
                try:
                    machine.run(sym("op"), list(args))
                except ReproError:
                    pass

    @pytest.mark.parametrize("opcode, args, error, message", [
        ("FSIN", [float("inf")], LispError, "FSIN: argument out of domain"),
        ("FCOSR", [float("-inf")], LispError,
         "FCOSR: argument out of domain"),
        ("FSIN", [1e308], LispError, "FSIN: argument out of domain"),
        ("FIX", [float("nan")], LispError, "FIX: argument out of domain"),
        ("FIX", [float("inf")], LispError, "FIX: result out of range"),
        ("FLOG", [0.0], LispError, "FLOG: argument out of domain"),
        ("FEXP", [1e308], LispError, "FEXP: result out of range"),
        ("FLT", [10 ** 400], LispError, "FLT: result out of range"),
        ("FADD", [10 ** 400, 1.0], LispError, "FADD: result out of range"),
        ("MOD", [5, 0], LispError, "MOD: division by zero"),
        ("REM", [5, 0], LispError, "REM: division by zero"),
        ("FIX", [1 + 2j], WrongTypeError, "FIX: not a real number"),
        ("FMAX", [1 + 2j, 1.0], WrongTypeError, "FMAX: not a real number"),
        ("DIV", [5, 0], DivisionByZeroError, "DIV: division by zero"),
        ("FDIV", [1.0, 0.0], DivisionByZeroError, "FDIV: division by zero"),
    ])
    def test_fault_names_its_opcode_on_both_tiers(self, opcode, args, error,
                                                  message):
        for tier in TIERS:
            machine = Machine(self.program(opcode), tier=tier)
            with pytest.raises(error, match=message):
                machine.run(sym("op"), args)
            assert not machine.stack

    def test_immediate_operand_faults_on_both_tiers(self):
        code = CodeObject("op", [ins("ALLOCTEMPS", imm(0)),
                                 ins("FLT", reg(0), imm(10 ** 400)),
                                 ins("BOXF", reg(0), reg(0)),
                                 ins("RET", reg(0))])
        for tier in TIERS:
            with pytest.raises(LispError, match="FLT: result out of range"):
                Machine(make_program(op=code), tier=tier).run(sym("op"), [])


class TestUndefinedLabel:
    """A branch to a label its CodeObject does not define is an internal
    fault: a MachineError naming the label, on both tiers, and the
    machine stays usable."""

    @pytest.mark.parametrize("opcode, operands", [
        ("JMP", (label_ref("nowhere"),)),
        ("JUMPNIL", (imm(NIL), label_ref("nowhere"))),
        ("JUMPNNIL", (imm(T), label_ref("nowhere"))),
        ("CMPBR", (imm("lt"), imm(1), imm(2), label_ref("nowhere"))),
        ("EQLBR", (imm(1), imm(1), label_ref("nowhere"))),
        ("CATCHPUSH", (label_ref("nowhere"), imm(sym("tag")))),
    ])
    def test_branch_to_missing_label_is_machine_error(self, opcode,
                                                      operands):
        code = CodeObject("f", [ins(opcode, *operands), ins("RET", imm(1))])
        ok = CodeObject("ok", [ins("RET", imm(2))])
        for tier in TIERS:
            machine = Machine(make_program(f=code, ok=ok), tier=tier)
            with pytest.raises(MachineError,
                               match="^undefined label nowhere in f$"):
                machine.run(sym("f"), [])
            assert machine.poisoned and machine.stack == []
            assert machine.run(sym("ok"), []) == 2


def _bench_program(name):
    """The source of the benchmark's ``bench/programs/NAME.lisp``."""
    import os

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "bench", "programs", f"{name}.lisp"),
              encoding="utf-8") as handle:
        return handle.read()


class TestSteppingGranularity:
    """run() and start() + step(q) drive the simulate tier's one stepping
    loop, so every granularity gives the same value or error and the same
    counts, GC points included, under both timings with the observer off
    and on."""

    LOOP = "(defun f (n) (do ((i 0 (+ i 1)) (acc 0 (+ acc i))) ((> i n) acc)))"
    DEEP = ("(defun deep (n) (if (zerop n) (car n) (list (deep (- n 1)))))"
            "(defun f (n) (cons 1 (deep n)))")
    #: name -> (bench program or source, prelude, function, args,
    #: gc_threshold, fuel, the error class the run ends in or None)
    PROGRAMS = {
        "sort-drive/gc5": ("sort-drive", True, "sort-drive", [1, 32, 7], 5,
                           None, None),
        "sort-drive/gc200": ("sort-drive", True, "sort-drive", [3, 64, 7],
                             200, None, None),
        "testfn-drive": ("testfn", False, "drive", [30, 1.3], None, None,
                         None),
        "trap": (DEEP, False, "f", [12], None, None, WrongTypeError),
        "fuel": (LOOP, False, "f", [10 ** 6], None, 1000, MachineError),
    }

    @staticmethod
    def _outcome(machine, function, args, quantum):
        from repro.errors import ReproError
        from repro.reader.printer import write_to_string

        try:
            if quantum is None:
                value = machine.run(sym(function), args)
            else:
                machine.start(sym(function), args)
                while not machine.step(quantum):
                    pass
                value = machine.machine_to_lisp(machine.result)
            result = ("value", write_to_string(value))
        except ReproError as error:
            result = (type(error), str(error))
        outcome = (result, machine.instructions, machine.cycles,
                   machine.stall_cycles(), dict(machine.opcode_counts),
                   machine.call_count, machine.max_stack,
                   machine.heap.gc_runs, machine.heap.gc_collected)
        if machine.telemetry is not None:
            assert machine.telemetry.attributed_cycles() == machine.cycles
            outcome += (machine.telemetry.instruction_ledger(),)
        return outcome

    @pytest.mark.parametrize("observed", (False, True),
                             ids=("observer-off", "observer-on"))
    @pytest.mark.parametrize("timing", TIMINGS)
    @pytest.mark.parametrize("program", PROGRAMS)
    def test_every_granularity_agrees(self, program, timing, observed):
        from repro import Compiler

        source, prelude, function, args, threshold, fuel, error = \
            self.PROGRAMS[program]
        compiler = Compiler()
        if prelude:
            compiler.load_prelude()
        compiler.compile_source(
            source if source.startswith("(") else _bench_program(source))
        outcomes = []
        for quantum in (None, 1, 7, 10 ** 6):
            machine = compiler.machine(fuel=fuel or 50_000_000)
            assert machine.tier == "simulate"
            machine.gc_threshold = threshold
            machine.set_timing(timing)
            if observed:
                machine.enable_telemetry()
            outcomes.append(self._outcome(machine, function, args, quantum))
        (kind, _), instructions = outcomes[0][0], outcomes[0][1]
        assert kind == (error or "value")
        assert instructions > 0
        if threshold is not None:
            assert outcomes[0][7] > 0  # the collector ran
        for quantum, outcome in zip((1, 7, 10 ** 6), outcomes[1:]):
            assert outcome == outcomes[0], quantum
