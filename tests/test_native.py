"""Tests for the native execution tier (repro.machine.native).

The native tier translates each CodeObject into generated Python, one
function per basic block.  These tests pin down (a) the translator's
block-splitting rules, (b) exact agreement with the reference simulator
-- results AND the accounting totals (instructions, cycles, opcode
counts, calls, stack high-water) -- across calls, floats, closures,
catch/throw, and specials, and (c) the tier's block-granular contracts:
fuel, GC safepoints, quantum stepping, and profiling totals.
"""

import pytest

from repro import Compiler, CompilerOptions
from repro.cache import CompilationCache, cache_key
from repro.datum import NIL, T, lisp_equal, sym
from repro.errors import MachineError, ReproError
from repro.machine import (
    CodeObject,
    Instruction,
    Machine,
    NativeCode,
    Program,
    TIERS,
    frame_arg,
    imm,
    label_ref,
    reg,
    temp,
    translate,
)
from repro.options import NON_SEMANTIC_OPTION_FIELDS


def ins(opcode, *operands):
    return Instruction(opcode, tuple(operands), None)


def machines_for(source, options=None, fuel=50_000_000):
    """One compilation, one machine per tier (the tiers share the very
    same CodeObjects)."""
    compiler = Compiler(options or CompilerOptions())
    compiler.compile_source(source)
    sim = compiler.machine(fuel=fuel)
    sim.tier = "simulate"
    nat = compiler.machine(fuel=fuel)
    nat.tier = "native"
    return sim, nat


def assert_tier_parity(source, fn, args, options=None):
    """Run under both tiers; results and every accounting total must be
    identical for completed runs."""
    sim, nat = machines_for(source, options)
    expected = sim.run(sym(fn), list(args))
    got = nat.run(sym(fn), list(args))
    assert lisp_equal(expected, got), (
        f"{fn}{tuple(args)}: simulate={expected!r} native={got!r}")
    assert sim.instructions == nat.instructions
    assert sim.cycles == nat.cycles
    assert dict(sim.opcode_counts) == dict(nat.opcode_counts)
    assert sim.call_count == nat.call_count
    assert sim.max_stack == nat.max_stack
    assert sim.heap.total_allocations() == nat.heap.total_allocations()
    return got, sim, nat


# ---------------------------------------------------------------------------
# translator structure


class TestBlockSplitting:
    def test_single_block_for_straight_line(self):
        code = CodeObject("k", [ins("ALLOCTEMPS", imm(0)),
                                ins("MOV", reg(0), imm(3)),
                                ins("RET", reg(0))])
        native = translate(code)
        assert isinstance(native, NativeCode)
        assert native.block_starts == [0]
        assert native.blocks[0].count == 3

    def test_split_at_label_target_and_after_branch(self):
        code = CodeObject("g", [
            ins("ALLOCTEMPS", imm(0)),               # 0
            ins("JUMPNIL", frame_arg(0), label_ref("no")),   # 1 (terminator)
            ins("MOV", reg(0), imm(1)),              # 2 (post-terminator)
            ins("RET", reg(0)),                      # 3
            ins("MOV", reg(0), imm(2)),              # 4 ("no": label target)
            ins("RET", reg(0)),                      # 5
        ], labels={"no": 4})
        native = translate(code)
        assert native.block_starts == [0, 2, 4]
        # Block boundaries partition the stream.
        assert native.blocks[0].count == 2
        assert native.blocks[2].count == 2
        assert native.blocks[4].count == 2

    def test_call_and_ret_are_terminators(self):
        code = CodeObject("h", [
            ins("ALLOCTEMPS", imm(0)),               # 0
            ins("PUSH", imm(1)),                     # 1
            ins("CALL", ("global", sym("f")), imm(1)),   # 2 (terminator)
            ins("POP", reg(0)),                      # 3
            ins("RET", reg(0)),                      # 4
        ])
        native = translate(code)
        assert native.block_starts == [0, 3]

    def test_lock_gets_its_own_block(self):
        # LOCK spins by re-dispatching itself: it must be a leader.
        code = CodeObject("l", [
            ins("ALLOCTEMPS", imm(0)),               # 0
            ins("MOV", reg(0), imm(1)),              # 1
            ins("LOCK", imm(sym("mutex"))),          # 2 (leader + terminator)
            ins("UNLOCK", imm(sym("mutex"))),        # 3
            ins("RET", reg(0)),                      # 4
        ])
        native = translate(code)
        assert 2 in native.block_starts
        assert native.blocks[2].count == 1

    def test_static_accounting_matches_cost_table(self):
        code = CodeObject("k", [ins("MOV", reg(0), imm(3)),
                                ins("RET", reg(0))])
        native = translate(code, cycle_costs={"MOV": 7, "RET": 11})
        assert native.blocks[0].cycles == 18
        assert native.blocks[0].opcodes == {"MOV": 1, "RET": 1}

    def test_generated_source_is_kept(self):
        code = CodeObject("k", [ins("RET", imm(42))])
        native = translate(code)
        assert "def _blk_0" in native.source

    def test_translate_does_not_mutate_code(self):
        code = CodeObject("k", [ins("RET", imm(42))])
        before = list(code.instructions)
        translate(code)
        assert code.instructions == before


# ---------------------------------------------------------------------------
# tier parity on compiled programs


class TestTierParity:
    def test_fib(self):
        assert_tier_parity(
            "(defun fib (n) (if (< n 2) n"
            " (+ (fib (- n 1)) (fib (- n 2)))))",
            "fib", [15])

    def test_float_pipeline(self):
        assert_tier_parity(
            "(defun norm (x y) (declare (single-float x y))"
            " (+$f (*$f x y) (*$f y x)))",
            "norm", [3.0, 1.5])

    def test_generic_loop(self):
        assert_tier_parity(
            "(defun tri (n) (do ((i 0 (+ i 1)) (acc 0 (+ acc i)))"
            " ((> i n) acc)))",
            "tri", [250])

    def test_closures(self):
        assert_tier_parity(
            "(defun adder (n) (lambda (k) (+ n k)))"
            "(defun use (a b) (funcall (adder a) b))",
            "use", [30, 12])

    def test_specials(self):
        assert_tier_parity(
            "(defvar *depth* 0)"
            "(defun probe () *depth*)"
            "(defun dive (n) (let ((*depth* n)) (probe)))",
            "dive", [9])

    def test_catch_throw(self):
        assert_tier_parity(
            "(defun find (n) (catch 'out (hunt n)))"
            "(defun hunt (n)"
            "  (dotimes (i n 'missed)"
            "    (if (> i 5) (throw 'out i) nil)))",
            "find", [20])

    LOOP = "(defun f (n) (do ((i 0 (+ i 1)) (acc 0 (+ acc i))) ((> i n) acc)))"
    #: One fault contract, kind by kind: (kind, program, entry function,
    #: argument, an opcode the fault goes through, fuel).  Every program
    #: also defines FOLLOW_UP, run after the trap on the same machine.
    FAULTS = [
        ("wrong type", "(defun f (x) (car x))", "f", 1, "GENERIC", None),
        ("wrong type mid-block, after a let",
         "(defun f (x) (let ((p (* x 2)) (q (+ x 3))) (+ p q (car x))))",
         "f", 1, "GENERIC", None),
        ("wrong type seven frames deep",
         "(defun d0 (x) (car x))" + "".join(
             f"(defun d{k} (x) (list (d{k - 1} x)))" for k in range(1, 7))
         + "(defun f (x) (list (d6 x)))", "f", 1, "CALL", None),
        ("wrong type via a vector instruction", "(defun f (x) (vsum$f x))",
         "f", 5, "VSUM", None),
        ("wrong type via APPLYF", "(defun f (x) (apply #'+ 1 x))", "f", 5,
         "APPLYF", None),
        ("unbound special", "(defun f (x) (list zz x))", "f", 1,
         "SPECREF", None),
        ("undefined function via CALL", "(defun f (x) (list (nope x)))",
         "f", 1, "CALL", None),
        ("undefined function via TAILCALL", "(defun f (x) (nope x))",
         "f", 1, "TAILCALL", None),
        ("undefined function via GFUNC", "(defun f (x) (list #'nope x))",
         "f", 1, "GFUNC", None),
        ("undefined entry function", "", "nope", 1, None, None),
        ("wrong argument count",
         "(defun g (a b) (+ a b)) (defun f (x) (funcall #'g x))", "f", 1,
         "TAILCALL", None),
        ("wrong argument count to a primitive",
         "(defun h (g x) (funcall g x x)) (defun f (x) (h #'car x))", "f",
         1, "GFUNC", None),
        ("division by zero via a primitive", "(defun f (x) (/ x 0))", "f",
         1, "GENERIC", None),
        ("division by zero via DIV", "(defun f (x) (list (/& x 0)))", "f",
         1, "DIV", None),
        ("division by zero via FDIV", "(defun f (x) (/$f (float x) 0.0))",
         "f", 1, "FDIV", None),
        ("uncaught throw", "(defun f (x) (throw 'tag x))", "f", 1,
         "GENERIC", None),
        ("not a function", "(defun f (x) (funcall x 1))", "f", 5,
         "TAILCALLF", None),
        ("vector index out of bounds",
         "(defun f (x) (vref (make-vector 3 0) x))", "f", 7, "GENERIC",
         None),
        ("integer beyond the float range", "(defun f (x) (+ (expt x 400) 1.0))",
         "f", 10, "GENERIC", None),
        # At fuel 6 the budget runs out on the loop's test, a leader the
        # block before falls into with an s1 data-hazard stall.
        ("fuel on a fall-through leader", LOOP, "f", 10 ** 6, None, 6),
        ("fuel", LOOP, "f", 10 ** 6, None, 1000),
    ]
    FOLLOW_UP = "(defun ok (n) (if (< n 2) n (+ (ok (- n 1)) (ok (- n 2)))))"

    @staticmethod
    def _fault_run(machine, function, arg, fuel, drive):
        """Run until the fault; (class, message, counts[, observer])."""
        budget = machine.fuel
        with pytest.raises(ReproError) as caught:
            if drive == "run":
                machine.run(sym(function), [arg], fuel=fuel)
            else:
                machine.fuel = fuel or budget
                machine.start(sym(function), [arg])
                while not machine.step(3):
                    pass
        machine.fuel = budget
        error = caught.value
        outcome = (type(error), str(error), machine.instructions,
                   machine.cycles, machine.stall_cycles(),
                   dict(machine.opcode_counts))
        if machine.telemetry is not None:
            assert machine.telemetry.attributed_cycles() == machine.cycles
            outcome += (machine.telemetry.instruction_ledger(),)
        return outcome

    @staticmethod
    def _follow_up(machine, drive):
        """The result and counts of ``(ok 6)``: what it adds to a run()
        machine's totals, or its own counts after start()."""
        before = (machine.instructions, machine.cycles, machine.call_count)
        if drive == "run":
            result = machine.run(sym("ok"), [6])
        else:
            machine.start(sym("ok"), [6])
            while not machine.step(3):
                pass
            result = machine.machine_to_lisp(machine.result)
            before = (0, 0, 0)
        return (result, machine.instructions - before[0],
                machine.cycles - before[1], machine.call_count - before[2],
                machine.stall_cycles() if drive == "step" else None)

    def test_machine_trap_agrees(self):
        """Every fault kind on s1, vax and pdp10, under both timings,
        observer off and on, through run() and start()/step(): the tiers
        raise the same class and message with the same instructions,
        cycles, stalls and opcode counts (and, observed, the same ledger
        with every cycle attributed); the interpreter raises the same
        class; and a follow-up run on the trapped machine matches a fresh
        machine's."""
        from itertools import product

        from repro.interp import Interpreter

        disagreements = []
        for kind, source, function, arg, via, fuel in self.FAULTS:
            source += self.FOLLOW_UP
            if fuel is None:
                interp = Interpreter()
                interp.eval_source(source)
                with pytest.raises(ReproError) as interpreted:
                    interp.eval_source(f"({function} {arg})")
            for target in ("s1", "vax", "pdp10"):
                compiler = Compiler(CompilerOptions(target=target))
                compiler.compile_source(source)
                if via is not None:
                    assert via in {instruction.opcode for code in
                                   compiler.program.functions.values()
                                   for instruction in code.instructions}
                for timing, observed, drive in product(
                        ("single", "pipelined"), (False, True),
                        ("run", "step")):
                    outcomes = []
                    for tier in TIERS:
                        def machine():
                            made = compiler.machine()
                            made.tier = tier
                            made.set_timing(timing)
                            if observed:
                                made.enable_telemetry()
                            return made

                        trapped = machine()
                        fault = self._fault_run(trapped, function, arg,
                                                fuel, drive)
                        after = self._follow_up(trapped, drive)
                        assert after == self._follow_up(machine(), drive), (
                            kind, target, timing, observed, drive, tier)
                        outcomes.append(fault)
                    if outcomes[0] != outcomes[1]:
                        disagreements.append(
                            (kind, target, timing, observed, drive,
                             outcomes[0][:5], outcomes[1][:5]))
                    if fuel is None:
                        assert type(interpreted.value) is outcomes[0][0], (
                            kind, interpreted.value, outcomes[0][:2])
        assert not disagreements, disagreements

    def test_tail_recursion_constant_stack(self):
        _, sim, nat = assert_tier_parity(
            "(defun loopy (n) (if (zerop n) 'done (loopy (- n 1))))",
            "loopy", [30000])
        assert nat.max_stack < 30

    def test_pdl_numbers(self):
        assert_tier_parity(
            "(defun horner (x) (declare (single-float x))"
            " (+$f (*$f x (+$f (*$f x 2.0) 3.0)) 4.0))",
            "horner", [1.25],
            options=CompilerOptions(enable_pdl_numbers=True))


# ---------------------------------------------------------------------------
# tier-specific machine behaviour


class TestNativeMachineBehaviour:
    LOOP = "(defun spin (n) (dotimes (i n 'done) (+ i 1)))"

    def test_unknown_tier_rejected_by_machine(self):
        with pytest.raises(MachineError, match="unknown execution tier"):
            Machine(Program(), tier="turbo")

    def test_tiers_tuple_is_public(self):
        assert TIERS == ("simulate", "native")

    def test_fuel_exhaustion_raises(self):
        compiler = Compiler()
        compiler.compile_source(self.LOOP)
        machine = compiler.machine(fuel=500)
        machine.tier = "native"
        with pytest.raises(MachineError, match="instruction budget"):
            machine.run(sym("spin"), [100000])

    def test_fuel_never_overshoots_by_more_than_one_block(self):
        compiler = Compiler()
        compiler.compile_source(self.LOOP)
        machines = []
        for tier in TIERS:
            machine = compiler.machine(fuel=500)
            machine.tier = tier
            with pytest.raises(MachineError):
                machine.run(sym("spin"), [100000])
            machines.append(machine)
        # No overshoot at all: the block that would cross the budget runs
        # on the simulator's path, so fuel runs out on the same
        # instruction with the same counts.
        sim, nat = machines
        assert nat.instructions == sim.instructions == 501
        assert nat.cycles == sim.cycles
        assert dict(nat.opcode_counts) == dict(sim.opcode_counts)

    def test_gc_safepoint_between_blocks(self):
        source = """
            (defun churn (n)
              (dotimes (i n 'done)
                (list i (* i i) (+ i 1))))
        """
        compiler = Compiler()
        compiler.compile_source(source)
        machine = Machine(compiler.program, gc_threshold=100, tier="native")
        machine.run(sym("churn"), [500])
        assert machine.heap.gc_runs >= 1
        assert machine.heap.live_count() < 300

    def test_step_quantum_makes_progress(self):
        compiler = Compiler()
        compiler.compile_source(self.LOOP)
        machine = compiler.machine()
        machine.tier = "native"
        machine.start(sym("spin"), [50])
        steps = 0
        while not machine.halted:
            before = machine.instructions
            machine.step(8)
            assert machine.instructions > before
            steps += 1
            assert steps < 10000
        assert machine.machine_to_lisp(machine.result) is sym("done")
        # Quantum stepping must agree with the free-running simulator.
        reference = compiler.machine()
        reference.run(sym("spin"), [50])
        assert machine.instructions == reference.instructions
        assert dict(machine.opcode_counts) == dict(reference.opcode_counts)

    def test_stats_mid_run_flushes_native_counts(self):
        compiler = Compiler()
        compiler.compile_source(self.LOOP)
        machine = compiler.machine()
        machine.tier = "native"
        machine.start(sym("spin"), [50])
        machine.step(8)
        stats = machine.stats()
        assert stats["instructions"] == machine.instructions
        assert sum(machine.opcode_counts.values()) == machine.instructions

    def test_translation_cached_per_code_object(self):
        # One translation per CodeObject and key: a second run on the
        # same machine and a run on a fresh machine both run the very
        # NativeCode the first run made.
        compiler = Compiler()
        compiler.compile_source(self.LOOP)
        machine = compiler.machine()
        machine.tier = "native"
        machine.run(sym("spin"), [5])
        first = machine._native_cache.copy()
        machine.run(sym("spin"), [5])
        assert machine._native_cache.keys() == first.keys()
        for key in first:
            assert machine._native_cache[key][1] is first[key][1]
        fresh = compiler.machine()
        fresh.tier = "native"
        fresh.run(sym("spin"), [5])
        assert fresh._native_cache.keys() == first.keys()
        for key in first:
            assert fresh._native_cache[key][1] is first[key][1]


# ---------------------------------------------------------------------------
# one translation per CodeObject and key, shared by every machine


def count_translations(monkeypatch):
    """Record the name of every CodeObject the translator translates (a
    translation that translate() finds stored runs no translator)."""
    from repro.machine import native

    names = []
    translate_code = native._Translator.translate

    def counting(self):
        names.append(self.code.name)
        return translate_code(self)

    monkeypatch.setattr(native._Translator, "translate", counting)
    return names


class TestSharedTranslation:
    # Calls (inline-cache cells), float arithmetic, closures and funcall
    # (simulator fallbacks) and a tail call.
    SOURCE = """
        (defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
        (defun hyp (x y) (sqrt$f (+$f (*$f x x) (*$f y y))))
        (defun twice (f x) (funcall f (funcall f x)))
        (defun drive (n)
          (+ (fib n) (fix (hyp 3.0 4.0)) (twice (lambda (v) (* v 2)) n)))
        (defun count-down (n) (if (= n 0) 'done (count-down (- n 1))))
    """

    @staticmethod
    def outcome(machine):
        result = machine.run(sym("drive"), [10])
        assert machine.run(sym("count-down"), [30]) is sym("done")
        return (result, machine.instructions, machine.cycles,
                dict(machine.opcode_counts), machine.call_count)

    @pytest.mark.parametrize("observed", [False, True],
                             ids=["plain", "observed"])
    @pytest.mark.parametrize("timing", ["single", "pipelined"])
    def test_a_fresh_machine_translates_nothing(self, monkeypatch, timing,
                                                observed):
        compiler = Compiler(CompilerOptions(tier="native", timing=timing))
        compiler.compile_source(self.SOURCE)
        translated = count_translations(monkeypatch)
        outcomes = []
        for round_ in range(3):
            machine = compiler.machine()
            if observed:
                machine.enable_telemetry()
            outcomes.append(self.outcome(machine))
            if observed:
                telemetry = machine.telemetry
                assert telemetry.attributed_cycles() == machine.cycles
            if round_ == 0:
                assert sorted(translated) == \
                    ["count-down", "drive", "fib", "hyp", "twice"]
        assert len(translated) == 5  # the later machines translated nothing
        assert outcomes[0][0] == 100
        assert outcomes[1] == outcomes[0] == outcomes[2]
        # And the shared translation computes what the simulator does.
        reference = compiler.machine()
        reference.tier = "simulate"
        assert self.outcome(reference) == outcomes[0]

    def test_configurations_never_run_each_other_s_translation(self):
        from repro.target.machines import get_target

        target = get_target("s1")
        dearer = dict(target.cycles, CALL=target.cycles["CALL"] + 7,
                      FMULT=target.cycles["FMULT"] + 3)
        configs = {
            "s1": (dict(target.cycles), "single", False),
            "dearer": (dearer, "single", False),
            "pipelined": (dict(target.cycles), "pipelined", False),
            "observed": (dict(target.cycles), "single", True),
        }
        compiler = Compiler()
        compiler.compile_source(self.SOURCE)
        fib = compiler.program.get(sym("fib"))

        def machine(config, tier):
            costs, timing, observed = configs[config]
            made = Machine(compiler.program, cycle_costs=dict(costs),
                           tier=tier, timing=timing,
                           pipeline=target.pipeline)
            if observed:
                made.enable_telemetry()
            return made

        natives = {name: set() for name in configs}
        for _ in range(2):
            for name in configs:
                simulated = self.outcome(machine(name, "simulate"))
                native = machine(name, "native")
                assert self.outcome(native) == simulated, name
                natives[name].add(id(native._native_code_for(fib)))
        assert all(len(ids) == 1 for ids in natives.values()), natives
        assert len(set().union(*natives.values())) == len(configs)
        assert len(fib._translations) == len(configs)

    def test_switching_telemetry_back_and_forth_never_retranslates(
            self, monkeypatch):
        compiler = Compiler(CompilerOptions(tier="native"))
        compiler.compile_source(self.SOURCE)
        machine = compiler.machine()
        translated = count_translations(monkeypatch)
        machine.run(sym("drive"), [10])
        machine.enable_telemetry()
        machine.run(sym("drive"), [10])
        assert len(translated) == 8  # drive, fib, hyp, twice; plain, observed
        for _ in range(2):
            machine.disable_telemetry()
            assert not machine._native_cache
            machine.run(sym("drive"), [10])
            telemetry = machine.enable_telemetry()
            before = machine.cycles
            machine.run(sym("drive"), [10])
            assert telemetry.attributed_cycles() == machine.cycles - before
        assert len(translated) == 8

    def test_programs_sharing_a_caller_each_run_their_own_callee(self):
        # The memory cache hands one CodeObject to every compiler that
        # compiles the same defun, so two programs can share a caller
        # (and its translation, inline-cache cells included) while
        # defining different callees.
        caller = Compiler()
        caller.compile_source("(defun f (x) (+ 1 (g x)))")
        f = caller.program.get(sym("f"))
        programs = []
        for body in ("(+ x 1)", "(* x 10)"):
            callee = Compiler()
            callee.compile_source(f"(defun g (x) {body})")
            program = Program()
            program.add(sym("f"), f)
            program.add(sym("g"), callee.program.get(sym("g")))
            programs.append(program)
        for _ in range(3):
            for program, want in zip(programs, (7, 51)):
                machine = Machine(program, tier="native")
                assert machine.run(sym("f"), [5]) == want
        assert len(f._translations) == 1

    def test_pickle_and_equality_ignore_the_stored_translation(self):
        import copy
        import pickle

        compiler = Compiler(CompilerOptions(tier="native"))
        compiler.compile_source(self.SOURCE)
        codes = list(compiler.program.functions.values())
        pickled = [pickle.dumps(code) for code in codes]
        shown = [repr(code) for code in codes]
        clones = [copy.deepcopy(code) for code in codes]
        compiler.machine().run(sym("drive"), [10])
        assert all(code._translations for code in codes
                   if code.name != "count-down")
        assert [pickle.dumps(code) for code in codes] == pickled
        assert [repr(code) for code in codes] == shown
        assert codes == clones
        restored = pickle.loads(pickled[0])
        assert restored == codes[0]
        assert restored._translations is None
        assert copy.copy(codes[0])._translations is None


class TestNativeProfile:
    def test_profile_totals_match_machine_counters(self):
        compiler = Compiler()
        compiler.compile_source(
            "(defun fib (n) (if (< n 2) n"
            " (+ (fib (- n 1)) (fib (- n 2)))))")
        machine = compiler.machine()
        machine.tier = "native"
        machine.enable_telemetry()
        machine.run(sym("fib"), [12])
        profile = machine.telemetry.to_json()["profile"]
        assert profile["total_instructions"] == machine.instructions
        assert profile["total_cycles"] == machine.cycles

    def test_profile_attribution_is_block_granular_but_complete(self):
        compiler = Compiler()
        compiler.compile_source("(defun sq (x) (* x x))")
        machine = compiler.machine()
        machine.tier = "native"
        machine.enable_telemetry()
        machine.run(sym("sq"), [9])
        report = machine.telemetry.profile_report()
        assert "sq" in report


# ---------------------------------------------------------------------------
# the tier is a non-semantic option


class TestTierOption:
    def test_tier_is_non_semantic(self):
        assert "tier" in NON_SEMANTIC_OPTION_FIELDS

    def test_tier_does_not_perturb_cache_key(self):
        source = "(defun f (x) (+ x 1))"
        key_sim = cache_key(source, CompilerOptions(tier="simulate"))
        key_nat = cache_key(source, CompilerOptions(tier="native"))
        assert key_sim == key_nat

    def test_unknown_tier_rejected_by_options(self):
        with pytest.raises(ValueError, match="unknown execution tier"):
            CompilerOptions(tier="turbo")

    def test_cache_replay_runs_under_both_tiers(self, tmp_path):
        """Code served from the cache must execute identically on both
        tiers: the tier must never leak into what gets cached."""
        source = "(defun triple (x) (* 3 x))"
        cache = CompilationCache(directory=tmp_path / "store")
        cold = Compiler(CompilerOptions(tier="native"), cache=cache)
        cold.compile_source(source)
        assert cold.run("triple", [5]) == 15

        for tier in TIERS:
            warm = Compiler(CompilerOptions(tier=tier), cache=cache)
            warm.compile_source(source)
            assert warm.last_diagnostics.counters.get(
                "cache_hits", 0) >= 1
            assert warm.run("triple", [7]) == 21

    def test_compiler_machine_inherits_tier(self):
        compiler = Compiler(CompilerOptions(tier="native"))
        compiler.compile_source("(defun f () 1)")
        assert compiler.machine().tier == "native"
