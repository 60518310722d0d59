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

    def test_machine_trap_agrees(self):
        source = "(defun boom (n) (car n))"
        sim, nat = machines_for(source)
        with pytest.raises(ReproError):
            sim.run(sym("boom"), [5])
        with pytest.raises(ReproError):
            nat.run(sym("boom"), [5])

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
        machine = compiler.machine(fuel=500)
        machine.tier = "native"
        with pytest.raises(MachineError):
            machine.run(sym("spin"), [100000])
        # Block granularity: the overshoot is bounded by one block, and
        # blocks are tiny (a handful of instructions).
        assert machine.instructions <= 500 + 32

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
