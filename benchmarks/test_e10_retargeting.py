"""E10 -- Section 1's retargetability claim.

"The compiler is table-driven to a great extent ... We expect to be able to
redirect the compiler to other target architectures such as the VAX or
PDP-10 with relatively little effort."  Section 5 records that Jonathan
Rees did in fact port an early version to the VAX.

We retarget the same source to three machine descriptions (S-1, a VAX-like
3-address machine, a PDP-10-like 2-address machine) and verify:

* every target's code runs and computes the same results,
* the machine-*inspired* transformation (sin$f -> sinc$f) fires only where
  the hardware sine takes cycles -- the paper's "benign but useless for
  certain other architectures" transformations are switched off, not run,
* the RT staging discipline applies only to targets that have the
  2 1/2-address constraint,
* the register pool honors each target's size,
* the Table 4 TESTFN and its prog variant stay within a per-target cycle
  budget on the simulated machine.
"""

import pytest

from repro import Compiler, CompilerOptions
from repro.datum import sym

SOURCE = """
    (defun kernel (x n)
      (declare (single-float x))
      (let ((acc 0.0))
        (dotimes (i n acc)
          (setq acc (+$f (sin$f (*$f acc x)) 1.0)))))
"""

TARGETS = ["s1", "vax", "pdp10"]


def compile_for(target):
    compiler = Compiler(CompilerOptions(target=target))
    compiler.compile_source(SOURCE)
    return compiler


def test_e10_results_agree_across_targets(benchmark, table):
    results = {}
    rows = []
    for target in TARGETS:
        compiler = compile_for(target)
        machine = compiler.machine()
        results[target] = machine.run(sym("kernel"), [0.3, 25])
        rows.append((target, f"{results[target]:.9f}",
                     machine.instructions, machine.cycles))
    table("E10: the same kernel on three targets",
          ["target", "result", "instructions", "cycles"], rows)
    # sinc uses the truncated 1/2pi constant: equal to ~7 digits, not bitwise.
    assert results["s1"] == pytest.approx(results["vax"], rel=1e-6)
    assert results["vax"] == results["pdp10"]

    benchmark(lambda: compile_for("vax").run("kernel", [0.3, 10]))


def test_e10_machine_inspired_rewrites_follow_the_target(benchmark, table):
    rows = []
    for target in TARGETS:
        compiler = compile_for(target)
        listing = compiler.functions[sym("kernel")].listing()
        source_text = compiler.functions[sym("kernel")].optimized_source
        rows.append((target,
                     "sinc$f" in source_text,
                     "0.159154942" in listing,
                     "FSINR" in listing))
    table("E10: sin->sinc fires only where hardware sine takes cycles",
          ["target", "sinc in source", "1/2pi constant", "radians FSINR"],
          rows)
    by_target = {row[0]: row for row in rows}
    assert by_target["s1"][1] and by_target["s1"][2] \
        and not by_target["s1"][3]
    assert not by_target["vax"][1] and not by_target["vax"][2] \
        and by_target["vax"][3]
    assert not by_target["pdp10"][1]

    benchmark(lambda: compile_for("s1"))


def test_e10_rt_constraint_follows_the_target(benchmark, table):
    rows = []
    for target in TARGETS:
        compiler = compile_for(target)
        code = compiler.functions[sym("kernel")].code
        uses_rt = any(
            operand == ("reg", 4) or operand == ("reg", 6)
            for instruction in code.instructions
            for operand in instruction.operands)
        rows.append((target, uses_rt, code.moves_inserted))
    table("E10: RT staging registers by target",
          ["target", "uses RTA/RTB", "legalizer MOVs"], rows)
    by_target = {row[0]: row for row in rows}
    assert by_target["s1"][1]          # the S-1 dance
    assert not by_target["vax"][1]     # true 3-address: no staging at all
    assert by_target["pdp10"][1]       # 2-address: staging again

    benchmark(lambda: None)


def test_e10_register_pool_respected(benchmark):
    """The VAX model has 16 registers: nothing above R15 is allocated."""
    compiler = compile_for("vax")
    code = compiler.functions[sym("kernel")].code
    for instruction in code.instructions:
        for operand in instruction.operands:
            if isinstance(operand, tuple) and operand[0] == "reg":
                assert operand[1] < 16 or operand[1] >= 28, (
                    f"register {operand[1]} outside the VAX pool")
    benchmark(lambda: compile_for("vax"))


def test_e10_differential_against_interpreter(benchmark):
    from repro import Interpreter

    interp = Interpreter()
    interp.eval_source(SOURCE)
    expected = interp.apply_function(
        interp.global_functions[sym("kernel")], [0.3, 25])
    for target in TARGETS:
        got = compile_for(target).run("kernel", [0.3, 25])
        assert got == pytest.approx(expected, rel=1e-6)
    benchmark(lambda: None)


# Table 4's TESTFN (Section 7) and a prog/do variant of it that is heavier
# on control flow: optional-argument defaulting, the float pipeline through
# sin$f, and a call to an undistinguished FROTZ.
TESTFN = """
    (defun frotz (d e m) nil)
    (defun testfn (a &optional (b 3.0) (c a))
      (let ((d (+$f a b c)) (e (*$f a b c)))
        (let ((q (sin$f e)))
          (frotz d e (max$f d e))
          q)))
"""

TESTFN_PROG = """
    (defun frotz (d e m) nil)
    (defun testfn (a &optional (b 3.0) (c a))
      (prog (d (e 0.0))
        (setq d (*$f 3.0 (sin$f (*$f a b))))
        (cond ((>$f d e)
               (setq e (max$f d (abs$f c)))))
        (frotz d e 0.0)
        (return (+$f d e))))
"""

#: (name, source, args, expected result or None, cycle budget per target).
#: Each budget is the measured cycle count, so a change that makes
#: TESTFN slower on any target fails here.
TESTFN_WORKLOADS = [
    ("testfn-table4", TESTFN, [0.25], 0.186403,
     {"s1": 60, "vax": 67, "pdp10": 73}),
    ("testfn-prog", TESTFN_PROG, [1.5, 0.25], None,
     {"s1": 68, "vax": 75, "pdp10": 80}),
]


def test_e10_testfn_cycles_per_target(benchmark, table):
    rows = []
    for name, source, args, expected, budget in TESTFN_WORKLOADS:
        for target in TARGETS:
            compiler = Compiler(CompilerOptions(target=target,
                                                verify_ir=True))
            compiler.compile_source(source)
            machine = compiler.machine()
            result = machine.run(sym("testfn"), list(args))
            if expected is not None:
                assert result == pytest.approx(expected, rel=1e-4), (
                    name, target, result)
            rows.append((name, target, machine.cycles, budget[target]))
            assert machine.cycles <= budget[target], (
                f"{name}/{target}: {machine.cycles} cycles > "
                f"{budget[target]}")
    table("E10: Table 4 TESTFN cycles per target",
          ["workload", "target", "cycles", "budget"], rows)

    benchmark(lambda: None)
