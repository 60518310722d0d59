"""P8 -- the paper's declared future work: type declarations driving the
rewrite of generic operators into type-specific ones.

"A system of optional type declarations for variables will eventually allow
the compiler to make the usual type deductions without requiring every
operation to be type-annotated, but this has not yet been implemented."

We implemented it (``enable_type_specialization``, off by default to stay
paper-faithful).  The measured shape: a numeric kernel written with
*generic* operators plus declarations reaches the same cost as one written
with explicit ``$f`` operators.
"""

import pytest

from conftest import run_config
from repro import CompilerOptions

GENERIC_KERNEL = """
    (defun horner (x n)
      ;; Generic +/* -- only the declaration says x is a float.
      (declare (single-float x))
      (let ((acc 0.0))
        (dotimes (i n acc)
          (setq acc (+ (* acc x) 1.0)))))
"""

EXPLICIT_KERNEL = """
    (defun horner (x n)
      (declare (single-float x))
      (let ((acc 0.0))
        (dotimes (i n acc)
          (setq acc (+$f (*$f acc x) 1.0)))))
"""

ITERS = 50


def test_p8_specialization_closes_the_gap(benchmark, table):
    result_plain, plain = run_config(GENERIC_KERNEL, "horner", [0.5, ITERS])
    result_spec, specialized = run_config(
        GENERIC_KERNEL, "horner", [0.5, ITERS],
        CompilerOptions(enable_type_specialization=True))
    result_explicit, explicit = run_config(
        EXPLICIT_KERNEL, "horner", [0.5, ITERS])

    assert result_plain == pytest.approx(result_spec)
    assert result_spec == pytest.approx(result_explicit)

    rows = [
        ("generic ops, no specialization", plain["cycles"],
         plain["heap_allocations"].get("number-box", 0)),
        ("generic ops + declarations + specialization",
         specialized["cycles"],
         specialized["heap_allocations"].get("number-box", 0)),
        ("explicit $f operators (paper's style)", explicit["cycles"],
         explicit["heap_allocations"].get("number-box", 0)),
    ]
    table(f"P8: Horner x{ITERS}, generic vs specialized vs explicit",
          ["configuration", "cycles", "heap boxes"], rows)

    # The rewrite closes most of the gap to hand-annotated code.
    assert specialized["cycles"] < plain["cycles"]
    assert specialized["cycles"] <= explicit["cycles"] * 1.25

    benchmark(lambda: run_config(
        GENERIC_KERNEL, "horner", [0.5, 20],
        CompilerOptions(enable_type_specialization=True))[0])


def test_p8_rewrites_visible_in_source(benchmark, table):
    """The transformation is a source-level rewrite (META-TYPE-SPECIALIZE),
    so it shows in the back-translated program and the transcript."""
    from repro import Compiler
    from repro.datum import sym

    compiler = Compiler(CompilerOptions(enable_type_specialization=True))
    compiler.compile_source(
        "(defun f (x y) (declare (single-float x) (single-float y))"
        " (+ (* x y) 1.0))")
    compiled = compiler.functions[sym("f")]
    fired = compiled.transcript.rules_fired()
    rows = [("META-TYPE-SPECIALIZE fired",
             fired.count("META-TYPE-SPECIALIZE")),
            ("optimized source", compiled.optimized_source)]
    table("P8: source-level rewrite", ["item", "value"], rows)
    assert "META-TYPE-SPECIALIZE" in fired
    assert "+$f" in compiled.optimized_source
    assert "*$f" in compiled.optimized_source

    benchmark(lambda: compiled.optimized_source)


def test_p8_no_unsound_specialization(benchmark):
    """Without declarations the generic ops must stay generic (a fixnum
    argument would otherwise break a float-specialized op)."""
    from repro import Compiler
    from repro.datum import sym

    compiler = Compiler(CompilerOptions(enable_type_specialization=True))
    compiler.compile_source("(defun f (x y) (+ (* x y) 1))")
    compiled = compiler.functions[sym("f")]
    assert "$f" not in compiled.optimized_source
    # Mixed integer call still works.
    assert compiler.run("f", [3, 4]) == 13
    # And float call too (generic arithmetic).
    assert compiler.run("f", [0.5, 2.0]) == 2.0

    benchmark(lambda: compiler.run("f", [3, 4]))
