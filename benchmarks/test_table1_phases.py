"""T1 -- Table 1: Phase Structure of the S-1 LISP Compiler.

The paper's Table 1 lists the compiler's phases.  This bench compiles a
representative function and reproduces the phase pipeline as it actually
executed, checking that every phase of Table 1 (including the bracketed
optional ones we implemented: data-type analysis and CSE) has a counterpart.
"""

from repro import Compiler, CompilerOptions
from repro.compiler import table1_phases

SOURCE = """
    (defun representative (a &optional (b 3.0))
      (let ((d (+$f a b)))
        (if (>$f d 0.0) (frotz d) (list d))))
"""

# Table 1's phases mapped to this reproduction's pipeline stages.
PAPER_PHASES = [
    ("Preliminary (syntax, macro expansion, tree form)",
     "preliminary conversion"),
    ("Environment / side-effects / complexity / tail-recursion analysis",
     "source-program analysis"),
    ("Source-level optimization", "source-level optimization"),
    ("[Common subexpression elimination]", "common subexpression elimination"),
    ("Binding annotation", "binding annotation"),
    ("Special variable lookups", "special variable lookups"),
    ("Representation annotation", "representation annotation"),
    ("Pdl number annotation", "pdl number annotation"),
    ("Target annotation (TNBIND and PACK)", "target annotation (TNBIND/PACK)"),
    ("Code generation", "code generation"),
]


def test_table1_phase_structure(benchmark, table):
    options = CompilerOptions(enable_cse=True)

    def compile_it():
        compiler = Compiler(options)
        compiler.compile_source(SOURCE)
        return compiler

    compiler = benchmark(compile_it)
    from conftest import log_phase_timings

    log_phase_timings(compiler, "representative")
    executed = table1_phases(compiler.last_diagnostics)
    rows = []
    for paper_name, our_name in PAPER_PHASES:
        ran = "yes" if our_name in executed else "MISSING"
        rows.append((paper_name, ran))
        assert our_name in executed, f"phase not executed: {our_name}"
    # Order must match the paper's (each phase after its predecessor).
    positions = [executed.index(our) for _, our in PAPER_PHASES]
    assert positions == sorted(positions)
    table("Table 1 reproduction: phase structure (as executed)",
          ["paper phase", "executed"], rows)


def test_table1_optional_phases_skippable(benchmark):
    """The optimizer and CSE are 'completely optional': the pipeline still
    produces correct code with them off."""
    options = CompilerOptions(optimize=False, enable_cse=False)

    def compile_and_check():
        compiler = Compiler(options)
        compiler.compile_source("(defun f (x) (* x x))")
        return compiler.run("f", [6])

    assert benchmark(compile_and_check) == 36
