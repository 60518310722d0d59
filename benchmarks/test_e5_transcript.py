"""E5 -- Section 7: the compiler's optimization transcript for ``testfn``.

The paper prints the debugging transcript of the transformations applied to
testfn.  This bench regenerates the transcript and checks that the same
transformations fire, in a consistent order, with the paper's rule names:

* META-EVALUATE-ASSOC-COMMUT-CALL reduces (+$f a b c) to (+$f (+$f c b) a)
  and (*$f a b c) to (*$f (*$f c b) a),
* sin$f becomes sinc$f with the 0.159154942 factor,
* CONSIDER-REVERSING-ARGUMENTS puts the constant first,
* META-SUBSTITUTE moves q's definition past the call to frotz (legal
  because "e is lexically scoped" and sinc$f/*$f are "immutable
  mathematical functions"),
* META-CALL-LAMBDA collapses the emptied let.
"""

import pytest

from repro import Compiler
from repro.datum import sym

SOURCE = """
    (defun frotz (d e m) nil)

    (defun testfn (a &optional (b 3.0) (c a))
      (let ((d (+$f a b c)) (e (*$f a b c)))
        (let ((q (sin$f e)))
          (frotz d e (max$f d e))
          q)))
"""


@pytest.fixture(scope="module")
def compiled():
    compiler = Compiler()
    compiler.compile_source(SOURCE)
    return compiler.functions[sym("testfn")]


def test_e5_rules_fired(benchmark, compiled, table):
    fired = benchmark(compiled.transcript.rules_fired)
    rows = [(rule, fired.count(rule)) for rule in sorted(set(fired))]
    table("E5: rules fired while optimizing testfn", ["rule", "times"], rows)
    # The paper's transcript shows these four rule names:
    assert fired.count("META-EVALUATE-ASSOC-COMMUT-CALL") >= 2
    assert "CONSIDER-REVERSING-ARGUMENTS" in fired
    assert "META-SUBSTITUTE" in fired
    assert "META-CALL-LAMBDA" in fired
    # Plus the machine-inspired sine conversion.
    assert "META-SIN-TO-SINC" in fired


def test_e5_transcript_entries(benchmark, compiled, table):
    text = benchmark(compiled.transcript.render)
    expectations = [
        (";**** Optimizing this form:", "paper transcript framing"),
        ("courtesy of META-EVALUATE-ASSOC-COMMUT-CALL",
         "assoc/commut attribution"),
        ("(+$f (+$f c b) a)", "binary reassociation of +$f"),
        ("(*$f (*$f c b) a)", "binary reassociation of *$f"),
        ("(*$f 0.159154942 e)", "constant moved to front"),
        ("substitution for the variable q", "META-SUBSTITUTE phrasing"),
        ("(progn (frotz d e (max$f d e)) (sin$f e))",
         "the let collapsed to a progn (sinc rewrite fires later here; the"
         " paper applied it before the collapse -- same fixpoint)"),
    ]
    rows = [(note, needle in text) for needle, note in expectations]
    table("E5: transcript content checks", ["expected content", "present"],
          rows)
    for needle, note in expectations:
        assert needle in text, f"missing from transcript: {note}"
    print()
    print(text)


def test_e5_final_program_matches_paper(benchmark, compiled):
    """The resulting program of Section 7 (modulo whitespace)."""
    text = benchmark(lambda: compiled.optimized_source)
    assert text == (
        "(lambda (a &optional (b 3.0) (c a)) "
        "((lambda (d e) (progn (frotz d e (max$f d e)) "
        "(sinc$f (*$f 0.159154942 e)))) "
        "(+$f (+$f c b) a) (*$f (*$f c b) a)))"
    )


def test_e5_code_motion_is_sound(benchmark):
    """Moving (sinc$f ...) past (frotz ...) must not change behaviour even
    when frotz has side effects on *other* state."""
    source = """
        (defvar *observed* nil)
        (defun frotz (d e m) (setq *observed* (list d e m)))
        (defun testfn (a &optional (b 3.0) (c a))
          (let ((d (+$f a b c)) (e (*$f a b c)))
            (let ((q (sin$f e)))
              (frotz d e (max$f d e))
              q)))
    """
    compiler = Compiler()
    compiler.compile_source(source)
    machine = compiler.machine()

    def run_it():
        return machine.run(sym("testfn"), [0.25])

    result = benchmark(run_it)
    # q's value: sine of e = (*$f 0.25 3.0 0.25) = 0.1875 (in radians via
    # the cycles approximation).
    import math

    e_value = 0.25 * 3.0 * 0.25
    assert result == pytest.approx(math.sin(e_value), rel=1e-6)
    # frotz really ran (its side effect on the special is visible).
    from repro.datum import to_list

    observed = machine.specials.lookup(sym("*observed*"))
    d_value, e_obs, m_value = to_list(observed)
    assert d_value == pytest.approx(0.25 + 3.0 + 0.25)
    assert e_obs == pytest.approx(e_value)
    assert m_value == pytest.approx(max(d_value, e_obs))
