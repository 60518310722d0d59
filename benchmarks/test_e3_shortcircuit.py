"""E3 -- Section 5: boolean short-circuiting derived from general rules.

The paper derives short-circuit code for ``(if (and a (or b c)) e1 e2)``
purely from the if-distribution rule, beta-conversion, and simplification:
"the resulting code is identical to what you would expect from a good
compiler for boolean short-circuiting."

We compile the derived form and a hand-written jump structure and compare
generated code quality (instruction counts, cycles, closures built).
"""

import pytest

from repro import Compiler
from repro.datum import NIL, T, sym

DERIVED = """
    (defun e1 () 'one)
    (defun e2 () 'two)
    (defun derived (a b c) (if (and a (or b c)) (e1) (e2)))
"""

HAND_CODED = """
    (defun e1 () 'one)
    (defun e2 () 'two)
    (defun hand (a b c) (if a (if b (e1) (if c (e1) (e2))) (e2)))
"""

INPUTS = [
    (T, T, NIL), (T, NIL, T), (T, NIL, NIL), (NIL, T, T), (NIL, NIL, NIL),
    (T, T, T), (NIL, T, NIL),
]


@pytest.fixture(scope="module")
def compilers():
    derived = Compiler()
    derived.compile_source(DERIVED)
    hand = Compiler()
    hand.compile_source(HAND_CODED)
    return derived, hand


def test_e3_semantics_agree(benchmark, compilers):
    derived, hand = compilers

    def sweep():
        for a, b, c in INPUTS:
            left = derived.machine().run(sym("derived"), [a, b, c])
            right = hand.machine().run(sym("hand"), [a, b, c])
            assert left is right
        return True

    assert benchmark(sweep)


def test_e3_code_quality_matches_hand_coded(benchmark, compilers, table):
    derived, hand = compilers
    derived_code = benchmark(lambda: derived.functions[sym("derived")].code)
    hand_code = hand.functions[sym("hand")].code

    rows = []
    for a, b, c in INPUTS:
        m1 = derived.machine()
        m1.run(sym("derived"), [a, b, c])
        m2 = hand.machine()
        m2.run(sym("hand"), [a, b, c])
        rows.append(((repr(a), repr(b), repr(c)),
                     m1.instructions, m2.instructions,
                     m1.heap.allocations.get("closure", 0)))
        # The derived code must never build thunk closures at run time,
        assert m1.heap.allocations.get("closure", 0) == 0
        # and must be as cheap as the hand-written jumps (within 1).
        assert m1.instructions <= m2.instructions + 1
    table("E3: derived short-circuiting vs hand-coded jumps (per input)",
          ["(a b c)", "derived instrs", "hand instrs", "closures built"],
          rows)
    print(f"\nstatic code size: derived={len(derived_code.instructions)} "
          f"hand={len(hand_code.instructions)} instructions")


def test_e3_transformation_chain(benchmark, table):
    """The rules that fire during the derivation, per Section 5."""
    def compile_with_transcript():
        compiler = Compiler()
        compiler.compile_source(DERIVED)
        return compiler

    compiler = benchmark(compile_with_transcript)
    fired = compiler.functions[sym("derived")].transcript.rules_fired()
    expected_rules = ["META-IF-IF", "META-IF-CONSTANT", "META-SUBSTITUTE",
                      "META-CALL-LAMBDA"]
    rows = [(rule, fired.count(rule)) for rule in sorted(set(fired))]
    table("E3: transformation rules fired during the derivation",
          ["rule", "times"], rows)
    for rule in expected_rules:
        assert rule in fired, f"expected {rule} in the derivation"


def test_e3_no_ifs_remain_in_test_position_closures(benchmark, compilers):
    """The final code contains only jumps: no CLOSURE instructions at all
    in the derived function."""
    derived, _ = compilers
    opcodes = benchmark(lambda: [
        i.opcode
        for i in derived.functions[sym("derived")].code.instructions])
    assert "CLOSURE" not in opcodes
    assert "CALLF" not in opcodes
