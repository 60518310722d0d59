"""T4 -- Table 4: Code Produced by the S-1 LISP Compiler for ``testfn``.

The paper's Table 4 shows the generated code for the Section 7 example.  We
regenerate the analogue and check the structural properties the paper's
listing exhibits:

* a dispatch on the number of arguments with one setup path per case
  (paper labels L0024/L0022/L0020), each pushing slots for missing
  parameters and computing defaults,
* the default 3.0 computed only on the one-argument path,
* pdl-number installs for d, e, and the max$f argument
  ("Install value for PDL-allocated number"),
* the sinc conversion constant 0.159154942 in the instruction stream,
* an FSIN (cycles-argument sine, the S-1 instruction),
* a single heap allocation for the returned value ("Generate new number
  object") -- the intermediates stay on the stack,
* the function exits through RET.

We then execute all three arities and check the observable counts.
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
    return compiler


def test_table4_structure(benchmark, compiled, table):
    def get_listing():
        return compiled.functions[sym("testfn")].listing()

    listing = benchmark(get_listing)
    code = compiled.functions[sym("testfn")].code
    opcodes = [i.opcode for i in code.instructions]

    rows = [
        ("argument-count dispatch", "ARGDISPATCH" in opcodes),
        ("slots pushed for missing params", "ARGEXPAND" in opcodes),
        ("default 3.0 computed", "3.0" in listing),
        ("pdl installs (d, e, max$f arg)",
         opcodes.count("PDLBOX") >= 3),
        ("sinc constant 0.159154942", "0.159154942" in listing),
        ("FSIN (cycles argument)", "FSIN" in opcodes),
        ("returned value heap-boxed", "BOXF" in opcodes),
        ("call to frotz", "(SQ frotz)" in listing),
        ("RTA staging register used", "RTA" in listing),
        ("procedure exit via RET", "RET" in opcodes),
    ]
    table("Table 4 reproduction: structural properties of testfn's code",
          ["property", "present"], rows)
    for name, present in rows:
        assert present, f"Table 4 property missing: {name}"


def test_table4_three_entry_paths(benchmark, compiled):
    """One setup path per allowed argument count (1, 2, 3)."""
    code = compiled.functions[sym("testfn")].code
    dispatch = benchmark(lambda: next(
        i for i in code.instructions if i.opcode == "ARGDISPATCH"))
    cases = dispatch.operands[0][1]
    assert [count for count, _ in cases] == [1, 2, 3]
    # Each case lands on a distinct label with its own frame setup.
    assert len({label for _, label in cases}) == 3


def test_table4_execution_counts(benchmark, compiled, table):
    """Run all three arities; intermediates live on the pdl."""
    def run_one_arg():
        machine = compiled.machine()
        return machine.run(sym("testfn"), [0.25]), machine

    (result, machine) = benchmark(run_one_arg)
    assert result == pytest.approx(0.186403, rel=1e-4)
    stats = machine.stats()
    rows = [
        ("pdl installs per call", stats["opcodes"].get("PDLBOX", 0)),
        ("heap number boxes", stats["heap_allocations"].get("number-box", 0)),
        ("certifications", stats["certifications"]),
        ("instructions", stats["instructions"]),
    ]
    table("Table 4 reproduction: one-argument call, observable counts",
          ["metric", "value"], rows)
    # d, e, and the max$f argument: three pdl numbers.
    assert stats["opcodes"].get("PDLBOX", 0) == 3
    # Boxed: the argument (host boxing) + default 3.0 + the returned value.
    assert stats["heap_allocations"].get("number-box", 0) == 3


def test_table4_arity_agreement(benchmark, compiled):
    machine = compiled.machine()
    one = benchmark(lambda: machine.run(sym("testfn"), [0.25]))
    explicit = machine.run(sym("testfn"), [0.25, 3.0, 0.25])
    assert one == pytest.approx(explicit)


def test_table4_wrong_arity_traps(benchmark, compiled):
    from repro.errors import WrongNumberOfArgumentsError

    machine = benchmark(compiled.machine)
    with pytest.raises(WrongNumberOfArgumentsError):
        machine.run(sym("testfn"), [])
    with pytest.raises(WrongNumberOfArgumentsError):
        machine.run(sym("testfn"), [1.0, 2.0, 3.0, 4.0])
