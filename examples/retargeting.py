"""Retargeting the compiler: the paper's portability claim, live.

"We expect to be able to redirect the compiler to other target
architectures such as the VAX or PDP-10 with relatively little effort."
(Section 1)  "Jonathan Rees has modified an early version of the S-1 LISP
compiler to produce code for the DEC VAX." (Section 5)

The same function is compiled for the S-1, a VAX-like 3-address machine,
and a PDP-10-like 2-address machine; the machine-inspired sin->sinc rewrite
and the RT-register staging follow the target description, and all three
compute the same answer.

Run:  python examples/retargeting.py
"""

from repro import Compiler, CompilerOptions
from repro.datum import sym

SOURCE = """
    (defun wave (x)
      (declare (single-float x))
      (+$f (sin$f (*$f x x)) 1.0))
"""


def main() -> None:
    results = {}
    for target in ("s1", "vax", "pdp10"):
        compiler = Compiler(CompilerOptions(target=target))
        compiler.compile_source(SOURCE)
        compiled = compiler.functions[sym("wave")]
        machine = compiler.machine()
        results[target] = machine.run(sym("wave"), [0.7])

        listing = compiled.listing()
        print("=" * 64)
        print(f"target: {target}")
        print("=" * 64)
        print(compiled.optimized_source)
        print()
        print(listing)
        print()
        rules = compiled.transcript.rules_fired()
        from repro.target.registers import RTA, RTB

        rt_used = any(operand in (("reg", RTA), ("reg", RTB))
                      for instruction in compiled.code.instructions
                      for operand in instruction.operands)
        print(f"sin->sinc fired: {'META-SIN-TO-SINC' in rules}   "
              f"RT staging used: {rt_used}   "
              f"result: {results[target]:.9f}")
        print()

    spread = max(results.values()) - min(results.values())
    assert spread < 1e-6, results
    print(f"all targets agree to {spread:.2e} "
          "(the S-1 differs in the last bits by design: its sine runs in "
          "cycles through the truncated 1/2pi constant)")


if __name__ == "__main__":
    main()
