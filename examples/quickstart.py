"""Quickstart: compile a Lisp function and run it on the simulated S-1.

Run:  python examples/quickstart.py
"""

from repro import Compiler
from repro.datum import sym


def main() -> None:
    # The compiler accepts ordinary defun forms.  This is the paper's
    # Section 2 example: tail-recursive exponentiation by repeated squaring.
    source = """
        (defun exptl (x n a)        ; compute a * x^n
          (cond ((zerop n) a)
                ((oddp n) (exptl (* x x) (floor (/ n 2)) (* a x)))
                (t (exptl (* x x) (floor (/ n 2)) a))))
    """

    compiler = Compiler()
    compiler.compile_source(source)

    # 1. What the optimizer did (source-to-source, back-translatable):
    compiled = compiler.functions[sym("exptl")]
    print("Optimized source:")
    print(" ", compiled.optimized_source)
    print()

    # 2. The generated parenthesized assembly:
    print(compiled.listing())
    print()

    # 3. Run it.  Tail recursion behaves iteratively: no stack growth.
    machine = compiler.machine()
    result = machine.run(sym("exptl"), [2, 100, 1])
    print(f"(exptl 2 100 1) = {result}")
    print(f"instructions executed : {machine.instructions}")
    print(f"abstract cycles       : {machine.cycles}")
    print(f"stack high-water mark : {machine.max_stack} words"
          f"  (constant no matter how large n is)")
    print(f"heap allocations      : {machine.heap.total_allocations()}")

    # 4. The phase pipeline that ran (the paper's Table 1):
    print()
    print(compiler.phase_report())


if __name__ == "__main__":
    main()
