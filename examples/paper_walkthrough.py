"""The paper's Section 7 worked example, end to end.

Reproduces, for the paper's ``testfn``:

1. the optimizer's debugging transcript (the ``;**** Optimizing this form``
   listing),
2. the final transformed source,
3. the generated parenthesized assembly (the analogue of Table 4),
4. an actual run, showing the pdl-number machinery at work: the
   intermediates d, e, and the max$f argument live on the stack, and only
   the returned value is heap-allocated.

Run:  python examples/paper_walkthrough.py
"""

from repro import Compiler
from repro.datum import sym

TESTFN = """
    (defun frotz (d e m) nil)   ; stand-in for the user function

    (defun testfn (a &optional (b 3.0) (c a))
      (let ((d (+$f a b c)) (e (*$f a b c)))
        (let ((q (sin$f e)))
          (frotz d e (max$f d e))
          q)))
"""


def main() -> None:
    compiler = Compiler()
    compiler.compile_source(TESTFN)
    compiled = compiler.functions[sym("testfn")]

    print("=" * 72)
    print("1. Optimizer transcript (compare the paper's Section 7)")
    print("=" * 72)
    print(compiled.transcript.render())
    print()

    print("=" * 72)
    print("2. Resulting program (paper: '(lambda (a &optional (b 3.0) (c a))")
    print("   ((lambda (d e) (progn (frotz d e (max$f d e))")
    print("   (sinc$f (*$f 0.159154942 e)))) (+$f (+$f c b) a)")
    print("   (*$f (*$f c b) a)))')")
    print("=" * 72)
    print(compiled.optimized_source)
    print()

    print("=" * 72)
    print("3. Generated code (the analogue of Table 4)")
    print("=" * 72)
    print(compiled.listing())
    print()

    print("=" * 72)
    print("4. Execution: (testfn 0.25), one / two / three arguments")
    print("=" * 72)
    for args in ([0.25], [0.25, 1.5], [0.25, 1.5, 4.0]):
        machine = compiler.machine()
        result = machine.run(sym("testfn"), list(args))
        stats = machine.stats()
        boxes = stats["heap_allocations"].get("number-box", 0)
        print(f"  (testfn {' '.join(map(str, args))}) = {result:.9f}   "
              f"[{stats['instructions']} instrs, "
              f"{boxes} heap boxes ({len(args)} args + 1 result), "
              f"{stats['opcodes'].get('PDLBOX', 0)} pdl installs]")
    print()
    print("The optional-argument dispatch (Table 4's L0024/L0022/L0020) and")
    print("the pdl-number installs ('Install value for PDL-allocated number')")
    print("are both visible in the listing above.")


if __name__ == "__main__":
    main()
