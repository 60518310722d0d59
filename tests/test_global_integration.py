"""Tests for global procedure integration (block compilation) and
self-integration (loop unrolling) -- the Section 5 remark made real."""


from repro import Compiler, CompilerOptions, Interpreter
from repro.datum import sym
from repro.optimizer import meta


def options(**overrides):
    return CompilerOptions(enable_global_integration=True, **overrides)


class TestGlobalIntegration:
    def test_small_callee_inlined(self):
        compiler = Compiler(options())
        compiler.compile_source("""
            (defun add1 (x) (+ x 1))
            (defun f (a) (* (add1 a) 2))
        """)
        compiled = compiler.functions[sym("f")]
        assert "add1" not in compiled.optimized_source
        assert "META-INTEGRATE-GLOBAL" in compiled.transcript.rules_fired()
        assert compiler.run("f", [10]) == 22

    def test_no_call_instruction_remains(self):
        compiler = Compiler(options())
        compiler.compile_source("""
            (defun sq (x) (* x x))
            (defun f (a) (+ (sq a) (sq (+ a 1))))
        """)
        code = compiler.functions[sym("f")].code
        assert all(i.opcode not in ("CALL", "TAILCALL")
                   for i in code.instructions)
        assert compiler.run("f", [3]) == 9 + 16

    def test_large_callee_not_inlined(self, monkeypatch):
        big_body = "(list " + " ".join(f"(+ x {i})" for i in range(20)) + ")"
        monkeypatch.setattr(meta, "GLOBAL_INTEGRATION_LIMIT", 10)
        compiler = Compiler(options())
        compiler.compile_source(f"""
            (defun big (x) {big_body})
            (defun f (a) (big a))
        """)
        assert "big" in compiler.functions[sym("f")].optimized_source

    def test_later_definition_not_visible(self):
        """Integration sees only *previously compiled* defuns (one pass)."""
        compiler = Compiler(options())
        compiler.compile_source("""
            (defun f (a) (helper a))
            (defun helper (x) (* x 3))
        """)
        assert "helper" in compiler.functions[sym("f")].optimized_source
        assert compiler.run("f", [4]) == 12  # still works via a real call

    def test_disabled_by_default(self):
        compiler = Compiler(CompilerOptions())
        compiler.compile_source("""
            (defun add1 (x) (+ x 1))
            (defun f (a) (add1 a))
        """)
        assert "add1" in compiler.functions[sym("f")].optimized_source

    def test_arity_mismatch_left_alone(self):
        compiler = Compiler(options())
        compiler.compile_source("""
            (defun two (a b) (+ a b))
            (defun f (x) (two x))   ; wrong arity: must stay a call
        """)
        assert "two" in compiler.functions[sym("f")].optimized_source

    def test_optionals_not_integrated(self):
        compiler = Compiler(options())
        compiler.compile_source("""
            (defun opt (a &optional (b 1)) (+ a b))
            (defun f (x) (opt x))
        """)
        assert "opt" in compiler.functions[sym("f")].optimized_source
        assert compiler.run("f", [5]) == 6

    def test_integration_freezes_definition(self):
        """Block compilation's documented trade-off: the integrated copy
        does not see later redefinitions."""
        compiler = Compiler(options())
        compiler.compile_source("""
            (defun k (x) (+ x 1))
            (defun f (a) (k a))
        """)
        # Redefine k after f integrated it.
        compiler.compile_source("(defun k (x) (+ x 100))")
        assert compiler.run("f", [0]) == 1       # frozen copy
        assert compiler.run("k", [0]) == 100     # the live definition


class TestSelfUnrolling:
    SOURCE = """
        (defun countdown (n acc)
          (if (zerop n) acc (countdown (- n 1) (+ acc 1))))
    """

    def test_unrolling_reduces_calls(self):
        baseline = Compiler(options())
        baseline.compile_source(self.SOURCE)
        m0 = baseline.machine()
        assert m0.run(sym("countdown"), [30, 0]) == 30

        unrolled = Compiler(options(self_unroll_depth=2))
        unrolled.compile_source(self.SOURCE)
        m2 = unrolled.machine()
        assert m2.run(sym("countdown"), [30, 0]) == 30

        assert m2.call_count < m0.call_count
        assert m2.instructions < m0.instructions

    def test_no_unrolling_by_default(self):
        compiler = Compiler(options())
        compiler.compile_source(self.SOURCE)
        fired = compiler.functions[sym("countdown")].transcript.rules_fired()
        assert "META-INTEGRATE-GLOBAL" not in fired

    def test_unrolling_terminates(self):
        """The per-name budget prevents indefinite regress (the paper's
        feared 'indefinite regress')."""
        compiler = Compiler(options(self_unroll_depth=5))
        compiler.compile_source(self.SOURCE)
        assert compiler.run("countdown", [100, 0]) == 100

    def test_semantics_across_depths(self):
        interp = Interpreter()
        interp.eval_source(self.SOURCE)
        expected = interp.apply_function(
            interp.global_functions[sym("countdown")], [17, 5])
        for depth in (0, 1, 3):
            compiler = Compiler(options(self_unroll_depth=depth))
            compiler.compile_source(self.SOURCE)
            assert compiler.run("countdown", [17, 5]) == expected

    def test_exptl_unrolls(self, monkeypatch):
        source = """
            (defun exptl (x n a)
              (cond ((zerop n) a)
                    ((oddp n) (exptl (* x x) (floor (/ n 2)) (* a x)))
                    (t (exptl (* x x) (floor (/ n 2)) a))))
        """
        plain = Compiler(options())
        plain.compile_source(source)
        m0 = plain.machine()
        assert m0.run(sym("exptl"), [2, 20, 1]) == 2 ** 20

        monkeypatch.setattr(meta, "GLOBAL_INTEGRATION_LIMIT", 60)
        unrolled = Compiler(options(self_unroll_depth=1))
        unrolled.compile_source(source)
        m1 = unrolled.machine()
        assert m1.run(sym("exptl"), [2, 20, 1]) == 2 ** 20
        assert m1.call_count <= m0.call_count
